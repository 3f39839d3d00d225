package minup

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"strings"
	"testing"

	"minup/internal/constraint"
	"minup/internal/core"
	"minup/internal/frontend"
	"minup/internal/frontend/depinf"
	"minup/internal/frontend/frontendtest"
	"minup/internal/frontend/suppress"
	"minup/internal/lattice"
	"minup/internal/workload"
)

// pinnedAnswers holds, per seeded instance of perfbench's shapes, one
// digest over every version's priority numbering and every version's
// answer. Followers, snapshot installs, WAL replay and a rolling restart
// each recompute a version's answer, so a change to the compile or the
// solver that moves any of these is a change of the service's answers,
// not only of its speed. A deliberate change of answers re-records them
// with the values the failures print.
var pinnedAnswers = map[string]string{
	"chain/seed=1":    "9b209714be924d28e6c10504",
	"chain/seed=2":    "c27e3339e6dd216cdd0e4b6d",
	"chain/seed=3":    "631743ab108389b7b81c2fc7",
	"paper67/seed=1":  "3ea6637dbf2a0d74ac97dbc1",
	"paper67/seed=2":  "15c87c39ea56d8b284782532",
	"suppress/seed=1": "fbe420b66e5e5a980fe386e6",
	"suppress/seed=2": "eccfa9a330794eafbc65b82b",
	"depinf/seed=1":   "bdae814c7dc985b804db2fa3",
	"depinf/seed=2":   "79d59f79726165dd333c0945",
}

// TestPinnedAnswers compiles and solves seeded instances of perfbench's
// shapes and compares a digest of each priority numbering and each answer
// with the recorded one: a size-20 paper policy through 16 appended
// batches drawn like replicated_write's (each batch staged into a clone of
// the last version, as the catalog stages an append), the size-67 paper
// set, a 20×21 suppress grid and a depth-24 depinf DAG (cold_create's).
func TestPinnedAnswers(t *testing.T) {
	ctx := context.Background()
	for _, sh := range pinnedShapes {
		for seed := int64(1); seed <= sh.seeds; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", sh.name, seed), func(t *testing.T) {
				h := sha256.New()
				for _, set := range sh.build(t, seed) {
					digestVersion(ctx, t, h, set)
				}
				checkPinned(t, h)
			})
		}
	}
}

// pinnedShapes are the shapes TestPinnedAnswers pins: how many seeds it
// pins, the row of BenchmarkSolveShapes that solves the last version of
// seed 1, and a builder of one seed's versions in the order they are
// solved.
var pinnedShapes = []struct {
	name, bench string
	seeds       int64
	build       func(tb testing.TB, seed int64) []*constraint.Set
}{
	{"chain", "append16", 3, appendChain},
	{"paper67", "paper67", 2, func(tb testing.TB, seed int64) []*constraint.Set {
		fi, err := workload.GenerateFamily("paper", seed, 67)
		if err != nil {
			tb.Fatal(err)
		}
		return []*constraint.Set{parsePinned(tb, fi.Lattice, fi.Constraints)}
	}},
	{"suppress", "suppress", 2, func(tb testing.TB, seed int64) []*constraint.Set {
		tab, _ := frontendtest.ColdCreate(tb, seed)
		return []*constraint.Set{problemPolicy(tb, suppress.Frontend{}, tab)}
	}},
	{"depinf", "depinf", 2, func(tb testing.TB, seed int64) []*constraint.Set {
		_, rel := frontendtest.ColdCreate(tb, seed)
		return []*constraint.Set{problemPolicy(tb, depinf.Frontend{}, rel)}
	}},
}

// appendChain returns a size-20 paper policy and the 16 versions that
// appended batches drawn like replicated_write's make of it, each batch
// staged into a clone of the last version as the catalog stages an append.
func appendChain(tb testing.TB, seed int64) []*constraint.Set {
	fi, err := workload.GenerateFamily("paper", seed, 20)
	if err != nil {
		tb.Fatal(err)
	}
	set := parsePinned(tb, fi.Lattice, fi.Constraints)
	versions := []*constraint.Set{set}
	rng := rand.New(rand.NewSource(seed))
	fresh := 0
	for i := 0; i < 16; i++ {
		set = set.Clone()
		if err := set.ParseString(appendBatch(rng, 120, &fresh)); err != nil {
			tb.Fatal(err)
		}
		versions = append(versions, set)
	}
	return versions
}

func parsePinned(tb testing.TB, latticeText, constraintText string) *constraint.Set {
	tb.Helper()
	lat, err := lattice.Parse(strings.NewReader(latticeText))
	if err != nil {
		tb.Fatal(err)
	}
	set := constraint.NewSet(lat)
	if err := set.ParseString(constraintText); err != nil {
		tb.Fatal(err)
	}
	return set
}

// problemPolicy compiles a problem instance to its policy texts and parses
// them as the catalog does.
func problemPolicy(tb testing.TB, f frontend.Frontend, inst frontend.Instance) *constraint.Set {
	tb.Helper()
	c, err := f.Compile(inst)
	if err != nil {
		tb.Fatal(err)
	}
	set, err := constraint.ParsePolicy(c.LatticeText, c.ConstraintText)
	if err != nil {
		tb.Fatal(err)
	}
	return set
}

// TestChainPathMatchesCounted solves every version of every pinned shape
// twice, plainly and with CollectLatticeOps. Each of them has a chain
// lattice, so the plain solve takes the solver's inline chain operations
// and the counted one calls every operation through the counting wrapper:
// the two must give the same answer after the same steps.
func TestChainPathMatchesCounted(t *testing.T) {
	ctx := context.Background()
	for _, sh := range pinnedShapes {
		for seed := int64(1); seed <= sh.seeds; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", sh.name, seed), func(t *testing.T) {
				for v, set := range sh.build(t, seed) {
					if _, ok := set.Lattice().(*lattice.Chain); !ok {
						t.Fatalf("version %d: lattice %T is not a chain", v, set.Lattice())
					}
					c := set.Snapshot()
					plain, err := core.SolveContext(ctx, c, core.Options{})
					if err != nil {
						t.Fatal(err)
					}
					counted, err := core.SolveContext(ctx, c, core.Options{CollectLatticeOps: true})
					if err != nil {
						t.Fatal(err)
					}
					if counted.Stats.LatticeOps.Total() == 0 {
						t.Fatalf("version %d: the counted solve counted no lattice operation", v)
					}
					if !plain.Assignment.Equal(counted.Assignment) {
						t.Fatalf("version %d: the chain path and the counted path give different answers", v)
					}
					if p, q := solveSteps(plain.Stats), solveSteps(counted.Stats); p != q {
						t.Fatalf("version %d: chain path steps %+v, counted path %+v", v, p, q)
					}
				}
			})
		}
	}
}

// solveSteps is Stats without the fields a solve's path may change: its
// lattice operation counts, pool hit and duration.
func solveSteps(st core.Stats) core.Stats {
	st.LatticeOps, st.PoolHit, st.Duration = lattice.OpCounts{}, false, 0
	return st
}

// digestVersion compiles and solves one version and writes its priority
// numbering and its answer, attribute by attribute, into h.
func digestVersion(ctx context.Context, t *testing.T, h hash.Hash, set *constraint.Set) {
	t.Helper()
	c := set.Snapshot()
	res, err := core.SolveContext(ctx, c, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pr := c.Priorities()
	fmt.Fprintf(h, "version attrs=%d priorities=%d\n", set.NumAttrs(), pr.Max)
	for a := 0; a < set.NumAttrs(); a++ {
		fmt.Fprintf(h, "%s %d %s\n", set.AttrName(constraint.Attr(a)), pr.Priority[a],
			set.Lattice().FormatLevel(res.Assignment[a]))
	}
}

func checkPinned(t *testing.T, h hash.Hash) {
	t.Helper()
	got := hex.EncodeToString(h.Sum(nil))[:24]
	if want := pinnedAnswers[t.Name()[len("TestPinnedAnswers/"):]]; got != want {
		t.Errorf("answers digest %s, recorded %s", got, want)
	}
}
