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
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("chain/seed=%d", seed), func(t *testing.T) {
			fi, err := workload.GenerateFamily("paper", seed, 20)
			if err != nil {
				t.Fatal(err)
			}
			set := parsePinned(t, fi.Lattice, fi.Constraints)
			h := sha256.New()
			digestVersion(ctx, t, h, set)
			rng := rand.New(rand.NewSource(seed))
			fresh := 0
			for i := 0; i < 16; i++ {
				set = set.Clone()
				if err := set.ParseString(appendBatch(rng, 120, &fresh)); err != nil {
					t.Fatal(err)
				}
				digestVersion(ctx, t, h, set)
			}
			checkPinned(t, h)
		})
	}
	for seed := int64(1); seed <= 2; seed++ {
		t.Run(fmt.Sprintf("paper67/seed=%d", seed), func(t *testing.T) {
			fi, err := workload.GenerateFamily("paper", seed, 67)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			digestVersion(ctx, t, h, parsePinned(t, fi.Lattice, fi.Constraints))
			checkPinned(t, h)
		})
		t.Run(fmt.Sprintf("suppress/seed=%d", seed), func(t *testing.T) {
			tab, err := suppress.Generate(suppress.GenSpec{Seed: seed, Rows: 20, Cols: 21})
			if err != nil {
				t.Fatal(err)
			}
			pinProblem(ctx, t, suppress.Frontend{}, tab)
		})
		t.Run(fmt.Sprintf("depinf/seed=%d", seed), func(t *testing.T) {
			rel, err := depinf.Generate(depinf.GenSpec{Seed: seed, Depth: 24, Width: 21, Fanout: 4, Extra: 128})
			if err != nil {
				t.Fatal(err)
			}
			pinProblem(ctx, t, depinf.Frontend{}, rel)
		})
	}
}

func parsePinned(t *testing.T, latticeText, constraintText string) *constraint.Set {
	t.Helper()
	lat, err := lattice.Parse(strings.NewReader(latticeText))
	if err != nil {
		t.Fatal(err)
	}
	set := constraint.NewSet(lat)
	if err := set.ParseString(constraintText); err != nil {
		t.Fatal(err)
	}
	return set
}

func pinProblem(ctx context.Context, t *testing.T, f frontend.Frontend, inst frontend.Instance) {
	t.Helper()
	c, err := f.Compile(inst)
	if err != nil {
		t.Fatal(err)
	}
	set, err := constraint.ParsePolicy(c.LatticeText, c.ConstraintText)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	digestVersion(ctx, t, h, set)
	checkPinned(t, h)
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
