package constraint

import (
	"fmt"
	"maps"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// setState is what a set shows its readers: its text form, its name
// index and the values behind NumAttrs, Constraints and UpperBounds,
// copied out so that a later write into a shared array shows up as a
// difference.
type setState struct {
	text  string
	index map[string]Attr
	attrs int
	cons  []Constraint
	upper []UpperBound
}

func stateOf(t *testing.T, s *Set) setState {
	t.Helper()
	var b strings.Builder
	if _, err := s.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	st := setState{text: b.String(), index: maps.Clone(s.index), attrs: s.NumAttrs(), upper: append([]UpperBound(nil), s.UpperBounds()...)}
	for _, c := range s.Constraints() {
		st.cons = append(st.cons, Constraint{LHS: append([]Attr(nil), c.LHS...), RHS: c.RHS})
	}
	return st
}

// cloneSteps writes a set through every mutator. Side k (0 or 1) adds
// names and constraints of its own, so that one side overwriting what the
// other stored shows.
var cloneSteps = []struct {
	name string
	do   func(s *Set, k int) error
}{
	{"attrs", func(s *Set, k int) error { _, err := s.AddAttr(fmt.Sprintf("f%d", k)); return err }},
	{"simple", func(s *Set, k int) error { return s.ParseString([]string{"e >= b\n", "d >= c\n"}[k]) }},
	{"lub", func(s *Set, k int) error {
		return s.ParseString([]string{"lub(c, d, f0) >= S\n", "lub(a, b, e, f1) >= C\n"}[k])
	}},
	{"new attribute", func(s *Set, k int) error {
		return s.ParseString([]string{"lub(g0, a) >= e\n", "lub(b, g1) >= d\n"}[k])
	}},
	{"upper", func(s *Set, k int) error { return s.ParseString([]string{"S >= e\n", "C >= a\n"}[k]) }},
	{"Add", func(s *Set, k int) error { return s.Add([]Attr{4, Attr(k), 4}, LevelRHS(s.Lattice().Top())) }},
	{"AddUpper", func(s *Set, k int) error { return s.AddUpper(Attr(1+k), s.Lattice().Top()) }},
}

// independenceText declares a to e and leaves room to spare in the arrays
// it fills: its upper bounds reserve constraints they do not use, and its
// comment reserves members.
const independenceText = "attrs a b c d e\na >= C\nlub(a, b) >= c\nTS >= d\nTS >= e\nS >= a\n# x, y, z\n"

// TestCloneIndependence: a clone and its original share their arrays and
// name index, and the first clone of a set takes its spare room. Each case
// builds sets that share them, then writes one set through every mutator
// as side 0 and another as side 1, step by step, and checks after each
// write that every other set still reads exactly as before.
func TestCloneIndependence(t *testing.T) {
	cases := []struct {
		name string
		// sets builds the sets; sets[first] is written as side 0 and
		// sets[second] as side 1.
		sets          func(t *testing.T) []*Set
		first, second int
	}{
		{"clone, then original", func(t *testing.T) []*Set {
			orig := NewSet(chain4(t))
			if err := orig.ParseString(independenceText); err != nil {
				t.Fatal(err)
			}
			return []*Set{orig, orig.Clone()}
		}, 1, 0},
		{"original written after lending, then clone", func(t *testing.T) []*Set {
			s := roomySet(t)
			return []*Set{s, s.Clone()}
		}, 0, 1},
		{"two clones", func(t *testing.T) []*Set {
			s := roomySet(t)
			return []*Set{s, s.Clone(), s.Clone()}
		}, 1, 2},
		{"compiled view's clone and the set's", func(t *testing.T) []*Set {
			// The view shares the set's arrays, so its clone must not take
			// the room the set lends to its own.
			s := roomySet(t)
			return []*Set{s, s.Snapshot().Set().Clone(), s.Clone()}
		}, 1, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sets := tc.sets(t)
			for _, st := range cloneSteps {
				writeChecked(t, st.name+" as side 0", sets, tc.first, func(s *Set) error { return st.do(s, 0) })
				writeChecked(t, st.name+" as side 1", sets, tc.second, func(s *Set) error { return st.do(s, 1) })
			}
		})
	}

	t.Run("refused stage, then good", func(t *testing.T) {
		s := roomySet(t)
		refused := s.Clone()
		sets := []*Set{s, refused}
		writeChecked(t, "refused stage", sets, 1, func(r *Set) error {
			// Two constraints and a new name land in the room before the
			// third line fails.
			if err := r.ParseString("d >= a\nlub(e, g9) >= b\nnot a constraint\n"); err == nil {
				return fmt.Errorf("a line without >= parsed")
			}
			return nil
		})
		good := s.Clone()
		sets = append(sets, good)
		writeChecked(t, "good stage", sets, 2, func(g *Set) error { return g.ParseString("e >= a\n") })
		want := NewSet(chain4(t))
		if err := want.ParseString(independenceText + roomyText + "e >= a\n"); err != nil {
			t.Fatal(err)
		}
		if got, w := stateOf(t, good), stateOf(t, want); !reflect.DeepEqual(got, w) {
			t.Fatalf("the stage after a refused one reads\n%+v\nwant\n%+v", got, w)
		}
	})
}

// TestConcurrentClonesLendOnce: Clones of one set may run concurrently, as
// reads of a shared set do. Exactly one of them takes the set's spare room,
// so each clone then reads as the set plus its own line. Run with -race.
func TestConcurrentClonesLendOnce(t *testing.T) {
	s := roomySet(t)
	base := stateOf(t, s).text
	clones := make([]*Set, 8)
	var wg sync.WaitGroup
	for i := range clones {
		wg.Add(1)
		go func() {
			defer wg.Done()
			clones[i] = s.Clone()
		}()
	}
	wg.Wait()
	inRoom := 0
	for i, c := range clones {
		line := fmt.Sprintf("lub(a, c%d) >= d\n", i)
		if err := c.ParseString(line); err != nil {
			t.Fatal(err)
		}
		if &c.cons[0] == &s.cons[0] {
			inRoom++
		}
	}
	for i, c := range clones {
		want := NewSet(chain4(t))
		if err := want.ParseString(base + fmt.Sprintf("lub(a, c%d) >= d\n", i)); err != nil {
			t.Fatal(err)
		}
		if got, w := stateOf(t, c).text, stateOf(t, want).text; got != w {
			t.Fatalf("clone %d reads\n%s\nwant\n%s", i, got, w)
		}
	}
	if inRoom != 1 {
		t.Fatalf("%d clones appended into the set's room, want 1", inRoom)
	}
}

// roomyText is what roomySet appends to independenceText.
const roomyText = "attrs h\nb >= d\nC >= h\nTS >= b\n"

// roomySet returns independenceText's set grown by one clone and append,
// so that each of its names, constraints and upper bounds has spare room,
// which its first clone takes.
func roomySet(t *testing.T) *Set {
	t.Helper()
	orig := NewSet(chain4(t))
	if err := orig.ParseString(independenceText); err != nil {
		t.Fatal(err)
	}
	s := orig.Clone()
	if err := s.ParseString(roomyText); err != nil {
		t.Fatal(err)
	}
	if cap(s.names) == len(s.names) || cap(s.cons) == len(s.cons) || cap(s.upper) == len(s.upper) {
		t.Fatalf("no spare room: names %d/%d, constraints %d/%d, upper bounds %d/%d",
			len(s.names), cap(s.names), len(s.cons), cap(s.cons), len(s.upper), cap(s.upper))
	}
	return s
}

// writeChecked runs do on sets[i] and fails unless every other set reads
// exactly as before.
func writeChecked(t *testing.T, what string, sets []*Set, i int, do func(*Set) error) {
	t.Helper()
	before := make([]setState, len(sets))
	for j, s := range sets {
		if j != i {
			before[j] = stateOf(t, s)
		}
	}
	if err := do(sets[i]); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	for j, s := range sets {
		if j == i {
			continue
		}
		if after := stateOf(t, s); !reflect.DeepEqual(after, before[j]) {
			t.Fatalf("%s changed set %d:\n got %+v\nwant %+v", what, j, after, before[j])
		}
	}
}

// wideText declares attrs attributes and draws cons constraints over them.
func wideText(attrs, cons int) string {
	var b strings.Builder
	b.WriteString("attrs")
	for i := 0; i < attrs; i++ {
		fmt.Fprintf(&b, " a%d", i)
	}
	b.WriteString("\n")
	for i := 0; i < cons; i++ {
		x, y := i%attrs, (i/attrs+1+i)%attrs
		if x == y {
			y = (y + 1) % attrs
		}
		if i%3 == 0 {
			fmt.Fprintf(&b, "lub(a%d, a%d) >= S\n", x, y)
		} else {
			fmt.Fprintf(&b, "a%d >= a%d\n", x, y)
		}
	}
	return b.String()
}

// TestCloneCostIndependentOfConstraints: Clone shares every array and the
// name index, so it allocates the same for 400 constraints as for 4 000
// over the same attributes.
func TestCloneCostIndependentOfConstraints(t *testing.T) {
	var allocs []float64
	for _, n := range []int{400, 4000} {
		s := NewSet(chain4(t))
		if err := s.ParseString(wideText(100, n)); err != nil {
			t.Fatal(err)
		}
		if len(s.Constraints()) != n {
			t.Fatalf("parsed %d constraints, want %d", len(s.Constraints()), n)
		}
		allocs = append(allocs, testing.AllocsPerRun(20, func() { _ = s.Clone() }))
	}
	if allocs[0] != allocs[1] {
		t.Fatalf("Clone allocates %v for 400 constraints and %v for 4000", allocs[0], allocs[1])
	}
}

// TestChainStageCostIndependentOfConstraints: staging a one-line append
// onto the version the previous stage made, as the catalog does, allocates
// the same bytes onto 400 constraints as onto 4 000: each stage appends into
// the room its predecessor lent instead of copying the constraint list.
func TestChainStageCostIndependentOfConstraints(t *testing.T) {
	const runs = 10
	var perStage []uint64
	for _, n := range []int{400, 4000} {
		s := NewSet(chain4(t))
		if err := s.ParseString(wideText(100, n)); err != nil {
			t.Fatal(err)
		}
		stage := func() {
			next := s.Clone()
			if err := next.ParseString("lub(a0, a1) >= a2\n"); err != nil {
				t.Fatal(err)
			}
			s = next
		}
		// The first stage copies the parsed list, which has no room to
		// spare, into an array with room for the rest.
		stage()
		if room := cap(s.cons) - len(s.cons); room <= runs {
			t.Fatalf("%d constraints: room for %d more, want more than %d", n, room, runs)
		}
		perStage = append(perStage, bytesPerRun(runs, stage))
	}
	if perStage[0] != perStage[1] {
		t.Fatalf("a staged one-line append allocates %d bytes onto 400 constraints and %d onto 4 000", perStage[0], perStage[1])
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the heap bytes one call of
// f allocates, averaged over runs calls after one warm-up call.
func bytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestParseWideLub: deduplicating a left-hand side stays linear in its
// width. A 100 000-member lub naming every member twice parses in well
// under a second (a pairwise check takes tens of seconds) and keeps each
// member once, in first-seen order. The members are declared before the
// clock starts, so the bound is on the lub line alone.
func TestParseWideLub(t *testing.T) {
	const n = 100000
	s := NewSet(chain4(t))
	for i := 0; i < n; i++ {
		s.MustAttr(fmt.Sprintf("m%d", i))
	}
	var b strings.Builder
	b.WriteString("lub(")
	for rep := 0; rep < 2; rep++ {
		for i := 0; i < n; i++ {
			if rep+i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "m%d", i)
		}
	}
	b.WriteString(") >= TS\n")
	start := time.Now()
	if err := s.ParseString(b.String()); err != nil {
		t.Fatal(err)
	}
	d := time.Since(start)
	t.Logf("a %d-member lub parsed in %v", 2*n, d)
	if d > time.Second {
		t.Fatalf("a %d-member lub took %v to parse", 2*n, d)
	}
	lhs := s.Constraints()[0].LHS
	if len(lhs) != n || s.NumAttrs() != n {
		t.Fatalf("kept %d members over %d attributes, want %d", len(lhs), s.NumAttrs(), n)
	}
	for i, a := range lhs {
		if a != Attr(i) {
			t.Fatalf("member %d is attribute %d", i, a)
		}
	}
}
