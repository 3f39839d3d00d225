package constraint

import (
	"fmt"
	"maps"
	"reflect"
	"strings"
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

// TestCloneIndependence: a clone and its original share their arrays, so
// each step below mutates the clone, then the original, through every
// mutator, and checks that the other set still reads exactly as before.
// The original is parsed with room to spare in each array (upper bounds
// reserve constraints they do not use, a comment reserves members, appends
// grow the names and bounds), which a clone that shared spare room would
// write into. The two sides add different names and constraints, so that
// one side overwriting what the other stored shows.
func TestCloneIndependence(t *testing.T) {
	lat := chain4(t)
	orig := NewSet(lat)
	if err := orig.ParseString("attrs a b c d e\na >= C\nlub(a, b) >= c\nTS >= d\nTS >= e\nS >= a\n# x, y, z\n"); err != nil {
		t.Fatal(err)
	}
	clone := orig.Clone()
	steps := []struct {
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
		{"Add", func(s *Set, k int) error { return s.Add([]Attr{4, Attr(k), 4}, LevelRHS(lat.Top())) }},
		{"AddUpper", func(s *Set, k int) error { return s.AddUpper(Attr(1+k), lat.Top()) }},
	}
	sides := []struct {
		name          string
		mutate, watch *Set
	}{{"clone", clone, orig}, {"original", orig, clone}}
	for _, st := range steps {
		for k, side := range sides {
			before := stateOf(t, side.watch)
			if err := st.do(side.mutate, k); err != nil {
				t.Fatalf("%s on the %s: %v", st.name, side.name, err)
			}
			if after := stateOf(t, side.watch); !reflect.DeepEqual(after, before) {
				t.Fatalf("%s on the %s changed the other set:\n got %+v\nwant %+v", st.name, side.name, after, before)
			}
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

// TestCloneCostIndependentOfConstraints: Clone copies the name index and
// shares the rest, so it allocates the same for 400 constraints as for
// 4 000 over the same attributes.
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
