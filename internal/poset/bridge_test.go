package poset

import (
	"fmt"
	"math/rand"
	"testing"

	"minup/internal/constraint"
	"minup/internal/core"
	"minup/internal/lattice"
	"minup/internal/workload"
)

// latticeAsPoset rebuilds an enumerable lattice as a Poset with the same
// element names (lattices are posets; the min-poset machinery must agree
// with the specialized solver on them).
func latticeAsPoset(t *testing.T, l lattice.Enumerable) *Poset {
	t.Helper()
	var names []string
	covers := make(map[string][]string)
	for _, e := range l.Elements() {
		names = append(names, l.FormatLevel(e))
		for _, c := range l.Covers(e) {
			covers[l.FormatLevel(e)] = append(covers[l.FormatLevel(e)], l.FormatLevel(c))
		}
	}
	p, err := FromCovers("bridge", names, covers)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestDominatesMatchesGE builds explicit lattices' covers into Posets too
// and checks that Explicit.Dominates and Poset.GE agree on every pair:
// Figure 1(b) and seeded random sublattices of a powerset, some wider than
// one 64-bit word.
func TestDominatesMatchesGE(t *testing.T) {
	lats := []*lattice.Explicit{lattice.FigureOneB()}
	for seed := int64(1); seed <= 12; seed++ {
		l, err := workload.RandomSublattice(seed, 8, 4+int(seed)*2)
		if err != nil {
			t.Fatal(err)
		}
		lats = append(lats, l)
	}
	for _, lat := range lats {
		p := latticeAsPoset(t, lat)
		for _, a := range lat.Elements() {
			pa, _ := p.ElemByName(lat.FormatLevel(a))
			for _, b := range lat.Elements() {
				pb, _ := p.ElemByName(lat.FormatLevel(b))
				if lat.Dominates(a, b) != p.GE(pa, pb) {
					t.Fatalf("%s: %s ≽ %s is %v, but GE says %v", lat.Name(),
						lat.FormatLevel(a), lat.FormatLevel(b), lat.Dominates(a, b), p.GE(pa, pb))
				}
			}
		}
	}
}

// TestBridgeLatticeInstances differentially tests the min-poset solver
// against Algorithm 3.1 on random lattice instances: both must agree on
// solvability (always solvable for lower-bound constraints) and the
// min-poset solution must satisfy exactly the same constraints; on
// simple-only acyclic instances, where the minimal solution is unique,
// the two must coincide level for level.
func TestBridgeLatticeInstances(t *testing.T) {
	lat := lattice.FigureOneB()
	p := latticeAsPoset(t, lat)
	toElem := func(l lattice.Level) Elem {
		e, ok := p.ElemByName(lat.FormatLevel(l))
		if !ok {
			t.Fatalf("element %s missing", lat.FormatLevel(l))
		}
		return e
	}
	if !p.IsLattice() {
		t.Fatal("bridged lattice is not a lattice poset")
	}

	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 30; trial++ {
		// Random simple-only acyclic instance built in both worlds.
		s := constraint.NewSet(lat)
		in := NewInstance(p)
		const n = 6
		attrs := make([]constraint.Attr, n)
		for i := 0; i < n; i++ {
			attrs[i] = s.MustAttr(fmt.Sprintf("w%d", i))
			in.AddAttr(fmt.Sprintf("w%d", i))
		}
		elems := lat.Elements()
		for i := 0; i < 8; i++ {
			lo := rng.Intn(n)
			if rng.Intn(2) == 0 || lo == n-1 {
				lvl := elems[rng.Intn(len(elems))]
				s.MustAdd([]constraint.Attr{attrs[lo]}, constraint.LevelRHS(lvl))
				in.AddLowerElem([]int{lo}, toElem(lvl))
			} else {
				hi := lo + 1 + rng.Intn(n-lo-1)
				s.MustAdd([]constraint.Attr{attrs[lo]}, constraint.AttrRHS(attrs[hi]))
				in.AddLowerAttr([]int{lo}, hi)
			}
		}

		res := core.MustSolve(s, core.Options{})
		m, _, err := in.Solve(0)
		if err != nil {
			t.Fatal(err)
		}
		if m == nil {
			t.Fatalf("trial %d: min-poset found lattice instance unsolvable", trial)
		}
		// Simple acyclic ⇒ unique minimal solution; the greedy minimizer
		// reaches it on a lattice instance with only simple constraints.
		for i := 0; i < n; i++ {
			want := lat.FormatLevel(res.Assignment[attrs[i]])
			got := p.ElemName(m[i])
			if got != want {
				t.Fatalf("trial %d: attribute w%d: poset %s vs lattice %s",
					trial, i, got, want)
			}
		}
	}
}
