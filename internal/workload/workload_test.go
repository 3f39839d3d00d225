package workload

import (
	"math/rand"
	"testing"

	"minup/internal/graph"
	"minup/internal/lattice"
)

func TestConstraintsShapes(t *testing.T) {
	lat := lattice.FigureOneB()

	// Acyclic spec generates a DAG.
	s := MustConstraints(lat, ConstraintSpec{
		Seed: 1, NumAttrs: 30, NumConstraints: 80, MaxLHS: 3, LevelRHSFraction: 0.3,
	})
	if !s.Acyclic() {
		t.Error("acyclic spec produced a cycle")
	}
	if len(s.Constraints()) != 80 || s.NumAttrs() != 30 {
		t.Errorf("shape: %d constraints, %d attrs", len(s.Constraints()), s.NumAttrs())
	}

	// SingleSCC spec puts every attribute into one component.
	s2 := MustConstraints(lat, ConstraintSpec{
		Seed: 2, NumAttrs: 20, NumConstraints: 40, MaxLHS: 3,
		LevelRHSFraction: 0.3, Cyclic: true, SingleSCC: true,
	})
	if pr := graph.PrioritySCC(s2.Graph()); pr.Max != 1 {
		t.Errorf("SingleSCC produced %d components", pr.Max)
	}

	// MaxLHS respected.
	for _, c := range s.Constraints() {
		if len(c.LHS) > 3 {
			t.Errorf("lhs width %d exceeds 3", len(c.LHS))
		}
	}

	// Upper bounds generated when requested.
	s3 := MustConstraints(lat, ConstraintSpec{
		Seed: 3, NumAttrs: 40, NumConstraints: 40, MaxLHS: 2,
		LevelRHSFraction: 0.5, UpperBoundFraction: 1.0,
	})
	if len(s3.UpperBounds()) != 40 {
		t.Errorf("upper bounds = %d, want 40", len(s3.UpperBounds()))
	}
}

func TestConstraintsDeterministic(t *testing.T) {
	lat := lattice.MustChain("c", "a", "b", "z")
	spec := ConstraintSpec{Seed: 7, NumAttrs: 10, NumConstraints: 20, MaxLHS: 3,
		LevelRHSFraction: 0.4, Cyclic: true}
	s1 := MustConstraints(lat, spec)
	s2 := MustConstraints(lat, spec)
	if len(s1.Constraints()) != len(s2.Constraints()) {
		t.Fatal("nondeterministic constraint count")
	}
	for i := range s1.Constraints() {
		if s1.Format(s1.Constraints()[i]) != s2.Format(s2.Constraints()[i]) {
			t.Fatalf("constraint %d differs between runs", i)
		}
	}
}

func TestConstraintsValidation(t *testing.T) {
	lat := lattice.MustChain("c", "a", "b")
	if _, err := Constraints(lat, ConstraintSpec{NumAttrs: 1}); err == nil {
		t.Error("single attribute accepted")
	}
	if _, err := Constraints(lat, ConstraintSpec{NumAttrs: 5, SingleSCC: true}); err == nil {
		t.Error("SingleSCC without Cyclic accepted")
	}
}

func TestRandomLevel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	mls := lattice.MustMLS("m", []string{"U", "S"}, []string{"a", "b", "c"})
	seen := map[lattice.Level]bool{}
	for i := 0; i < 200; i++ {
		l := RandomLevel(mls, rng)
		if !mls.Contains(l) {
			t.Fatalf("sampled level outside lattice: %d", l)
		}
		seen[l] = true
	}
	if len(seen) < 8 {
		t.Errorf("poor coverage: %d distinct levels", len(seen))
	}
	ch := lattice.MustChain("c", "x", "y", "z")
	for i := 0; i < 20; i++ {
		if l := RandomLevel(ch, rng); !ch.Contains(l) {
			t.Fatalf("chain sample out of range")
		}
	}
}

func TestUpperHalfLevel(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	lat := lattice.FigureOneB()
	chain := lattice.ChainDown(lat, lat.Top())
	mid := chain[len(chain)/2]
	for i := 0; i < 50; i++ {
		l := UpperHalfLevel(lat, rng)
		if !lat.Dominates(l, mid) {
			t.Fatalf("UpperHalfLevel %s below mid %s",
				lat.FormatLevel(l), lat.FormatLevel(mid))
		}
	}
}

func TestRandomSublattice(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		l, err := RandomSublattice(seed, 6, 8)
		if err != nil {
			t.Fatal(err)
		}
		if err := lattice.Check(l); err != nil {
			t.Fatalf("seed=%d: invalid lattice: %v", seed, err)
		}
		if l.Size() < 2 {
			t.Errorf("seed=%d: degenerate lattice", seed)
		}
	}
	if _, err := RandomSublattice(1, 30, 5); err == nil {
		t.Error("oversized universe accepted")
	}
}

func TestRandomSAT3(t *testing.T) {
	inst, err := RandomSAT3(5, 10, 42)
	if err != nil {
		t.Fatal(err)
	}
	if inst.NumVars != 10 || len(inst.Clauses) != 42 {
		t.Fatalf("shape: %d vars %d clauses", inst.NumVars, len(inst.Clauses))
	}
	for _, cl := range inst.Clauses {
		vars := map[int]bool{}
		for _, lit := range cl {
			v := lit
			if v < 0 {
				v = ^v
			}
			if v < 0 || v >= inst.NumVars {
				t.Fatalf("literal out of range: %d", lit)
			}
			if vars[v] {
				t.Fatalf("clause repeats variable: %v", cl)
			}
			vars[v] = true
		}
	}
	if _, err := RandomSAT3(1, 2, 5); err == nil {
		t.Error("too few variables accepted")
	}
}
