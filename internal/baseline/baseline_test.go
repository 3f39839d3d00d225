package baseline

import (
	"context"
	"testing"

	"minup/internal/constraint"
	"minup/internal/lattice"
	"minup/internal/workload"
)

func chain3(t *testing.T) *lattice.Chain {
	t.Helper()
	return lattice.MustChain("c", "U", "S", "TS")
}

func TestBruteForceSimple(t *testing.T) {
	lat := chain3(t)
	s := constraint.NewSet(lat)
	a, b := s.MustAttr("a"), s.MustAttr("b")
	sLvl, _ := lat.ParseLevel("S")
	s.MustAdd([]constraint.Attr{a}, constraint.LevelRHS(sLvl))
	s.MustAdd([]constraint.Attr{b}, constraint.AttrRHS(a))
	minimal, err := BruteForce(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(minimal) != 1 {
		t.Fatalf("minimal solutions = %d, want 1", len(minimal))
	}
	if minimal[0][a] != sLvl || minimal[0][b] != sLvl {
		t.Errorf("minimal = %s", s.FormatAssignment(minimal[0]))
	}
}

func TestBruteForceComplexMultipleMinimal(t *testing.T) {
	lat := chain3(t)
	s := constraint.NewSet(lat)
	a, b := s.MustAttr("a"), s.MustAttr("b")
	s.MustAdd([]constraint.Attr{a, b}, constraint.LevelRHS(lat.Top()))
	minimal, err := BruteForce(s)
	if err != nil {
		t.Fatal(err)
	}
	// Either a or b at TS, the other at U: exactly two minimal solutions.
	if len(minimal) != 2 {
		t.Fatalf("minimal solutions = %d, want 2", len(minimal))
	}
	for _, m := range minimal {
		if !s.Satisfies(m) {
			t.Errorf("non-solution reported minimal: %s", s.FormatAssignment(m))
		}
	}
}

func TestBruteForceLimits(t *testing.T) {
	lat := lattice.MustPowerset("big", "a", "b", "c", "d", "e", "f", "g", "h")
	s := constraint.NewSet(lat)
	for i := 0; i < 12; i++ {
		s.MustAttr(string(rune('p' + i)))
	}
	if _, err := BruteForce(s); err == nil {
		t.Error("oversized enumeration accepted")
	}
	mls := lattice.MustMLS("m", []string{"U"}, []string{"x"})
	s2 := constraint.NewSet(mls)
	s2.MustAttr("a")
	if _, err := BruteForce(s2); err == nil {
		t.Error("non-enumerable lattice accepted")
	}
	if _, err := IsMinimal(s2, constraint.Assignment{mls.Top()}); err == nil {
		t.Error("IsMinimal accepted non-enumerable lattice")
	}
}

func TestIsMinimal(t *testing.T) {
	lat := chain3(t)
	s := constraint.NewSet(lat)
	a := s.MustAttr("a")
	sLvl, _ := lat.ParseLevel("S")
	s.MustAdd([]constraint.Attr{a}, constraint.LevelRHS(sLvl))

	min, err := IsMinimal(s, constraint.Assignment{sLvl})
	if err != nil || !min {
		t.Errorf("exact solution not minimal: %v %v", min, err)
	}
	min, err = IsMinimal(s, constraint.Assignment{lat.Top()})
	if err != nil || min {
		t.Errorf("overclassified solution reported minimal: %v %v", min, err)
	}
	min, err = IsMinimal(s, constraint.Assignment{lat.Bottom()})
	if err != nil || min {
		t.Errorf("non-solution reported minimal: %v %v", min, err)
	}
}

func TestQianOverclassifies(t *testing.T) {
	lat := chain3(t)
	s := constraint.NewSet(lat)
	a, b := s.MustAttr("a"), s.MustAttr("b")
	s.MustAdd([]constraint.Attr{a, b}, constraint.LevelRHS(lat.Top()))
	q, err := Qian(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	// Qian upgrades both members of the association.
	if q[a] != lat.Top() || q[b] != lat.Top() {
		t.Errorf("qian = %s, want both TS", s.FormatAssignment(q))
	}
	if min, _ := IsMinimal(s, q); min {
		t.Error("Qian's answer should not be minimal here")
	}
	// But it always satisfies.
	if !s.Satisfies(q) {
		t.Error("Qian result violates constraints")
	}

	s.MustAddUpper(a, lat.Bottom())
	if _, err := Qian(context.Background(), s); err == nil {
		t.Error("Qian accepted upper bounds")
	}
}

func TestQianSatisfiesRandom(t *testing.T) {
	lat := lattice.FigureOneB()
	for seed := int64(0); seed < 40; seed++ {
		s := workload.MustConstraints(lat, workload.ConstraintSpec{
			Seed: seed, NumAttrs: 8, NumConstraints: 16, MaxLHS: 3,
			LevelRHSFraction: 0.3, Cyclic: true,
		})
		q, err := Qian(context.Background(), s)
		if err != nil {
			t.Fatal(err)
		}
		if v := s.Violations(q); v != nil {
			t.Fatalf("seed=%d: %v", seed, v)
		}
	}
}

func TestBacktracking(t *testing.T) {
	lat := chain3(t)
	s := constraint.NewSet(lat)
	a, b := s.MustAttr("a"), s.MustAttr("b")
	sLvl, _ := lat.ParseLevel("S")
	s.MustAdd([]constraint.Attr{a, b}, constraint.LevelRHS(lat.Top()))
	s.MustAdd([]constraint.Attr{a}, constraint.LevelRHS(sLvl))
	m, explored, err := Backtracking(s, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if explored != 2 {
		t.Errorf("explored = %d, want 2", explored)
	}
	if !s.Satisfies(m) {
		t.Fatalf("backtracking result violates: %s", s.FormatAssignment(m))
	}
	if min, _ := IsMinimal(s, m); !min {
		t.Errorf("backtracking result not minimal on a chain: %s", s.FormatAssignment(m))
	}

	// Vector limit.
	s2 := constraint.NewSet(lat)
	var attrs []constraint.Attr
	for i := 0; i < 12; i++ {
		attrs = append(attrs, s2.MustAttr(string(rune('a'+i))))
	}
	for i := 0; i+3 < len(attrs); i += 2 {
		s2.MustAdd(attrs[i:i+3], constraint.LevelRHS(lat.Top()))
	}
	if _, _, err := Backtracking(s2, 10); err == nil {
		t.Error("vector explosion not bounded")
	}

	s3 := constraint.NewSet(lat)
	x := s3.MustAttr("x")
	s3.MustAddUpper(x, lat.Top())
	if _, _, err := Backtracking(s3, 10); err == nil {
		t.Error("upper bounds accepted")
	}
}

// TestBacktrackingSatisfiesRandom: on chains the baseline must always find
// a satisfying, minimal assignment.
func TestBacktrackingMinimalOnChainsRandom(t *testing.T) {
	lat := chain3(t)
	for seed := int64(0); seed < 30; seed++ {
		s := workload.MustConstraints(lat, workload.ConstraintSpec{
			Seed: seed, NumAttrs: 5, NumConstraints: 7, MaxLHS: 3,
			LevelRHSFraction: 0.5, Cyclic: true,
		})
		m, _, err := Backtracking(s, 100000)
		if err != nil {
			t.Fatal(err)
		}
		if v := s.Violations(m); v != nil {
			t.Fatalf("seed=%d: %v", seed, v)
		}
		min, err := IsMinimal(s, m)
		if err != nil {
			t.Fatal(err)
		}
		if !min {
			t.Fatalf("seed=%d: backtracking non-minimal on a chain: %s",
				seed, s.FormatAssignment(m))
		}
	}
}

func TestCheapestUpgrade(t *testing.T) {
	lat := chain3(t)
	s := constraint.NewSet(lat)
	a, b, c := s.MustAttr("a"), s.MustAttr("b"), s.MustAttr("c")
	sLvl, _ := lat.ParseLevel("S")
	// Two associations sharing b: carrying both on b upgrades one attribute
	// instead of two.
	s.MustAdd([]constraint.Attr{a, b}, constraint.LevelRHS(sLvl))
	s.MustAdd([]constraint.Attr{b, c}, constraint.LevelRHS(sLvl))
	m, err := CheapestUpgrade(s, CountUpgraded)
	if err != nil {
		t.Fatal(err)
	}
	if got := CountUpgraded(s, m); got != 1 {
		t.Fatalf("cheapest upgrade touches %d attributes (%s), want 1",
			got, s.FormatAssignment(m))
	}
	if m[b] != sLvl || m[a] != lat.Bottom() || m[c] != lat.Bottom() {
		t.Errorf("cheapest = %s", s.FormatAssignment(m))
	}
}
