package core

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"minup/internal/baseline"
	"minup/internal/constraint"
	"minup/internal/lattice"
	"minup/internal/workload"
)

// TestFigure2 reproduces the paper's worked example end to end (experiment
// E1): the priority sets, the exact sequence of Try calls of Figure 2(b),
// and the final minimal classification.
func TestFigure2(t *testing.T) {
	f := constraint.NewFigure2()
	res := MustSolve(f.Set, Options{RecordTrace: true})

	if !f.Set.Satisfies(res.Assignment) {
		t.Fatalf("solution violates constraints: %v", f.Set.Violations(res.Assignment))
	}
	if !res.Assignment.Equal(f.Want) {
		t.Fatalf("final classification differs from Figure 2(b):\n got %s\nwant %s",
			f.Set.FormatAssignment(res.Assignment), f.Set.FormatAssignment(f.Want))
	}

	// Priority numbering matches the paper exactly:
	// [1]={D} [2]={I,O,N} [3]={B,C,E,F,G,M} [4]={P}.
	pr := res.Priorities
	wantSets := map[int][]constraint.Attr{
		1: {f.D},
		2: {f.I, f.O, f.N},
		3: {f.B, f.C, f.E, f.F, f.G, f.M},
		4: {f.P},
	}
	if pr.Max != 4 {
		t.Fatalf("max priority = %d, want 4", pr.Max)
	}
	for p, want := range wantSets {
		got := make([]constraint.Attr, 0, len(pr.Sets[p]))
		for _, n := range pr.Sets[p] {
			got = append(got, constraint.Attr(n))
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("priority[%d] = %v, want %v", p, got, want)
		}
	}

	// Try-call sequence. The paper's table shows the same calls except
	// that it omits O's failing descent try(O,L3); the text defines the
	// table as illustrative, and the failing try is forced by the
	// pseudocode (O's DSet={L3} and lowering O below the simple cycle
	// I,O,N contradicts done[I]).
	wantTries := []string{
		"try(B,L5)", "try(C,L4)", "try(E,L2)", "try(E,L1)",
		"try(F,L2) F", "try(I,L5)", "try(O,L3) F",
	}
	if got := res.Trace.Tries(); !reflect.DeepEqual(got, wantTries) {
		t.Errorf("try sequence = %v\nwant %v", got, wantTries)
	}

	// Trace table renders every attribute and the failure marker.
	table := res.Trace.Table()
	for _, needle := range []string{"P", "try(F,L2) F", "L5"} {
		if !strings.Contains(table, needle) {
			t.Errorf("trace table missing %q:\n%s", needle, table)
		}
	}
	if !res.Trace.Final().Equal(res.Assignment) {
		t.Error("trace final snapshot differs from result")
	}

	// Minimality, verified exhaustively against the down-set of the
	// solution.
	min, err := baseline.IsMinimal(f.Set, res.Assignment)
	if err != nil {
		t.Fatal(err)
	}
	if !min {
		t.Error("Figure 2 solution is not minimal")
	}
}

// fixtureLattices returns the small lattices used by randomized solver
// tests.
func fixtureLattices() map[string]lattice.Lattice {
	return map[string]lattice.Lattice{
		"figure1b": lattice.FigureOneB(),
		"chain4":   lattice.MustChain("mil", "U", "C", "S", "TS"),
		"powerset": lattice.MustPowerset("cats", "x", "y", "z"),
		"mls":      lattice.MustMLS("mls", []string{"U", "S", "TS"}, []string{"a", "b", "c", "d"}),
	}
}

// TestSolveSatisfiesRandom checks the solver's primary postcondition — the
// result satisfies the constraints — across random shapes and lattices.
func TestSolveSatisfiesRandom(t *testing.T) {
	for name, lat := range fixtureLattices() {
		for seed := int64(0); seed < 40; seed++ {
			for _, spec := range []workload.ConstraintSpec{
				{Seed: seed, NumAttrs: 8, NumConstraints: 12, MaxLHS: 1, LevelRHSFraction: 0.4, Cyclic: false},
				{Seed: seed, NumAttrs: 8, NumConstraints: 14, MaxLHS: 3, LevelRHSFraction: 0.4, Cyclic: false},
				{Seed: seed, NumAttrs: 8, NumConstraints: 16, MaxLHS: 3, LevelRHSFraction: 0.3, Cyclic: true},
				{Seed: seed, NumAttrs: 10, NumConstraints: 20, MaxLHS: 4, LevelRHSFraction: 0.3, Cyclic: true, SingleSCC: true},
			} {
				s := workload.MustConstraints(lat, spec)
				res := MustSolve(s, Options{})
				if v := s.Violations(res.Assignment); v != nil {
					t.Fatalf("%s seed=%d spec=%+v: violations %v", name, seed, spec, v)
				}
			}
		}
	}
}

// TestSolveMinimalRandom checks exact pointwise minimality against the
// exhaustive oracle on small instances over small enumerable lattices,
// covering acyclic, cyclic, simple, and complex shapes.
func TestSolveMinimalRandom(t *testing.T) {
	sub, err := workload.RandomSublattice(19, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	lats := map[string]lattice.Lattice{
		"figure1b":   lattice.FigureOneB(),
		"chain4":     lattice.MustChain("mil", "U", "C", "S", "TS"),
		"sublattice": sub,
		"diamond": func() lattice.Lattice {
			e, err := lattice.NewExplicit("diamond",
				[]string{"bot", "a", "b", "top"},
				map[string][]string{"top": {"a", "b"}, "a": {"bot"}, "b": {"bot"}})
			if err != nil {
				t.Fatal(err)
			}
			return e
		}(),
	}
	for name, lat := range lats {
		for seed := int64(0); seed < 60; seed++ {
			for _, spec := range []workload.ConstraintSpec{
				{Seed: seed, NumAttrs: 5, NumConstraints: 7, MaxLHS: 1, LevelRHSFraction: 0.5, Cyclic: false},
				{Seed: seed, NumAttrs: 5, NumConstraints: 8, MaxLHS: 3, LevelRHSFraction: 0.4, Cyclic: true},
				{Seed: seed, NumAttrs: 6, NumConstraints: 10, MaxLHS: 3, LevelRHSFraction: 0.4, Cyclic: true, SingleSCC: true},
			} {
				s := workload.MustConstraints(lat, spec)
				res := MustSolve(s, Options{})
				min, err := baseline.IsMinimal(s, res.Assignment)
				if err != nil {
					t.Fatal(err)
				}
				if !min {
					t.Fatalf("%s seed=%d spec=%+v: non-minimal solution %s",
						name, seed, spec, s.FormatAssignment(res.Assignment))
				}
			}
		}
	}
}

// TestAcyclicSimpleUnique checks that on acyclic simple-only constraints —
// where §3.1 proves the minimal solution unique — the solver agrees with
// the brute-force oracle exactly.
func TestAcyclicSimpleUnique(t *testing.T) {
	lat := lattice.FigureOneB()
	for seed := int64(0); seed < 40; seed++ {
		s := workload.MustConstraints(lat, workload.ConstraintSpec{
			Seed: seed, NumAttrs: 5, NumConstraints: 8, MaxLHS: 1,
			LevelRHSFraction: 0.5,
		})
		res := MustSolve(s, Options{})
		minimal, err := baseline.BruteForce(s)
		if err != nil {
			t.Fatal(err)
		}
		if len(minimal) != 1 {
			t.Fatalf("seed=%d: %d minimal solutions for acyclic simple constraints, want 1", seed, len(minimal))
		}
		if !res.Assignment.Equal(minimal[0]) {
			t.Fatalf("seed=%d: solver %s != unique minimal %s",
				seed, s.FormatAssignment(res.Assignment), s.FormatAssignment(minimal[0]))
		}
	}
}

// TestSimpleOnlyMatchesQian checks that with only simple constraints the
// overclassifying baseline coincides with the minimal solution (both reduce
// to plain least-fixpoint propagation), anchoring the E5 comparison.
func TestSimpleOnlyMatchesQian(t *testing.T) {
	lat := lattice.MustChain("mil", "U", "C", "S", "TS")
	for seed := int64(0); seed < 30; seed++ {
		s := workload.MustConstraints(lat, workload.ConstraintSpec{
			Seed: seed, NumAttrs: 8, NumConstraints: 14, MaxLHS: 1,
			LevelRHSFraction: 0.4, Cyclic: true,
		})
		res := MustSolve(s, Options{})
		q, err := baseline.Qian(context.Background(), s)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Assignment.Equal(q) {
			t.Fatalf("seed=%d: simple-only disagreement\nsolver %s\nqian   %s",
				seed, s.FormatAssignment(res.Assignment), s.FormatAssignment(q))
		}
	}
}

// TestQianNeverBelow checks that the overclassifying baseline never
// classifies any attribute strictly below Algorithm 3.1's choice on
// instances without complex constraints... and on complex instances checks
// both satisfy and that Qian's total elevation is at least the solver's.
func TestQianDominatesInTotal(t *testing.T) {
	lat := lattice.MustChain("mil", "U", "C", "S", "TS")
	rank := func(l lattice.Level) int { return int(l) } // chain levels are ranks
	for seed := int64(0); seed < 40; seed++ {
		s := workload.MustConstraints(lat, workload.ConstraintSpec{
			Seed: seed, NumAttrs: 8, NumConstraints: 14, MaxLHS: 3,
			LevelRHSFraction: 0.4, Cyclic: true,
		})
		res := MustSolve(s, Options{})
		q, err := baseline.Qian(context.Background(), s)
		if err != nil {
			t.Fatal(err)
		}
		if !s.Satisfies(q) {
			t.Fatalf("seed=%d: Qian result violates constraints", seed)
		}
		sumOurs, sumQian := 0, 0
		for i := range res.Assignment {
			sumOurs += rank(res.Assignment[i])
			sumQian += rank(q[i])
		}
		if sumQian < sumOurs {
			t.Fatalf("seed=%d: Qian total rank %d below minimal solver %d", seed, sumQian, sumOurs)
		}
	}
}

// TestJIOpsSolveAgrees checks that solving entirely on the Aït-Kaci
// join-irreducible encoding reproduces the closure-table results.
func TestJIOpsSolveAgrees(t *testing.T) {
	base := lattice.FigureOneB()
	ji, err := lattice.NewJIOps(base)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 25; seed++ {
		spec := workload.ConstraintSpec{
			Seed: seed, NumAttrs: 10, NumConstraints: 20, MaxLHS: 3,
			LevelRHSFraction: 0.3, Cyclic: true,
		}
		plain := MustSolve(workload.MustConstraints(base, spec), Options{})
		encoded := MustSolve(workload.MustConstraints(ji, spec), Options{})
		if !plain.Assignment.Equal(encoded.Assignment) {
			t.Fatalf("seed=%d: JI-encoded solve diverged", seed)
		}
	}
}

// TestMinComplementAblation checks that the footnote-4 closed form and the
// generic lattice descent produce identical classifications on
// compartmented lattices.
func TestMinComplementAblation(t *testing.T) {
	lat := lattice.MustMLS("mls", []string{"U", "S", "TS"}, []string{"a", "b", "c", "d"})
	for seed := int64(0); seed < 40; seed++ {
		s := workload.MustConstraints(lat, workload.ConstraintSpec{
			Seed: seed, NumAttrs: 9, NumConstraints: 16, MaxLHS: 3,
			LevelRHSFraction: 0.35, Cyclic: true,
		})
		fast := MustSolve(s, Options{})
		slow := MustSolve(s, Options{DisableMinComplement: true})
		if !fast.Assignment.Equal(slow.Assignment) {
			t.Fatalf("seed=%d: fast path diverges\nfast %s\nslow %s",
				seed, s.FormatAssignment(fast.Assignment), s.FormatAssignment(slow.Assignment))
		}
		if slow.Stats.MinlevelCalls != fast.Stats.MinlevelCalls {
			t.Errorf("seed=%d: minlevel call counts differ (%d vs %d)",
				seed, fast.Stats.MinlevelCalls, slow.Stats.MinlevelCalls)
		}
	}
}

// TestMinComplementAblationOtherLattices extends the footnote-4 ablation
// to the other ComplementMinimizer implementations (chains and powersets).
func TestMinComplementAblationOtherLattices(t *testing.T) {
	for name, lat := range map[string]lattice.Lattice{
		"chain":    lattice.MustChain("mil", "U", "C", "S", "TS"),
		"powerset": lattice.MustPowerset("p", "x", "y", "z", "w"),
	} {
		if _, ok := lat.(lattice.ComplementMinimizer); !ok {
			t.Fatalf("%s no longer implements ComplementMinimizer", name)
		}
		for seed := int64(0); seed < 25; seed++ {
			s := workload.MustConstraints(lat, workload.ConstraintSpec{
				Seed: seed, NumAttrs: 9, NumConstraints: 16, MaxLHS: 3,
				LevelRHSFraction: 0.35, Cyclic: true,
			})
			fast := MustSolve(s, Options{})
			slow := MustSolve(s, Options{DisableMinComplement: true})
			if !fast.Assignment.Equal(slow.Assignment) {
				t.Fatalf("%s seed=%d: fast path diverges", name, seed)
			}
		}
	}
}

// TestSolveIdempotentAndDeterministic checks that repeated solves of the
// same set yield identical assignments and traces.
func TestSolveDeterministic(t *testing.T) {
	s := workload.MustConstraints(lattice.FigureOneB(), workload.ConstraintSpec{
		Seed: 3, NumAttrs: 10, NumConstraints: 20, MaxLHS: 3,
		LevelRHSFraction: 0.3, Cyclic: true,
	})
	a := MustSolve(s, Options{RecordTrace: true})
	b := MustSolve(s, Options{RecordTrace: true})
	if !a.Assignment.Equal(b.Assignment) {
		t.Fatal("nondeterministic assignment")
	}
	if !reflect.DeepEqual(a.Trace.Tries(), b.Trace.Tries()) {
		t.Fatal("nondeterministic trace")
	}
}

// TestEmptyAndTrivialSets covers degenerate inputs.
func TestEmptyAndTrivialSets(t *testing.T) {
	lat := lattice.MustChain("c", "lo", "hi")
	s := constraint.NewSet(lat)
	a := s.MustAttr("a")
	res := MustSolve(s, Options{})
	if res.Assignment[a] != lat.Bottom() {
		t.Errorf("unconstrained attribute should rest at ⊥, got %s",
			lat.FormatLevel(res.Assignment[a]))
	}

	s2 := constraint.NewSet(lat)
	x := s2.MustAttr("x")
	s2.MustAdd([]constraint.Attr{x}, constraint.LevelRHS(lat.Top()))
	res2 := MustSolve(s2, Options{})
	if res2.Assignment[x] != lat.Top() {
		t.Error("forced top not applied")
	}
}

// TestSelfLoopSCC exercises an attribute alone in a cycle with itself via
// a two-node cycle a->b->a plus constants.
func TestTwoNodeCycle(t *testing.T) {
	lat := lattice.MustChain("c", "U", "S", "TS")
	s := constraint.NewSet(lat)
	a, b := s.MustAttr("a"), s.MustAttr("b")
	s.MustAdd([]constraint.Attr{a}, constraint.AttrRHS(b))
	s.MustAdd([]constraint.Attr{b}, constraint.AttrRHS(a))
	sLvl, _ := lat.ParseLevel("S")
	s.MustAdd([]constraint.Attr{a}, constraint.LevelRHS(sLvl))
	res := MustSolve(s, Options{})
	if res.Assignment[a] != sLvl || res.Assignment[b] != sLvl {
		t.Fatalf("cycle must pin both at S: %s", s.FormatAssignment(res.Assignment))
	}
}

// TestComplexCycleNondisjoint reproduces the §3.2 discussion of
// intersecting left-hand sides entangled in a cycle: three constraints
// whose lhs pairs {A,B},{B,C},{A,C} all must reach Secret.
func TestComplexIntersectingLHS(t *testing.T) {
	lat := lattice.MustChain("c", "U", "S", "TS")
	s := constraint.NewSet(lat)
	a, b, c := s.MustAttr("a"), s.MustAttr("b"), s.MustAttr("c")
	sLvl, _ := lat.ParseLevel("S")
	s.MustAdd([]constraint.Attr{a, b}, constraint.LevelRHS(sLvl))
	s.MustAdd([]constraint.Attr{b, c}, constraint.LevelRHS(sLvl))
	s.MustAdd([]constraint.Attr{a, c}, constraint.LevelRHS(sLvl))
	res := MustSolve(s, Options{})
	if v := s.Violations(res.Assignment); v != nil {
		t.Fatalf("violations: %v", v)
	}
	min, err := baseline.IsMinimal(s, res.Assignment)
	if err != nil {
		t.Fatal(err)
	}
	if !min {
		t.Fatalf("non-minimal: %s", s.FormatAssignment(res.Assignment))
	}
	// As the paper notes, one constraint necessarily has both attributes
	// upgraded: at least two of the three attributes are at S.
	atS := 0
	for _, l := range res.Assignment {
		if l == sLvl {
			atS++
		}
	}
	if atS < 2 {
		t.Errorf("expected at least two attributes at S, got %s", s.FormatAssignment(res.Assignment))
	}
}

// TestStats sanity-checks operation counting.
func TestStats(t *testing.T) {
	f := constraint.NewFigure2()
	res := MustSolve(f.Set, Options{})
	if res.Stats.Tries != 7 || res.Stats.FailedTries != 2 {
		t.Errorf("stats = %+v, want 7 tries / 2 failures", res.Stats)
	}
	if res.Stats.MinlevelCalls != 2 { // I and D
		t.Errorf("minlevel calls = %d, want 2", res.Stats.MinlevelCalls)
	}
}

// TestFigure2Table prints the reproduced Figure 2(b) table when -v is set,
// as living documentation.
func TestFigure2Table(t *testing.T) {
	f := constraint.NewFigure2()
	res := MustSolve(f.Set, Options{RecordTrace: true})
	table := res.Trace.Table()
	rows := strings.Count(table, "\n")
	if rows < 14 { // initial + 11 attributes' worth of steps + header
		t.Errorf("table suspiciously short (%d rows):\n%s", rows, table)
	}
	t.Logf("Figure 2(b) reproduction:\n%s", table)
}

// TestLargeAcyclicSmoke solves a larger instance to exercise the scaling
// path under `go test` (full scaling curves live in the benchmarks).
func TestLargeAcyclicSmoke(t *testing.T) {
	lat := lattice.MustMLS("mls", []string{"U", "C", "S", "TS"},
		[]string{"a", "b", "c", "d", "e", "f", "g", "h"})
	s := workload.MustConstraints(lat, workload.ConstraintSpec{
		Seed: 1, NumAttrs: 2000, NumConstraints: 6000, MaxLHS: 3,
		LevelRHSFraction: 0.3,
	})
	res := MustSolve(s, Options{})
	if v := s.Violations(res.Assignment); v != nil {
		t.Fatalf("violations on large instance: %v", v[:min(3, len(v))])
	}
}

// TestTraceOffByDefault ensures no trace is recorded unless requested.
func TestTraceOffByDefault(t *testing.T) {
	f := constraint.NewFigure2()
	if res := MustSolve(f.Set, Options{}); res.Trace != nil {
		t.Error("trace recorded without RecordTrace")
	}
}

func ExampleSolve() {
	lat := lattice.MustChain("mil", "U", "C", "S", "TS")
	set := constraint.NewSet(lat)
	if err := set.ParseString(`
salary >= C
lub(name, salary) >= TS
rank >= salary
`); err != nil {
		panic(err)
	}
	res, err := Solve(set, Options{})
	if err != nil {
		panic(err)
	}
	fmt.Println(set.FormatAssignment(res.Assignment))
	// Output: name=TS rank=C salary=C
}

// TestTryGenerationWrap runs a solve whose Try generation counter wraps
// around mid-solve, with every Tocheck/Tolower stamp poisoned to the
// first generation after the wrap: the wrap must clear them, so the
// result and every count equal a fresh solve's.
func TestTryGenerationWrap(t *testing.T) {
	lat := lattice.FigureOneB()
	s := workload.MustConstraints(lat, workload.ConstraintSpec{
		Seed: 3, NumAttrs: 40, NumConstraints: 100, MaxLHS: 3,
		LevelRHSFraction: 0.3, Cyclic: true,
	})
	c := s.Compile()
	ctx := context.Background()
	want, err := SolveContext(ctx, c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if want.Stats.Tries < 8 {
		t.Fatalf("instance makes only %d Try calls; the wrap needs more", want.Stats.Tries)
	}

	sv := acquireSession(ctx, c, Options{})
	defer sv.release()
	sv.tryGen = math.MaxUint32 - 3
	for _, m := range []*levelMarks{&sv.tocheck, &sv.tolower} {
		for a := range m.stamp {
			m.stamp[a] = 1
			m.level[a] = lat.Bottom()
		}
	}
	if err := sv.run(); err != nil {
		t.Fatal(err)
	}
	if sv.tryGen >= math.MaxUint32-3 {
		t.Fatalf("tryGen = %d: the counter never wrapped", sv.tryGen)
	}
	if !sv.lambda.Equal(want.Assignment) {
		t.Fatalf("assignment across the wrap:\n got %s\nwant %s", s.FormatAssignment(sv.lambda), s.FormatAssignment(want.Assignment))
	}
	got, ref := sv.stats, want.Stats
	got.Duration, got.PoolHit, ref.Duration, ref.PoolHit = 0, false, 0, false
	if got != ref {
		t.Fatalf("stats across the wrap = %+v, want %+v", got, ref)
	}
}
