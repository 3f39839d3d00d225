package core

import (
	"context"
	"errors"
	"testing"

	"minup/internal/constraint"
	"minup/internal/lattice"
)

const fuzzChain = "chain mil\nlevels U C S TS\n"

const fuzzExplicit = `explicit fig1b
elements 1 L1 L2 L3 L4 L5 L6
cover L6 L5 L4
cover L5 L3
cover L4 L2 L3
cover L3 L1
cover L2 L1
cover L1 1
`

// FuzzSolve drives arbitrary lattice and constraint text through the whole
// pipeline — parse, compile, solve — and holds the solver to its
// robustness contract: it never panics (a panic converted to ErrInternal
// is still a failure here), rejects unsolvable instances with a typed
// error, and any assignment it does return satisfies every constraint.
// Inputs are size-bounded so the fuzzer explores shapes, not scale.
func FuzzSolve(f *testing.F) {
	f.Add(fuzzChain, "a >= S\nlub(a, b) >= TS\nc >= a")
	f.Add(fuzzChain, "a >= b\nb >= c\nc >= a\nlub(a, c) >= S")
	f.Add(fuzzChain, "attrs x y z\nx >= y\nupper y C\nlub(x, z) >= TS")
	f.Add(fuzzExplicit, "a >= L3\nlub(a, b, c) >= L6\nb >= c")
	f.Add("mls m\nlevels S TS\ncategories army nuke\n", "a >= S\nlub(a, b) >= TS:army,nuke")
	f.Add("semilattice s\nelements A B C\ncover A B\ncover A C\n", "x >= B\nlub(x, y) >= A")
	f.Add("chain c\nlevels one\n", "a >= one")
	f.Add(fuzzChain, "")
	f.Add("", "a >= S")
	f.Fuzz(func(t *testing.T, latText, consText string) {
		if len(latText) > 2048 || len(consText) > 4096 {
			return
		}
		lat, err := lattice.ParseString(latText)
		if err != nil {
			return
		}
		// Keep the search in interesting territory: tiny lattices, small
		// constraint sets. An MLS lattice's element count is exponential in
		// its categories, so bound by height before enumerating anything.
		if lat.Height() > 16 {
			return
		}
		if en, ok := lat.(lattice.Enumerable); ok && len(en.Elements()) > 64 {
			return
		}
		s := constraint.NewSet(lat)
		if err := s.ParseString(consText); err != nil {
			return
		}
		if s.NumAttrs() > 64 || len(s.Constraints()) > 128 {
			return
		}
		c := s.Compile()
		res, err := SolveContext(context.Background(), c, Options{})
		if err != nil {
			if errors.Is(err, ErrInternal) {
				t.Fatalf("solver panicked on lat=%q cons=%q: %v", latText, consText, err)
			}
			if !errors.Is(err, ErrUnsolvable) {
				t.Fatalf("untyped solve error on lat=%q cons=%q: %v", latText, consText, err)
			}
			return
		}
		if verr := Verify(s, res.Assignment); verr != nil {
			t.Fatalf("solve of lat=%q cons=%q returned a non-satisfying assignment: %v", latText, consText, verr)
		}
		// Counting routes every lattice operation through the wrapper; on a
		// chain the plain solve makes them inline. Both must take the same
		// steps to the same answer.
		counted, err := SolveContext(context.Background(), c, Options{CollectLatticeOps: true})
		if err != nil {
			t.Fatalf("counted solve of lat=%q cons=%q: %v", latText, consText, err)
		}
		if !counted.Assignment.Equal(res.Assignment) || solveSteps(counted.Stats) != solveSteps(res.Stats) {
			t.Fatalf("lat=%q cons=%q: plain solve %v %+v, counted %v %+v", latText, consText,
				res.Assignment, solveSteps(res.Stats), counted.Assignment, solveSteps(counted.Stats))
		}
		// Solve, probe and repair are the three users of Try: the probe must
		// certify the solve, and a repair from a solution of the first half
		// of the constraints must be satisfying and certified minimal too.
		minimal, w, err := ProbeMinimalityContext(context.Background(), c, res.Assignment)
		if err != nil || !minimal {
			t.Fatalf("probe of the solve of lat=%q cons=%q: minimal=%v witness=%+v err=%v", latText, consText, minimal, w, err)
		}
		if c.HasUpperBounds() {
			return
		}
		half := len(s.Constraints()) / 2
		prefix := constraint.NewSet(lat)
		for _, a := range s.Attrs() {
			prefix.MustAttr(s.AttrName(a))
		}
		for _, cn := range s.Constraints()[:half] {
			prefix.MustAdd(cn.LHS, cn.RHS)
		}
		base, err := Solve(prefix, Options{})
		if err != nil {
			t.Fatalf("solve of the first %d constraints of lat=%q cons=%q: %v", half, latText, consText, err)
		}
		fixed, _, err := RepairCompiled(context.Background(), c, half, base.Assignment, RepairOptions{VerifyMinimal: true})
		if err != nil {
			t.Fatalf("repair of lat=%q cons=%q from %d constraints: %v", latText, consText, half, err)
		}
		if verr := Verify(s, fixed); verr != nil {
			t.Fatalf("repair of lat=%q cons=%q returned a non-satisfying assignment: %v", latText, consText, verr)
		}
		if minimal, w, err := ProbeMinimality(s, fixed); err != nil || !minimal {
			t.Fatalf("probe of the repair of lat=%q cons=%q: minimal=%v witness=%+v err=%v", latText, consText, minimal, w, err)
		}
	})
}

// solveSteps is st without what a solve's path may change: its lattice
// operation counts, its pool hit and its duration.
func solveSteps(st Stats) Stats {
	st.LatticeOps, st.PoolHit, st.Duration = lattice.OpCounts{}, false, 0
	return st
}
