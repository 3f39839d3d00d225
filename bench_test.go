package minup

// Benchmarks for the reproduction experiments of DESIGN.md, one family per
// table/figure claim; `go run ./cmd/benchtab` prints the same measurements
// as derived tables (with shape metrics like ns/S and search-node counts),
// and EXPERIMENTS.md records paper-claim versus measured results.
//
//	E1 BenchmarkFigure2                 Figure 2 worked example
//	E2 BenchmarkAcyclicScaling          Theorem 5.2 acyclic O(S·c)
//	E3 BenchmarkCyclicScaling           Theorem 5.2 cyclic worst case
//	E4 BenchmarkLatticeOps / Encoding   §5 lattice-operation cost
//	E5 BenchmarkVsQian                  minimal vs. overclassifying baseline
//	E6 BenchmarkVsBacktracking          §3.2 rejected alternative
//	E7 BenchmarkMinPoset                Theorem 6.1 NP-hardness contrast
//	E8 BenchmarkUpperBounds             §6 preprocessing
//	   BenchmarkMinlevelFastPath        footnote-4 ablation

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"minup/internal/baseline"
	"minup/internal/catalog"
	"minup/internal/constraint"
	"minup/internal/core"
	"minup/internal/frontend/depinf"
	"minup/internal/frontend/frontendtest"
	"minup/internal/frontend/suppress"
	"minup/internal/lattice"
	"minup/internal/poset"
	"minup/internal/wal"
	"minup/internal/workload"
)

// BenchmarkFigure2 (E1) solves the paper's worked example.
func BenchmarkFigure2(b *testing.B) {
	f := constraint.NewFigure2()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := core.MustSolve(f.Set, core.Options{})
		if !res.Assignment.Equal(f.Want) {
			b.Fatal("wrong answer")
		}
	}
}

// BenchmarkAcyclicScaling (E2) solves acyclic sets of doubling size; the
// reported S metric lets ns/S be read off across sub-benchmarks.
func BenchmarkAcyclicScaling(b *testing.B) {
	lat := lattice.MustMLS("mls", []string{"U", "C", "S", "TS"},
		[]string{"a", "b", "c", "d", "e", "f", "g", "h"})
	for _, n := range []int{1000, 4000, 16000} {
		s := workload.MustConstraints(lat, workload.ConstraintSpec{
			Seed: 42, NumAttrs: n, NumConstraints: 3 * n, MaxLHS: 3,
			LevelRHSFraction: 0.3,
		})
		b.Run(fmt.Sprintf("S=%d", s.TotalSize()), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				core.MustSolve(s, core.Options{})
			}
			b.ReportMetric(float64(s.TotalSize()), "S")
		})
	}
}

// BenchmarkCyclicScaling (E3) solves the adversarial single-SCC ring whose
// Try calls traverse the entire component — the quadratic worst case.
func BenchmarkCyclicScaling(b *testing.B) {
	lat := lattice.FigureOneB()
	mid, _ := lat.ParseLevel("L3")
	for _, n := range []int{64, 256, 1024} {
		s := constraint.NewSet(lat)
		attrs := make([]constraint.Attr, n)
		for i := range attrs {
			attrs[i] = s.MustAttr(fmt.Sprintf("r%04d", i))
		}
		for i := range attrs {
			s.MustAdd([]constraint.Attr{attrs[i]}, constraint.AttrRHS(attrs[(i+1)%n]))
		}
		s.MustAdd([]constraint.Attr{attrs[0]}, constraint.LevelRHS(mid))
		b.Run(fmt.Sprintf("ring/N=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			var st core.Stats
			for i := 0; i < b.N; i++ {
				st = core.MustSolve(s, core.Options{}).Stats
			}
			b.ReportMetric(float64(st.TrySteps), "checks")
		})
	}
}

// BenchmarkLatticeOps (E4) measures single lattice operations across the
// encoded explicit lattice, the naive Hasse-walking wrapper, and the
// bit-vector MLS lattice.
func BenchmarkLatticeOps(b *testing.B) {
	base, err := workload.RandomSublattice(3, 9, 40)
	if err != nil {
		b.Fatal(err)
	}
	elems := base.Elements()
	a1 := elems[len(elems)/3]
	a2 := elems[2*len(elems)/3]
	run := func(name string, l lattice.Lattice, x, y lattice.Level) {
		b.Run(name+"/dominates", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				l.Dominates(x, y)
			}
		})
		b.Run(name+"/lub", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				l.Lub(x, y)
			}
		})
		b.Run(name+"/glb", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				l.Glb(x, y)
			}
		})
	}
	run("encoded", base, a1, a2)
	run("naive", lattice.NaiveOps{Explicit: base}, a1, a2)
	mls := lattice.MustMLS("m", []string{"U", "C", "S", "TS"},
		[]string{"a", "b", "c", "d", "e", "f", "g", "h"})
	m1, _ := mls.LevelFromParts(2, 0xa5)
	m2, _ := mls.LevelFromParts(1, 0x3c)
	run("mls", mls, m1, m2)
}

// BenchmarkEncodingEndToEnd (E4) solves the same instance with encoded and
// naive lattice operations.
func BenchmarkEncodingEndToEnd(b *testing.B) {
	base, err := workload.RandomSublattice(3, 8, 24)
	if err != nil {
		b.Fatal(err)
	}
	spec := workload.ConstraintSpec{
		Seed: 5, NumAttrs: 60, NumConstraints: 120, MaxLHS: 3,
		LevelRHSFraction: 0.3, Cyclic: true,
	}
	b.Run("encoded", func(b *testing.B) {
		s := workload.MustConstraints(base, spec)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			core.MustSolve(s, core.Options{})
		}
	})
	b.Run("naive", func(b *testing.B) {
		s := workload.MustConstraints(lattice.NaiveOps{Explicit: base}, spec)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			core.MustSolve(s, core.Options{})
		}
	})
}

// BenchmarkVsQian (E5) compares Algorithm 3.1 with the overclassifying
// polynomial propagation on the same instance.
func BenchmarkVsQian(b *testing.B) {
	lat := lattice.MustMLS("mls", []string{"U", "C", "S", "TS"},
		[]string{"a", "b", "c", "d", "e", "f"})
	s := workload.MustConstraints(lat, workload.ConstraintSpec{
		Seed: 11, NumAttrs: 800, NumConstraints: 1600, MaxLHS: 3,
		LevelRHSFraction: 0.35, Cyclic: true,
	})
	b.Run("alg3.1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.MustSolve(s, core.Options{})
		}
	})
	b.Run("qian", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := baseline.Qian(context.Background(), s); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkVsBacktracking (E6) pits Algorithm 3.1 against the §3.2
// rejected alternative on entangled complex cycles.
func BenchmarkVsBacktracking(b *testing.B) {
	lat := lattice.MustChain("mil", "U", "C", "S", "TS")
	sLvl, _ := lat.ParseLevel("S")
	build := func(k, w int) *constraint.Set {
		s := constraint.NewSet(lat)
		n := k + w
		attrs := make([]constraint.Attr, n)
		for i := range attrs {
			attrs[i] = s.MustAttr(fmt.Sprintf("x%02d", i))
		}
		for i := range attrs {
			s.MustAdd([]constraint.Attr{attrs[i]}, constraint.AttrRHS(attrs[(i+1)%n]))
		}
		for i := 0; i < k; i++ {
			lhs := make([]constraint.Attr, w)
			for j := 0; j < w; j++ {
				lhs[j] = attrs[(i+j)%n]
			}
			s.MustAdd(lhs, constraint.LevelRHS(sLvl))
		}
		return s
	}
	for _, k := range []int{4, 8, 10} {
		s := build(k, 3)
		b.Run(fmt.Sprintf("alg3.1/k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.MustSolve(s, core.Options{})
			}
		})
		b.Run(fmt.Sprintf("backtracking/k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := baseline.Backtracking(s, 1<<30); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMinPoset (E7) solves Theorem 6.1 reduction instances of growing
// size; the lattice sub-benchmarks solve same-attribute-count lattice
// instances for contrast.
func BenchmarkMinPoset(b *testing.B) {
	lat := lattice.FigureOneB()
	for _, n := range []int{6, 10, 14} {
		inst, err := workload.RandomSAT3(int64(n), n, int(4.3*float64(n)))
		if err != nil {
			b.Fatal(err)
		}
		clauses := make([]poset.Clause, len(inst.Clauses))
		for i, c := range inst.Clauses {
			clauses[i] = poset.Clause{c[0], c[1], c[2]}
		}
		red, err := poset.Reduce(n, clauses)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("poset/vars=%d", n), func(b *testing.B) {
			var nodes int
			for i := 0; i < b.N; i++ {
				_, st, err := red.Instance.Solve(0)
				if err != nil {
					b.Fatal(err)
				}
				nodes = st.Nodes
			}
			b.ReportMetric(float64(nodes), "nodes")
		})
		attrs := len(red.Instance.AttrNames)
		ls := workload.MustConstraints(lat, workload.ConstraintSpec{
			Seed: int64(n), NumAttrs: attrs, NumConstraints: 2 * attrs,
			MaxLHS: 3, LevelRHSFraction: 0.3, Cyclic: true,
		})
		b.Run(fmt.Sprintf("lattice/attrs=%d", attrs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.MustSolve(ls, core.Options{})
			}
		})
	}
}

// BenchmarkUpperBounds (E8) measures the §6 preprocessing pass and the
// full bounded solve.
func BenchmarkUpperBounds(b *testing.B) {
	lat := lattice.MustMLS("mls", []string{"U", "C", "S", "TS"},
		[]string{"a", "b", "c", "d", "e", "f"})
	s := workload.MustConstraints(lat, workload.ConstraintSpec{
		Seed: 9, NumAttrs: 4000, NumConstraints: 12000, MaxLHS: 3,
		LevelRHSFraction: 0.35,
	})
	sol := core.MustSolve(s, core.Options{}).Assignment
	for i, a := range s.Attrs() {
		if i%4 == 0 {
			s.MustAddUpper(a, sol[a])
		}
	}
	b.Run("preprocess", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.DeriveUpperBounds(s); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("solve", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Solve(s, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMinlevelFastPath (ablation) compares the footnote-4 closed form
// against the generic lattice descent on a compartmented lattice.
func BenchmarkMinlevelFastPath(b *testing.B) {
	lat := lattice.MustMLS("mls", []string{"U", "C", "S", "TS"},
		[]string{"a", "b", "c", "d", "e", "f", "g", "h"})
	s := workload.MustConstraints(lat, workload.ConstraintSpec{
		Seed: 3, NumAttrs: 1000, NumConstraints: 2500, MaxLHS: 4,
		LevelRHSFraction: 0.3, Cyclic: true,
	})
	b.Run("footnote4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.MustSolve(s, core.Options{})
		}
	})
	b.Run("generic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.MustSolve(s, core.Options{DisableMinComplement: true})
		}
	})
}

// BenchmarkSimpleCycleCollapse (ablation) measures the §3.2 simple-cycle
// optimization on the ring worst case: collapse turns the quadratic
// forward-lowering into one linear pass.
func BenchmarkSimpleCycleCollapse(b *testing.B) {
	lat := lattice.FigureOneB()
	mid, _ := lat.ParseLevel("L3")
	for _, n := range []int{256, 1024} {
		s := constraint.NewSet(lat)
		attrs := make([]constraint.Attr, n)
		for i := range attrs {
			attrs[i] = s.MustAttr(fmt.Sprintf("r%04d", i))
		}
		for i := range attrs {
			s.MustAdd([]constraint.Attr{attrs[i]}, constraint.AttrRHS(attrs[(i+1)%n]))
		}
		s.MustAdd([]constraint.Attr{attrs[0]}, constraint.LevelRHS(mid))
		b.Run(fmt.Sprintf("general/N=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.MustSolve(s, core.Options{})
			}
		})
		b.Run(fmt.Sprintf("collapse/N=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.MustSolve(s, core.Options{CollapseSimpleCycles: true})
			}
		})
	}
}

// BenchmarkRepair measures incremental repair against a full re-solve in
// the scenario repair exists for: an instance with an expensive cyclic
// region that the added constraint does not touch. A policy change local
// to the acyclic tail must not pay to re-solve the ring. (On dense
// instances whose dependency closure covers most attributes, repair
// degrades to roughly a full solve plus a linear scan — see
// TestRepairRandom for the correctness side.)
func BenchmarkRepair(b *testing.B) {
	lat := lattice.FigureOneB()
	mid, _ := lat.ParseLevel("L3")
	s := constraint.NewSet(lat)
	// Expensive region: the E3 worst-case ring.
	const ringN = 1024
	ring := make([]constraint.Attr, ringN)
	for i := range ring {
		ring[i] = s.MustAttr(fmt.Sprintf("r%04d", i))
	}
	for i := range ring {
		s.MustAdd([]constraint.Attr{ring[i]}, constraint.AttrRHS(ring[(i+1)%ringN]))
	}
	s.MustAdd([]constraint.Attr{ring[0]}, constraint.LevelRHS(mid))
	// Independent acyclic tail of 100 attributes.
	tail := make([]constraint.Attr, 100)
	for i := range tail {
		tail[i] = s.MustAttr(fmt.Sprintf("t%03d", i))
		if i > 0 {
			s.MustAdd([]constraint.Attr{tail[i]}, constraint.AttrRHS(tail[i-1]))
		}
	}
	base := core.MustSolve(s, core.Options{}).Assignment
	n := len(s.Constraints())
	// The policy change touches only the tail.
	l4, _ := lat.ParseLevel("L4")
	s.MustAdd([]constraint.Attr{tail[0]}, constraint.LevelRHS(l4))
	if _, st, err := core.Repair(s, n, base, core.RepairOptions{}); err != nil ||
		st.ViolatedConstraints == 0 || st.Recomputed >= ringN {
		b.Fatalf("bench setup: repair shape wrong (%v, %+v)", err, st)
	}
	b.Run("repair", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := core.Repair(s, n, base, core.RepairOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("full-resolve", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.MustSolve(s, core.Options{})
		}
	})
}

// BenchmarkLHSWidth sweeps complex-constraint width at fixed S, probing
// how association arity affects solve cost.
func BenchmarkLHSWidth(b *testing.B) {
	lat := lattice.MustMLS("mls", []string{"U", "C", "S", "TS"},
		[]string{"a", "b", "c", "d", "e", "f"})
	for _, w := range []int{1, 2, 4, 8} {
		s := workload.MustConstraints(lat, workload.ConstraintSpec{
			Seed: 17, NumAttrs: 1000, NumConstraints: 4000 / w, MaxLHS: w,
			LevelRHSFraction: 0.35, Cyclic: true,
		})
		b.Run(fmt.Sprintf("w=%d/S=%d", w, s.TotalSize()), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.MustSolve(s, core.Options{})
			}
		})
	}
}

// BenchmarkProbeMinimality measures the polynomial minimality certifier
// relative to the solve it certifies.
func BenchmarkProbeMinimality(b *testing.B) {
	lat := lattice.MustMLS("mls", []string{"U", "S", "TS"}, []string{"a", "b", "c", "d"})
	s := workload.MustConstraints(lat, workload.ConstraintSpec{
		Seed: 4, NumAttrs: 500, NumConstraints: 1200, MaxLHS: 3,
		LevelRHSFraction: 0.3, Cyclic: true,
	})
	sol := core.MustSolve(s, core.Options{}).Assignment
	b.Run("solve", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.MustSolve(s, core.Options{})
		}
	})
	b.Run("probe", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			minimal, _, err := core.ProbeMinimality(s, sol)
			if err != nil || !minimal {
				b.Fatalf("probe: %v %v", minimal, err)
			}
		}
	})
}

// BenchmarkSolveFacade exercises the public API end to end (parse +
// solve), the path a downstream user hits.
func BenchmarkSolveFacade(b *testing.B) {
	lat := MustChainLattice("mil", "U", "C", "S", "TS")
	text := `
salary >= C
lub(name, salary) >= TS
bonus >= salary
S >= rank
`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		set := NewConstraintSet(lat)
		if err := set.ParseString(text); err != nil {
			b.Fatal(err)
		}
		if _, err := Solve(set, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// solveBenchSet builds the instance shared by BenchmarkSolveFresh and
// BenchmarkSolveCompiled: a mid-sized cyclic set, the shape where repeated
// solving of one policy is the realistic hot path.
func solveBenchSet(b *testing.B) *ConstraintSet {
	b.Helper()
	lat := MustChainLattice("mil", "U", "C", "S", "TS")
	set, err := workload.Constraints(lat, workload.ConstraintSpec{
		Seed: 11, NumAttrs: 50, NumConstraints: 150, MaxLHS: 3,
		LevelRHSFraction: 0.3, Cyclic: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	return set
}

// BenchmarkSolveFresh measures the one-shot path: every iteration pays for
// a throwaway compilation (graph, SCCs, priorities) before solving.
func BenchmarkSolveFresh(b *testing.B) {
	set := solveBenchSet(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(set, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveCompiled measures the compile/solve split: compilation is
// paid once outside the loop and each iteration runs a pooled session
// against the immutable snapshot. Its allocs/op is the zero-cost-telemetry
// guard: with no event log passed it must not move when the instrumentation
// changes.
func BenchmarkSolveCompiled(b *testing.B) {
	set := solveBenchSet(b)
	compiled := Compile(set)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveContext(ctx, compiled, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCatalogServe measures the policy catalog's serve path on the
// same instance as BenchmarkSolveCompiled: a warm (memoized) Serve per
// iteration — the steady state of GET /policies/{name}/solve on an
// unchanged policy, which must perform zero compiles and zero full solves.
// A hit formats nothing: what is left is the catalog lookup and copying
// the version's pointers.
func BenchmarkCatalogServe(b *testing.B) {
	set := solveBenchSet(b)
	var text strings.Builder
	if _, err := set.WriteTo(&text); err != nil {
		b.Fatal(err)
	}
	cat, err := catalog.Open(catalog.Options{})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	// A waited Put leaves the cache warm deterministically.
	if _, err := cat.Put(ctx, "bench", "chain mil\nlevels U C S TS\n", text.String(), catalog.Unconditional, catalog.MutateOptions{Wait: true}); err != nil {
		b.Fatal(err)
	}
	if _, err := cat.Serve(ctx, "bench", catalog.SolveOptions{}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := cat.Serve(ctx, "bench", catalog.SolveOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if !res.CacheHit {
			b.Fatal("catalog serve missed the cache")
		}
	}
}

// BenchmarkCatalogMutate measures the catalog mutation rung: each
// iteration is a waited Put of a small fixed policy and a waited one-line
// Append to it, on a one-shard memory-only catalog. Each mutation stages
// its version, commits it to the store and solves it inline, and none
// starts a background refresh, so every iteration does the same work;
// with compaction off its allocs/op are exact.
func BenchmarkCatalogMutate(b *testing.B) {
	const (
		benchLat  = "chain mil\nlevels U C S TS\n"
		benchCons = "attrs salary rank\nsalary >= rank\nrank >= S\n"
	)
	cat, err := catalog.Open(catalog.Options{Shards: 1, SnapshotEvery: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer cat.Close()
	ctx := context.Background()
	wait := catalog.MutateOptions{Wait: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cat.Put(ctx, "bench", benchLat, benchCons, catalog.Unconditional, wait); err != nil {
			b.Fatal(err)
		}
		if _, err := cat.Append(ctx, "bench", "bonus >= salary\n", catalog.Unconditional, wait); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCatalogMutateParallel measures durable mutation throughput as
// the shard count grows: concurrent writers, each owning its own policy,
// append constraint lines (with a periodic Put reset to keep the texts
// bounded) against a WAL-backed catalog with fsync off. At one shard every
// writer contends on a single mutex and a single log; with the name-hashed
// shards the writers spread out, so throughput at 4 shards must beat the
// 1-shard number by at least 2x on a multicore machine. The solver refresh
// runs on the shard workers and is deliberately outside the measured
// mutation latency.
func BenchmarkCatalogMutateParallel(b *testing.B) {
	const (
		benchLat  = "chain mil\nlevels U C S TS\n"
		benchCons = "attrs salary rank\nsalary >= rank\nrank >= S\n"
	)
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			cat, err := catalog.Open(catalog.Options{
				Dir:           b.TempDir(),
				Sync:          wal.SyncNever,
				Shards:        shards,
				SnapshotEvery: -1,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer cat.Close()
			ctx := context.Background()
			var ids atomic.Int64
			b.ReportAllocs()
			// Several writers per core: contention on the shard locks and
			// WAL files is the thing being measured, and GOMAXPROCS
			// goroutines alone would leave single-core machines with one
			// writer and nothing to contend.
			b.SetParallelism(4)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				name := fmt.Sprintf("w%03d", ids.Add(1))
				if _, err := cat.Put(ctx, name, benchLat, benchCons, catalog.Unconditional); err != nil {
					b.Fatal(err)
				}
				for i := 0; pb.Next(); i++ {
					if i%32 == 31 {
						if _, err := cat.Put(ctx, name, benchLat, benchCons, catalog.Unconditional); err != nil {
							b.Fatal(err)
						}
						continue
					}
					line := fmt.Sprintf("x%02d >= C\n", i%32)
					if _, err := cat.Append(ctx, name, line, catalog.Unconditional); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.StopTimer()
			if err := cat.Flush(ctx); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkSolveSuppress measures the compiled solve path on a
// cell-suppression frontend instance: a dense 12x12 cross-tab whose
// row/column lub constraints have the connectivity shape the paper-shaped
// random generator (solveBenchSet) never produces. Tracked next to
// BenchmarkSolveCompiled in BENCH_solve.json so a solver change that only
// hurts grid-shaped instances still trips the trend gate.
func BenchmarkSolveSuppress(b *testing.B) {
	tab, err := suppress.Generate(suppress.GenSpec{
		Seed: 7, Rows: 12, Cols: 12, Levels: 3, Density: 0.2,
	})
	if err != nil {
		b.Fatal(err)
	}
	c, err := suppress.Frontend{}.Compile(tab)
	if err != nil {
		b.Fatal(err)
	}
	set, err := constraint.ParsePolicy(c.LatticeText, c.ConstraintText)
	if err != nil {
		b.Fatal(err)
	}
	compiled := Compile(set)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveContext(ctx, compiled, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveDepinf measures the compiled solve path on a
// dependency-inference frontend instance: a deep layered DAG of denial
// dependencies, the long-chain propagation shape.
func BenchmarkSolveDepinf(b *testing.B) {
	rel, err := depinf.Generate(depinf.GenSpec{
		Seed: 7, Depth: 8, Width: 5, Fanout: 3, Levels: 4, Extra: 12,
	})
	if err != nil {
		b.Fatal(err)
	}
	c, err := depinf.Frontend{}.Compile(rel)
	if err != nil {
		b.Fatal(err)
	}
	set, err := constraint.ParsePolicy(c.LatticeText, c.ConstraintText)
	if err != nil {
		b.Fatal(err)
	}
	compiled := Compile(set)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveContext(ctx, compiled, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveShapes measures the cold solve of a compiled version of
// each shape perfbench's workloads solve, on TestPinnedAnswers' seed-1
// instances: append16 is the size-20 paper policy after 16 appended
// batches (replicated_write), paper67 the size-67 paper set, and suppress
// and depinf the policies of frontendtest.ColdCreate's instances (cold_create).
// A solve allocates only its result.
func BenchmarkSolveShapes(b *testing.B) {
	ctx := context.Background()
	for _, sh := range pinnedShapes {
		versions := sh.build(b, 1)
		compiled := versions[len(versions)-1].Snapshot()
		b.Run(sh.bench, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.SolveContext(ctx, compiled, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFrontendCompile measures what a problem create runs between
// the frontend's Parse and the catalog: the frontend's Compile of the
// parsed instance, which writes its lattice and constraint texts, on
// perfbench's cold_create instances. suppress validates the instance
// again; depinf reuses the lattice Parse validated.
func BenchmarkFrontendCompile(b *testing.B) {
	tab, rel := frontendtest.ColdCreate(b, 1)
	for _, tc := range []struct {
		name string
		fe   ProblemFrontend
		inst ProblemInstance
	}{
		{"suppress", suppress.Frontend{}, tab},
		{"depinf", depinf.Frontend{}, rel},
	} {
		raw, err := MarshalProblemInstance(tc.inst)
		if err != nil {
			b.Fatal(err)
		}
		if tc.inst, err = tc.fe.Parse(raw); err != nil {
			b.Fatal(err)
		}
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := tc.fe.Compile(tc.inst); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkProblemParse measures the first step of a problem create: the
// frontend's Parse of the instance JSON, Marshal's output for
// frontendtest.ColdCreate's instances, decoded and validated.
func BenchmarkProblemParse(b *testing.B) {
	tab, rel := frontendtest.ColdCreate(b, 1)
	for _, tc := range []struct {
		name string
		fe   ProblemFrontend
		inst ProblemInstance
	}{
		{"suppress", suppress.Frontend{}, tab},
		{"depinf", depinf.Frontend{}, rel},
	} {
		raw, err := MarshalProblemInstance(tc.inst)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := tc.fe.Parse(raw); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestDepinfParseBytes pins the bytes BenchmarkProblemParse/depinf's Parse
// allocates at 200 KiB: the instance's lists are copied out of pooled
// scratch at their final lengths rather than regrown while it is read.
// The race detector empties that pool at random.
func TestDepinfParseBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops values under the race detector")
	}
	_, rel := frontendtest.ColdCreate(t, 1)
	raw, err := MarshalProblemInstance(rel)
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 50
	fe := depinf.Frontend{}
	fe.Parse(raw)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := fe.Parse(raw); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if b := (after.TotalAlloc - before.TotalAlloc) / runs; b > 200<<10 {
		t.Fatalf("a depinf Parse allocates %d bytes, want at most %d", b, 200<<10)
	}
}

// coldCreatePolicies returns the source texts of perfbench's cold_create
// policies: a 402-attribute paper set and the texts
// frontendtest.ColdCreate's instances compile to.
func coldCreatePolicies(tb testing.TB) []struct{ name, lattice, constraints string } {
	paper, err := workload.GenerateFamily("paper", 1, 67)
	if err != nil {
		tb.Fatal(err)
	}
	tab, rel := frontendtest.ColdCreate(tb, 1)
	sup, err := suppress.Frontend{}.Compile(tab)
	if err != nil {
		tb.Fatal(err)
	}
	dep, err := depinf.Frontend{}.Compile(rel)
	if err != nil {
		tb.Fatal(err)
	}
	return []struct{ name, lattice, constraints string }{
		{"paper", paper.Lattice, paper.Constraints},
		{"suppress", sup.LatticeText, sup.ConstraintText},
		{"depinf", dep.LatticeText, dep.ConstraintText},
	}
}

// BenchmarkParsePolicy measures building a policy from its source texts
// the way the catalog does on every put, append, follower apply and WAL
// replay, with constraint.ParsePolicy, on coldCreatePolicies' texts.
func BenchmarkParsePolicy(b *testing.B) {
	for _, tc := range coldCreatePolicies(b) {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := constraint.ParsePolicy(tc.lattice, tc.constraints); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestParsePolicyAllocs bounds BenchmarkParsePolicy's allocations at 30
// per policy: every list and the name index are made once at the size the
// texts give them, the index from the attrs line, so none regrows while
// the constraints are read. The race detector's instrumentation moves
// some values to the heap, so it counts more.
func TestParsePolicyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates more")
	}
	for _, tc := range coldCreatePolicies(t) {
		n := testing.AllocsPerRun(20, func() {
			if _, err := constraint.ParsePolicy(tc.lattice, tc.constraints); err != nil {
				t.Fatal(err)
			}
		})
		if n > 30 {
			t.Errorf("%s: ParsePolicy allocates %v times, want at most 30", tc.name, n)
		}
	}
}

// BenchmarkAppendStage measures re-staging an append onto a version whose
// spare room an earlier stage already took, as every node does when it
// retries after a refused append: clone the version's set, which gets its
// arrays capped at their lengths, and parse the appended line into the
// clone, which copies the constraint list once. The set has
// replicated_write's shape, a size-20 paper policy plus 8 appended batches,
// so its constraints come from nine parses. BenchmarkAppendChain measures
// the common case, a stage onto the version the last stage made.
func BenchmarkAppendStage(b *testing.B) {
	fi, err := workload.GenerateFamily("paper", 1, 20)
	if err != nil {
		b.Fatal(err)
	}
	set, err := constraint.ParsePolicy(fi.Lattice, fi.Constraints)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	fresh := 0
	for i := 0; i < 8; i++ {
		set = set.Clone()
		if err := set.ParseString(appendBatch(rng, 120, &fresh)); err != nil {
			b.Fatal(err)
		}
	}
	const line = "lub(a000, a001) >= a002\n"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		next := set.Clone()
		if err := next.ParseString(line); err != nil {
			b.Fatal(err)
		}
	}
}

// appendHistory is the number of batches perfbench's replicated_write
// appends to a policy (its maxHistory) before a put replaces it.
const appendHistory = 16

// BenchmarkAppendChain measures what staging an append costs on every node
// in the common case: each iteration clones the version the previous
// iteration staged and parses a one-line append into the clone, which
// appends into the spare room its predecessor lent, as the catalog stages a
// stream of appends. Every appendHistory batches it starts over from a
// replicated_write-shaped set (a size-20 paper policy plus 8 appended
// batches) with no room to spare, as a put's freshly parsed set has none,
// so the first stage after each restart copies the constraint list.
func BenchmarkAppendChain(b *testing.B) {
	fi, err := workload.GenerateFamily("paper", 1, 20)
	if err != nil {
		b.Fatal(err)
	}
	base, err := constraint.ParsePolicy(fi.Lattice, fi.Constraints)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	fresh := 0
	for i := 0; i < 8; i++ {
		base = base.Clone()
		if err := base.ParseString(appendBatch(rng, 120, &fresh)); err != nil {
			b.Fatal(err)
		}
	}
	// The first Clone takes base's room, so every restart below gets
	// base's arrays capped at their lengths.
	_ = base.Clone()
	const line = "lub(a000, a001) >= a002\n"
	var cur *constraint.Set
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%appendHistory == 0 {
			cur = base.Clone()
		}
		next := cur.Clone()
		if err := next.ParseString(line); err != nil {
			b.Fatal(err)
		}
		cur = next
	}
}

// BenchmarkSolveCompiledStats measures the fully observed compiled path —
// lattice op counting, an event log, and registry aggregation all enabled —
// the upper bound a telemetry-heavy deployment pays relative to
// BenchmarkSolveCompiled. The log is reused, and grown by one solve before
// the timer starts, so it allocates nothing in the loop; it is unstamped,
// so it reads no clock.
func BenchmarkSolveCompiledStats(b *testing.B) {
	set := solveBenchSet(b)
	compiled := Compile(set)
	reg := NewMetricsRegistry()
	opt := Options{
		Events:            new(EventLog),
		CollectLatticeOps: true,
		Metrics:           reg,
	}
	ctx := context.Background()
	if _, err := SolveContext(ctx, compiled, opt); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveContext(ctx, compiled, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveCompiledTraced measures the span-instrumented path: a root
// span travels in the context, so the solve logs stamped events and every
// one becomes a leaf span under per-SCC children. The gap to BenchmarkSolveCompiled is the full
// price of request-scoped tracing; the untraced number itself must not
// move (see that benchmark's doc comment).
func BenchmarkSolveCompiledTraced(b *testing.B) {
	set := solveBenchSet(b)
	compiled := Compile(set)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		root := NewTracer().Start("request")
		ctx := ContextWithSpan(context.Background(), root)
		if _, err := SolveContext(ctx, compiled, Options{}); err != nil {
			b.Fatal(err)
		}
		root.End()
	}
}

// BenchmarkSolveCompiledTrace measures the Figure 2(b) trace: the solve's
// events instead of full assignment clones keep tracing linear in the
// number of events.
func BenchmarkSolveCompiledTrace(b *testing.B) {
	set := solveBenchSet(b)
	compiled := Compile(set)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveContext(ctx, compiled, Options{RecordTrace: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// refreshBench is the policy BenchmarkCompile, BenchmarkRefresh and
// BenchmarkRepairCompiled share, shaped like a policy of perfbench's
// replicated_write workload: a paper-family set of size 20 (120
// attributes, 360 constraints) plus twelve appended batches (the middle of
// that workload's 8..16 history), and one more batch that the base's
// minimal solution violates, so a repair of it has work to do.
type refreshBench struct {
	set       *constraint.Set       // base plus the violating batch
	baseCount int                   // constraints of the base
	base      constraint.Assignment // the base's solution, ⊥ for new attributes
}

func newRefreshBench(tb testing.TB) refreshBench {
	tb.Helper()
	fi, err := workload.GenerateFamily("paper", 1, 20)
	if err != nil {
		tb.Fatal(err)
	}
	lat, err := lattice.Parse(strings.NewReader(fi.Lattice))
	if err != nil {
		tb.Fatal(err)
	}
	set := constraint.NewSet(lat)
	if err := set.ParseString(fi.Constraints); err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	fresh := 0
	for i := 0; i < 12; i++ {
		if err := set.ParseString(appendBatch(rng, 120, &fresh)); err != nil {
			tb.Fatal(err)
		}
	}
	base := core.MustSolve(set, core.Options{}).Assignment
	for tries := 0; tries < 100; tries++ {
		ext := set.Clone()
		if err := ext.ParseString(appendBatch(rng, 120, &fresh)); err != nil {
			tb.Fatal(err)
		}
		seeded := base.Clone()
		for len(seeded) < ext.NumAttrs() {
			seeded = append(seeded, lat.Bottom())
		}
		if !ext.Satisfies(seeded) {
			return refreshBench{set: ext, baseCount: len(set.Constraints()), base: seeded}
		}
	}
	tb.Fatal("bench setup: no drawn batch violates the base solution")
	return refreshBench{}
}

// appendBatch draws 1..3 lower-bound constraint lines over the paper
// family's attribute names a000..a(attrs-1), sometimes on a fresh
// attribute, with the distribution of perfbench's appendText.
func appendBatch(rng *rand.Rand, attrs int, fresh *int) string {
	levels := []string{"U", "C", "S", "TS"}
	attr := func() int { return rng.Intn(attrs) }
	var b strings.Builder
	for i, n := 0, 1+rng.Intn(3); i < n; i++ {
		x := attr()
		lhs := fmt.Sprintf("a%03d", x)
		if rng.Intn(20) == 0 {
			lhs = fmt.Sprintf("n%04d", *fresh)
			*fresh++
			x = -1
		}
		y := -2
		if rng.Intn(3) == 0 {
			for y = attr(); y == x; y = attr() {
			}
			lhs = fmt.Sprintf("lub(%s, a%03d)", lhs, y)
		}
		if rng.Intn(3) == 0 {
			fmt.Fprintf(&b, "%s >= %s\n", lhs, levels[rng.Intn(len(levels))])
			continue
		}
		z := attr()
		for z == x || z == y {
			z = attr()
		}
		fmt.Fprintf(&b, "%s >= a%03d\n", lhs, z)
	}
	return b.String()
}

// BenchmarkCompile measures the one-time compile of a refreshed policy
// version (Set.Snapshot: digraph, Constr[A], SCCs and priorities), which
// every node pays once per mutation.
func BenchmarkCompile(b *testing.B) {
	rb := newRefreshBench(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c := rb.set.Snapshot(); c.NumAttrs() != rb.set.NumAttrs() {
			b.Fatal("snapshot lost attributes")
		}
	}
}

// TestCompileBytes pins the bytes BenchmarkCompile's compile allocates: a
// compile of newRefreshBench's version (123 attributes, 391 constraints)
// keeps the set view, Constr[A] as two int32 arrays, the priority
// numbering and the Compiled value, within 7 KiB. Its working storage
// comes from a pool, which the race detector empties at random.
func TestCompileBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops values under the race detector")
	}
	rb := newRefreshBench(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 100
	rb.set.Snapshot()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		rb.set.Snapshot()
	}
	runtime.ReadMemStats(&after)
	if b := (after.TotalAlloc - before.TotalAlloc) / runs; b > 7<<10 {
		t.Fatalf("a compile allocates %d bytes, want at most %d", b, 7<<10)
	}
}

// BenchmarkRefresh measures what the catalog's refresh does for every
// version: compile it once, then solve the snapshot cold.
func BenchmarkRefresh(b *testing.B) {
	rb := newRefreshBench(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.SolveContext(ctx, rb.set.Snapshot(), core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRepairCompiled measures the incremental alternative on the same
// version: compile it once, then repair the previous solution against
// that snapshot with minimality verified.
func BenchmarkRepairCompiled(b *testing.B) {
	rb := newRefreshBench(b)
	ctx := context.Background()
	opt := core.RepairOptions{VerifyMinimal: true}
	if _, st, err := core.RepairCompiled(ctx, rb.set.Snapshot(), rb.baseCount, rb.base, opt); err != nil ||
		st.ViolatedConstraints == 0 || st.FellBack {
		b.Fatalf("bench setup: repair shape wrong (%v, %+v)", err, st)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.RepairCompiled(ctx, rb.set.Snapshot(), rb.baseCount, rb.base, opt); err != nil {
			b.Fatal(err)
		}
	}
}
