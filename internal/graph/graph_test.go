package graph

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

// buildGraph constructs a digraph from an edge list over n nodes.
func buildGraph(n int, edges [][2]int) *Digraph {
	g := New(n)
	for _, e := range edges {
		g.AddEdge(e[0], e[1])
	}
	return g
}

func TestNewEmpty(t *testing.T) {
	g := New(0)
	if g.N() != 0 || g.M() != 0 {
		t.Fatalf("empty graph reports N=%d M=%d", g.N(), g.M())
	}
	if got := g.PostOrder(); len(got) != 0 {
		t.Fatalf("PostOrder on empty graph = %v", got)
	}
}

func TestAddEdgeAndAccessors(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(1, 2)
	if g.M() != 3 {
		t.Fatalf("M = %d, want 3", g.M())
	}
	if !reflect.DeepEqual(g.Succ(0), []int{1, 2}) {
		t.Errorf("Succ(0) = %v", g.Succ(0))
	}
	if !reflect.DeepEqual(g.Pred(2), []int{0, 1}) {
		t.Errorf("Pred(2) = %v", g.Pred(2))
	}
	if !g.HasEdge(0, 1) || g.HasEdge(1, 0) {
		t.Errorf("HasEdge wrong: 0->1 %v, 1->0 %v", g.HasEdge(0, 1), g.HasEdge(1, 0))
	}
}

func TestOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range node")
		}
	}()
	g := New(2)
	g.AddEdge(0, 5)
}

func TestReverse(t *testing.T) {
	g := buildGraph(4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	r := g.Reverse()
	if r.M() != g.M() {
		t.Fatalf("reverse edge count %d != %d", r.M(), g.M())
	}
	for u := 0; u < 4; u++ {
		for _, v := range g.Succ(u) {
			if !r.HasEdge(v, u) {
				t.Errorf("edge %d->%d missing from reverse", v, u)
			}
		}
	}
}

func TestPostOrderLine(t *testing.T) {
	// 0 -> 1 -> 2: finish order must be 2, 1, 0.
	g := buildGraph(3, [][2]int{{0, 1}, {1, 2}})
	got := g.PostOrder()
	want := []int{2, 1, 0}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("PostOrder = %v, want %v", got, want)
	}
}

func TestPostOrderVisitsAll(t *testing.T) {
	g := buildGraph(6, [][2]int{{0, 1}, {2, 3}, {4, 4}})
	got := g.PostOrder()
	if len(got) != 6 {
		t.Fatalf("PostOrder covers %d of 6 nodes: %v", len(got), got)
	}
	seen := map[int]bool{}
	for _, u := range got {
		if seen[u] {
			t.Fatalf("node %d appears twice in %v", u, got)
		}
		seen[u] = true
	}
}

func TestTopoSortDAG(t *testing.T) {
	g := buildGraph(5, [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 4}})
	order, ok := TopoSort(g)
	if !ok {
		t.Fatal("TopoSort reported cycle on a DAG")
	}
	pos := make([]int, 5)
	for i, u := range order {
		pos[u] = i
	}
	for u := 0; u < 5; u++ {
		for _, v := range g.Succ(u) {
			if pos[u] >= pos[v] {
				t.Errorf("edge %d->%d violates topo order %v", u, v, order)
			}
		}
	}
}

func TestTopoSortCycle(t *testing.T) {
	g := buildGraph(3, [][2]int{{0, 1}, {1, 2}, {2, 0}})
	if _, ok := TopoSort(g); ok {
		t.Fatal("TopoSort accepted a cyclic graph")
	}
	if IsAcyclic(g) {
		t.Fatal("IsAcyclic true for a 3-cycle")
	}
}

func TestIsAcyclicSelfLoop(t *testing.T) {
	g := buildGraph(2, [][2]int{{0, 0}})
	if IsAcyclic(g) {
		t.Fatal("self-loop not detected as cycle")
	}
}

func TestReachable(t *testing.T) {
	g := buildGraph(5, [][2]int{{0, 1}, {1, 2}, {3, 4}})
	r := Reachable(g, 0)
	want := []bool{true, true, true, false, false}
	if !reflect.DeepEqual(r, want) {
		t.Fatalf("Reachable(0) = %v, want %v", r, want)
	}
}

// partition returns a partition of the nodes as sorted member lists,
// ordered by their least member.
func partition(comps [][]int) [][]int {
	out := make([][]int, len(comps))
	for i, c := range comps {
		cc := append([]int(nil), c...)
		sort.Ints(cc)
		out[i] = cc
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

func TestSCCSimpleCycle(t *testing.T) {
	g := buildGraph(4, [][2]int{{0, 1}, {1, 2}, {2, 0}, {2, 3}})
	want := [][]int{{0, 1, 2}, {3}}
	pr := PrioritySCC(g)
	if got := partition(pr.Sets[1:]); !reflect.DeepEqual(got, want) {
		t.Errorf("kosaraju: components = %v, want %v", got, want)
	}
	if pr.Priority[0] != pr.Priority[2] || pr.Priority[0] == pr.Priority[3] {
		t.Errorf("kosaraju: priorities %v put 0, 2 and 3 in the wrong sets", pr.Priority)
	}
	tr := TarjanSCC(g)
	if got := partition(tr.Components); !reflect.DeepEqual(got, want) {
		t.Errorf("tarjan: components = %v, want %v", got, want)
	}
	if !tr.SameComponent(0, 2) || tr.SameComponent(0, 3) {
		t.Errorf("tarjan: SameComponent wrong")
	}
}

func TestSCCDisconnected(t *testing.T) {
	g := buildGraph(4, nil)
	if pr := PrioritySCC(g); pr.Max != 4 {
		t.Fatalf("4 isolated nodes give %d components", pr.Max)
	}
}

// TestPaperFigure2Priorities reproduces the SCC structure of the paper's
// Figure 2(a) constraint graph, using only attribute-to-attribute edges
// (edges into level constants do not affect SCCs). Node numbering:
// P=0 B=1 C=2 D=3 E=4 F=5 G=6 M=7 I=8 O=9 N=10.
func TestPaperFigure2Priorities(t *testing.T) {
	const (
		P, B, C, D, E, F, G, M, I, O, N = 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10
	)
	// Constraints with attribute rhs: ({E,F},M) (M,G)? -- in the paper M->G
	// is constraint (M,G) meaning λ(M) ≽ λ(G): edge M->G.
	edges := [][2]int{
		{E, M}, {F, M}, // ({E,F},M)
		{M, G},         // (M,G)
		{D, C}, {G, C}, // ({D,G},C)
		{C, E},         // (C,E)
		{C, F},         // (C,F)
		{F, B}, {I, B}, // ({F,I},B)
		{B, M}, // (B,M)
		{I, O}, // (I,O)
		{O, N}, // (O,N)
		{N, I}, // (N,I)
	}
	g := buildGraph(11, edges)
	pr := PrioritySCC(g)

	members := func(p int) []int { return pr.Sets[p] }
	// Expected component partition (priorities may permute among
	// incomparable components, so check the partition and property (3)).
	wantComps := map[int][]int{
		P: {P},
		D: {D},
		I: {I, O, N}, // ascending node order: 8, 9, 10
		B: {B, C, E, F, G, M},
	}
	for rep, want := range wantComps {
		got := members(pr.Priority[rep])
		if !reflect.DeepEqual(got, want) {
			t.Errorf("component of node %d = %v, want %v", rep, got, want)
		}
	}
	if pr.Max != 4 {
		t.Errorf("Max priority = %d, want 4", pr.Max)
	}
	// Property (3): priority(u) <= priority(v) for every reachable v.
	for u := 0; u < g.N(); u++ {
		reach := Reachable(g, u)
		for v, ok := range reach {
			if ok && pr.Priority[u] > pr.Priority[v] {
				t.Errorf("priority(%d)=%d > priority(%d)=%d but %d reaches %d",
					u, pr.Priority[u], v, pr.Priority[v], u, v)
			}
		}
	}
	// Dependency chains from the paper: D reaches C (via {D,G}->C) and I
	// reaches B (via {F,I}->B), so priority(D) < priority(C) and
	// priority(I) < priority(B); the paper's numbering [1]={D} [2]={I,O,N}
	// [3]={B,..,M} [4]={P} satisfies the same inequalities.
	if !(pr.Priority[D] < pr.Priority[C] && pr.Priority[I] < pr.Priority[B]) {
		t.Errorf("priorities D=%d C=%d I=%d B=%d violate dependency order",
			pr.Priority[D], pr.Priority[C], pr.Priority[I], pr.Priority[B])
	}
}

func randomGraph(rng *rand.Rand, n, m int) *Digraph {
	g := New(n)
	for i := 0; i < m; i++ {
		g.AddEdge(rng.Intn(n), rng.Intn(n))
	}
	return g
}

// TestKosarajuVsTarjan differentially tests the two SCC implementations on
// random graphs: PrioritySCC's sets are Tarjan's partition, and its
// numbering is a topological order of the condensation.
func TestKosarajuVsTarjan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(30)
		m := rng.Intn(3 * n)
		g := randomGraph(rng, n, m)
		k := PrioritySCC(g)
		tr := TarjanSCC(g)
		if !reflect.DeepEqual(partition(k.Sets[1:]), partition(tr.Components)) {
			t.Fatalf("trial %d: partitions differ\nkosaraju %v\ntarjan %v",
				trial, k.Sets[1:], tr.Components)
		}
		for _, e := range CondensationEdges(g, k) {
			if e[0] >= e[1] {
				t.Fatalf("trial %d: condensation edge %v not in discovery order", trial, e)
			}
		}
	}
}

// TestPriorityProperties property-tests the three priority-set properties
// claimed in §4 of the paper on random graphs.
func TestPriorityProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 150; trial++ {
		n := 1 + rng.Intn(25)
		g := randomGraph(rng, n, rng.Intn(3*n))
		pr := PrioritySCC(g)
		// (1) every node has exactly one priority in 1..Max.
		counts := make([]int, n)
		for p := 1; p <= pr.Max; p++ {
			for _, u := range pr.Sets[p] {
				counts[u]++
				if pr.Priority[u] != p {
					t.Fatalf("trial %d: Sets/Priority disagree for node %d", trial, u)
				}
			}
		}
		for u, c := range counts {
			if c != 1 {
				t.Fatalf("trial %d: node %d in %d priority sets", trial, u, c)
			}
		}
		// (2) same priority iff mutually reachable.
		reach := make([][]bool, n)
		for u := 0; u < n; u++ {
			reach[u] = Reachable(g, u)
		}
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				mutual := reach[u][v] && reach[v][u]
				same := pr.Priority[u] == pr.Priority[v]
				if mutual != same {
					t.Fatalf("trial %d: nodes %d,%d mutual=%v same-priority=%v",
						trial, u, v, mutual, same)
				}
				// (3) priority no greater than that of reachable nodes.
				if reach[u][v] && pr.Priority[u] > pr.Priority[v] {
					t.Fatalf("trial %d: property (3) violated for %d->%d", trial, u, v)
				}
			}
		}
	}
}

// TestPostOrderProperty checks via testing/quick that on random DAGs the
// post-order is a reverse topological order.
func TestPostOrderProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		g := New(n)
		// Random DAG: edges only from lower to higher node index.
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Intn(4) == 0 {
					g.AddEdge(u, v)
				}
			}
		}
		pos := make([]int, n)
		for i, u := range g.PostOrder() {
			pos[u] = i
		}
		for u := 0; u < n; u++ {
			for _, v := range g.Succ(u) {
				if pos[v] >= pos[u] {
					return false // successor must finish before u
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCondensationEdgesDedup(t *testing.T) {
	g := buildGraph(4, [][2]int{{0, 1}, {1, 0}, {0, 2}, {1, 2}, {2, 3}, {2, 3}})
	edges := CondensationEdges(g, PrioritySCC(g))
	if len(edges) != 2 {
		t.Fatalf("condensation edges = %v, want 2 deduped edges", edges)
	}
}

func BenchmarkPrioritySCC(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := randomGraph(rng, 10000, 30000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PrioritySCC(g)
	}
}

func BenchmarkTarjanSCC(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := randomGraph(rng, 10000, 30000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TarjanSCC(g)
	}
}

// TestFromEdgesMatchesAddEdge: the counted constructor builds the same
// Succ/Pred lists, in the same order, as AddEdge in yield order — on random
// edge lists with parallel edges, self-loops, isolated nodes and n = 0 —
// and an AddEdge on the built graph reallocates the list it grows instead
// of writing into a neighbour's window.
func TestFromEdgesMatchesAddEdge(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 500; trial++ {
		n := trial % 13 // every 13th trial has n = 0
		var edges [][2]int
		for i, m := 0, rng.Intn(2*n+1); i < m; i++ {
			e := [2]int{rng.Intn(n), rng.Intn(n)}
			edges = append(edges, e)
			if rng.Intn(4) == 0 {
				edges = append(edges, e) // parallel edge
			}
		}
		want := buildGraph(n, edges)
		list := make([][2]int32, len(edges))
		for i, e := range edges {
			list[i] = [2]int32{int32(e[0]), int32(e[1])}
		}
		got := FromEdges(n, list)
		same := func(stage string) {
			t.Helper()
			if got.N() != want.N() || got.M() != want.M() {
				t.Fatalf("trial %d %s: N, M = %d, %d; want %d, %d", trial, stage, got.N(), got.M(), want.N(), want.M())
			}
			for u := 0; u < n; u++ {
				if !reflect.DeepEqual(got.Succ(u), want.Succ(u)) || !reflect.DeepEqual(got.Pred(u), want.Pred(u)) {
					t.Fatalf("trial %d %s: node %d succ %v pred %v; want %v %v (edges %v)",
						trial, stage, u, got.Succ(u), got.Pred(u), want.Succ(u), want.Pred(u), edges)
				}
			}
		}
		same("built")
		if n == 0 {
			continue
		}
		for i := 0; i < 3; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			got.AddEdge(u, v)
			want.AddEdge(u, v)
			same(fmt.Sprintf("after AddEdge(%d, %d)", u, v))
		}
	}
}

// TestClosureMatchesReachable checks Closure against Reachable, the
// reference, on seeded random DAGs whose edges follow a shuffled node
// order (so index order is not a topological order) and whose sizes cross
// a word boundary, then checks that one back edge makes Closure report the
// cycle.
func TestClosureMatchesReachable(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(150)
		perm := rng.Perm(n)
		g := New(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Intn(n) < 2 {
					g.AddEdge(perm[i], perm[j])
				}
			}
		}
		order, up, down, ok := Closure(g)
		if !ok {
			t.Fatalf("trial %d: Closure reported a cycle on a DAG", trial)
		}
		pos := make([]int, n)
		for i, u := range order {
			pos[u] = i
		}
		for u := 0; u < n; u++ {
			for _, v := range g.Succ(u) {
				if pos[u] >= pos[v] {
					t.Fatalf("trial %d: edge %d->%d violates order %v", trial, u, v, order)
				}
			}
			reach := Reachable(g, u)
			for v := 0; v < n; v++ {
				if down[u].Has(v) != reach[v] || up[v].Has(u) != reach[v] {
					t.Fatalf("trial %d: %d reaches %d = %v, but down has it %v and up %v",
						trial, u, v, reach[v], down[u].Has(v), up[v].Has(u))
				}
			}
		}
		if n < 2 {
			continue
		}
		g.AddEdge(perm[n-1], perm[0])
		g.AddEdge(perm[0], perm[n-1])
		if _, up, down, ok := Closure(g); ok || up != nil || down != nil {
			t.Fatalf("trial %d: Closure accepted a cycle (ok=%v)", trial, ok)
		}
	}
}

// TestBits checks the set operations against a map on random sets that
// span two words.
func TestBits(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 100
	random := func() (Bits, map[int]bool) {
		b, m := NewBits(n), map[int]bool{}
		for i := 0; i < n; i++ {
			if rng.Intn(4) == 0 {
				b.Set(i)
				m[i] = true
			}
		}
		return b, m
	}
	for trial := 0; trial < 50; trial++ {
		a, am := random()
		b, bm := random()
		var members []int
		for x := range a.All() {
			members = append(members, x)
		}
		if len(members) != len(am) || !sort.IntsAreSorted(members) {
			t.Fatalf("All() = %v, want the %d members ascending", members, len(am))
		}
		c := a.And(b)
		sub, empty := true, true
		for i := 0; i < n; i++ {
			if a.Has(i) != am[i] || c.Has(i) != (am[i] && bm[i]) {
				t.Fatalf("member %d: Has=%v And=%v", i, a.Has(i), c.Has(i))
			}
			sub = sub && (!am[i] || bm[i])
			empty = empty && !(am[i] && bm[i])
		}
		if a.SubsetOf(b) != sub || !c.SubsetOf(a) || c.Empty() != empty {
			t.Fatalf("trial %d: SubsetOf or Empty disagrees", trial)
		}
		a.Or(b)
		for i := 0; i < n; i++ {
			if a.Has(i) != (am[i] || bm[i]) {
				t.Fatalf("Or: member %d = %v", i, a.Has(i))
			}
		}
	}
	if !NewBits(n).Empty() {
		t.Fatal("a new set is not empty")
	}
}

// TestSCCWorkReuse: one SCCWork, reused from larger graphs to smaller ones
// and back, numbers every graph as a fresh one does; what it returned
// earlier is unchanged by its later runs; and once warm, Priorities
// allocates only its three result arrays.
func TestSCCWorkReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var w SCCWork
	type run struct {
		pr, want *PriorityResult
	}
	var runs []run
	for trial := 0; trial < 100; trial++ {
		n := []int{40, 1, 0, 25, 3}[trial%5] + rng.Intn(5)
		g := randomGraph(rng, n, rng.Intn(3*n+1))
		w.Build(n, g.edges())
		pr, want := w.Priorities(), PrioritySCC(g)
		if !reflect.DeepEqual(pr, want) {
			t.Fatalf("trial %d: reused work numbered %v, a fresh one %v", trial, pr, want)
		}
		runs = append(runs, run{pr, want})
	}
	for i, r := range runs {
		if !reflect.DeepEqual(r.pr, r.want) {
			t.Fatalf("run %d changed after later runs to %v", i, r.pr)
		}
	}
	g := randomGraph(rng, 200, 600)
	w.Build(g.N(), g.edges())
	if allocs := testing.AllocsPerRun(10, func() { w.Priorities() }); allocs != 3 {
		t.Fatalf("warm Priorities allocated %.0f times, want 3", allocs)
	}
}
