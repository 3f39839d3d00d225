// Package graph provides generic directed-graph utilities shared by the
// constraint, lattice and poset machinery: adjacency storage, depth-first
// search, strongly connected component computation (the two-pass Kosaraju
// variant the paper's Main procedure uses, in reusable working storage, and
// Tarjan's one-pass algorithm as a differential-testing oracle), topological
// sorting, reachability, and the reflexive-transitive closure of a partial
// order as node bitsets (Closure), which explicit lattices and posets both
// build on.
//
// Nodes are dense non-negative integers assigned by the caller; this keeps
// the hot paths allocation-free and lets higher layers map attributes and
// security levels onto node indices however they like.
package graph

import (
	"fmt"
	"iter"
	"math/bits"
	"slices"
	"sort"
)

// Digraph is a directed graph over nodes 0..N-1 with adjacency lists.
// Parallel edges are permitted (callers that care deduplicate); self-loops
// are permitted and place their node in a singleton cyclic component.
type Digraph struct {
	succ [][]int // succ[u] = nodes v with an edge u -> v
	pred [][]int // pred[v] = nodes u with an edge u -> v
	m    int     // edge count
}

// New returns an empty digraph with n nodes and no edges.
func New(n int) *Digraph {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative node count %d", n))
	}
	return &Digraph{
		succ: make([][]int, n),
		pred: make([][]int, n),
	}
}

// FromEdges returns the digraph over n nodes with the edges u -> v listed
// in edges, passing over the list twice: once to count every node's out-
// and in-degree, once to fill the lists. Each direction's lists share one
// backing array, cut into one window per node whose capacity is capped at
// its degree, so a later AddEdge reallocates the list it grows and never
// writes into a neighbour's window. Lists come out in edge order, equal
// to those AddEdge calls in the same order would build; a node without
// edges keeps a nil list.
func FromEdges(n int, edges [][2]int32) *Digraph {
	g := New(n)
	deg := make([]int, 2*n) // out-degrees, then in-degrees
	for _, e := range edges {
		u, v := int(e[0]), int(e[1])
		g.check(u)
		g.check(v)
		deg[u]++
		deg[n+v]++
		g.m++
	}
	succ, pred := make([]int, g.m), make([]int, g.m)
	so, po := 0, 0
	for u := 0; u < n; u++ {
		if d := deg[u]; d > 0 {
			g.succ[u] = succ[so : so : so+d]
			so += d
		}
		if d := deg[n+u]; d > 0 {
			g.pred[u] = pred[po : po : po+d]
			po += d
		}
	}
	for _, e := range edges {
		u, v := int(e[0]), int(e[1])
		g.succ[u] = append(g.succ[u], v)
		g.pred[v] = append(g.pred[v], u)
	}
	return g
}

// N returns the number of nodes.
func (g *Digraph) N() int { return len(g.succ) }

// M returns the number of edges.
func (g *Digraph) M() int { return g.m }

// AddEdge inserts the directed edge u -> v.
func (g *Digraph) AddEdge(u, v int) {
	g.check(u)
	g.check(v)
	g.succ[u] = append(g.succ[u], v)
	g.pred[v] = append(g.pred[v], u)
	g.m++
}

// Succ returns the successor list of u. The returned slice is owned by the
// graph and must not be modified.
func (g *Digraph) Succ(u int) []int { g.check(u); return g.succ[u] }

// Pred returns the predecessor list of v. The returned slice is owned by the
// graph and must not be modified.
func (g *Digraph) Pred(v int) []int { g.check(v); return g.pred[v] }

func (g *Digraph) check(u int) {
	if u < 0 || u >= len(g.succ) {
		panic(fmt.Sprintf("graph: node %d out of range [0,%d)", u, len(g.succ)))
	}
}

// HasEdge reports whether an edge u -> v exists. Linear in out-degree of u;
// intended for tests and validation, not hot paths.
func (g *Digraph) HasEdge(u, v int) bool {
	for _, w := range g.Succ(u) {
		if w == v {
			return true
		}
	}
	return false
}

// Reverse returns a new graph with every edge direction flipped.
func (g *Digraph) Reverse() *Digraph {
	r := New(g.N())
	for u := range g.succ {
		for _, v := range g.succ[u] {
			r.AddEdge(v, u)
		}
	}
	return r
}

// edges lists the graph's edges u -> v, node by node in increasing order
// and each node's successors in list order.
func (g *Digraph) edges() [][2]int32 {
	edges := make([][2]int32, 0, g.m)
	for u, vs := range g.succ {
		for _, v := range vs {
			edges = append(edges, [2]int32{int32(u), int32(v)})
		}
	}
	return edges
}

// PostOrder returns the nodes in DFS finish order (earliest-finished first),
// visiting roots in increasing node order and successors in adjacency-list
// order. This is the order the paper's dfs_visit records on its Stack
// (Stack pops therefore consume the reverse of this slice), and the first
// pass of PrioritySCC.
func (g *Digraph) PostOrder() []int {
	var w SCCWork
	w.Build(g.N(), g.edges())
	w.postOrder()
	order := make([]int, len(w.post))
	for i, u := range w.post {
		order[i] = int(u)
	}
	return order
}

// SCCWork is the working storage of PrioritySCC: a digraph's adjacency in
// both directions in compressed sparse row form, and Kosaraju's DFS stack,
// post order and seen flags. Build and Priorities reuse its arrays and grow
// them only for a digraph larger than any before, so with a warm SCCWork
// Priorities allocates only the arrays it returns, which never alias the
// work's. The zero value is ready to use; an SCCWork serves one goroutine
// at a time.
type SCCWork struct {
	n int
	// soff and poff hold n+2 offsets: u's successors are
	// succ[soff[u]:soff[u+1]] and its predecessors pred[poff[u]:poff[u+1]],
	// each in edge order.
	soff, poff []int32
	succ, pred []int32
	seen       []bool
	post       []int32    // nodes in DFS finish order
	stack      [][2]int32 // DFS path: node, position of its next successor
}

// Build stores the digraph over n nodes with the edges u -> v listed in
// edges, replacing the one the work held. Like FromEdges it passes over
// the list twice, once to count every node's degrees and once to place
// the edges, each node's in list order.
func (w *SCCWork) Build(n int, edges [][2]int32) {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative node count %d", n))
	}
	w.n = n
	w.soff, w.poff = zeroed(w.soff, n+2), zeroed(w.poff, n+2)
	// Counts go two places up, so that after the prefix sums soff[u+1] is
	// u's first position and placing an edge advances it to u's end.
	for _, e := range edges {
		u, v := e[0], e[1]
		if uint(u) >= uint(n) || uint(v) >= uint(n) {
			panic(fmt.Sprintf("graph: edge %d -> %d out of range [0,%d)", u, v, n))
		}
		w.soff[u+2]++
		w.poff[v+2]++
	}
	for i := 2; i < n+2; i++ {
		w.soff[i] += w.soff[i-1]
		w.poff[i] += w.poff[i-1]
	}
	m := int(w.soff[n+1])
	w.succ, w.pred = slices.Grow(w.succ[:0], m)[:m], slices.Grow(w.pred[:0], m)[:m]
	for _, e := range edges {
		u, v := e[0], e[1]
		w.succ[w.soff[u+1]] = v
		w.soff[u+1]++
		w.pred[w.poff[v+1]] = u
		w.poff[v+1]++
	}
}

// zeroed returns b resized to n zeroed entries, reusing its array when it
// is large enough.
func zeroed[T any](b []T, n int) []T {
	b = slices.Grow(b[:0], n)[:n]
	clear(b)
	return b
}

// postOrder fills w.post with the nodes in DFS finish order, visiting
// roots in increasing node order and successors in edge order. The DFS
// keeps an explicit stack, so deep graphs cannot overflow the goroutine
// stack.
func (w *SCCWork) postOrder() {
	n := w.n
	seen := zeroed(w.seen, n)
	post := slices.Grow(w.post[:0], n)
	stack := slices.Grow(w.stack[:0], n)
	for root := range int32(n) {
		if seen[root] {
			continue
		}
		seen[root] = true
		stack = append(stack, [2]int32{root, w.soff[root]})
		for len(stack) > 0 {
			top := &stack[len(stack)-1]
			end := w.soff[top[0]+1]
			for top[1] < end && seen[w.succ[top[1]]] {
				top[1]++
			}
			if top[1] == end {
				post = append(post, top[0])
				stack = stack[:len(stack)-1]
				continue
			}
			v := w.succ[top[1]]
			top[1]++
			seen[v] = true
			stack = append(stack, [2]int32{v, w.soff[v]})
		}
	}
	w.seen, w.post, w.stack = seen, post, stack[:0]
}

// PrioritySCC computes SCCs together with the paper's priority numbering
// (§4): priority 1..P with the properties that (1) every node has exactly
// one priority, (2) two nodes share a priority iff they are mutually
// reachable, and (3) each node's priority is no greater than that of every
// node reachable from it. BigLoop then consumes priority sets in decreasing
// order. Priorities are 1-based as in the paper; Priority[u] gives node u's
// priority and Sets[p] lists the nodes with priority p (Sets[0] is unused).
func PrioritySCC(g *Digraph) *PriorityResult {
	var w SCCWork
	w.Build(g.N(), g.edges())
	return w.Priorities()
}

// Priorities computes PrioritySCC of the digraph Build stored, with the
// two-pass DFS scheme the paper adapts in Main (dfs_visit /
// dfs_back_visit): a forward DFS recording finish order, then a backward
// flood over nodes in decreasing finish time. The flood discovers the
// components in topological order of the condensation (sources first), so
// priority = discovery index + 1 makes every node's priority no greater
// than that of the nodes reachable from it (its dependencies), which is
// property (3). BigLoop then counts priorities downward, labeling sink
// components (which depend on nothing unlabeled) first — exactly the
// back-propagation order. The result takes three allocations: Priority and
// the member lists share one array, each set a window of it capped at its
// length and sorted ascending.
func (w *SCCWork) Priorities() *PriorityResult {
	n := w.n
	w.postOrder()
	buf := make([]int, 2*n)
	// A node's priority stays 0 until the flood reaches it. Each
	// component's nodes form one contiguous run of members, runs in
	// discovery order; the run being flooded doubles as its worklist.
	prio, members := buf[:n:n], buf[n:n]
	p := 0
	for i := n - 1; i >= 0; i-- {
		root := w.post[i]
		if prio[root] != 0 {
			continue
		}
		p++
		lo := len(members)
		prio[root] = p
		members = append(members, int(root))
		for j := lo; j < len(members); j++ {
			v := members[j]
			for _, u := range w.pred[w.poff[v]:w.poff[v+1]] {
				if prio[u] == 0 {
					prio[u] = p
					members = append(members, int(u))
				}
			}
		}
		slices.Sort(members[lo:])
	}
	sets := make([][]int, p+1)
	lo := 0
	for id := 1; id <= p; id++ {
		hi := lo + 1
		for hi < n && prio[members[hi]] == id {
			hi++
		}
		sets[id] = members[lo:hi:hi]
		lo = hi
	}
	return &PriorityResult{Priority: prio, Sets: sets, Max: p}
}

// PriorityResult is the paper's 1-based priority numbering of a digraph's
// strongly connected components.
type PriorityResult struct {
	Priority []int   // Priority[u] in 1..Max
	Sets     [][]int // Sets[p] = nodes with priority p; Sets[0] unused
	Max      int     // highest priority assigned
}

// SCCResult describes a partition of the nodes into strongly connected
// components, as TarjanSCC finds them.
type SCCResult struct {
	// Comp maps each node to its component index.
	Comp []int
	// Components lists the members of each component, each sorted
	// ascending.
	Components [][]int
}

// SameComponent reports whether u and v are mutually reachable.
func (r *SCCResult) SameComponent(u, v int) bool { return r.Comp[u] == r.Comp[v] }

// TarjanSCC computes strongly connected components with Tarjan's one-pass
// algorithm. Component indices are assigned in order of component
// completion, which for Tarjan is reverse topological order of the
// condensation (sinks first). It is used as a differential-testing oracle
// for PrioritySCC.
func TarjanSCC(g *Digraph) *SCCResult {
	n := g.N()
	const unvisited = -1
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	comp := make([]int, n)
	for i := range index {
		index[i] = unvisited
		comp[i] = -1
	}
	var components [][]int
	var stack []int
	next := 0

	type frame struct {
		u int
		i int
	}
	var frames []frame
	for root := 0; root < n; root++ {
		if index[root] != unvisited {
			continue
		}
		frames = append(frames[:0], frame{root, 0})
		index[root] = next
		low[root] = next
		next++
		stack = append(stack, root)
		onStack[root] = true
		for len(frames) > 0 {
			top := &frames[len(frames)-1]
			u := top.u
			if top.i < len(g.succ[u]) {
				v := g.succ[u][top.i]
				top.i++
				if index[v] == unvisited {
					index[v] = next
					low[v] = next
					next++
					stack = append(stack, v)
					onStack[v] = true
					frames = append(frames, frame{v, 0})
				} else if onStack[v] && index[v] < low[u] {
					low[u] = index[v]
				}
				continue
			}
			// u finished.
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := frames[len(frames)-1].u
				if low[u] < low[p] {
					low[p] = low[u]
				}
			}
			if low[u] == index[u] {
				id := len(components)
				var members []int
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = id
					members = append(members, w)
					if w == u {
						break
					}
				}
				sort.Ints(members)
				components = append(components, members)
			}
		}
	}
	return &SCCResult{Comp: comp, Components: components}
}

// TopoSort returns a topological order of an acyclic graph (edges point from
// earlier to later nodes in the returned slice). It reports ok=false when
// the graph contains a cycle.
func TopoSort(g *Digraph) (order []int, ok bool) {
	n := g.N()
	indeg := make([]int, n)
	for u := 0; u < n; u++ {
		for _, v := range g.succ[u] {
			indeg[v]++
		}
	}
	queue := make([]int, 0, n)
	for u := 0; u < n; u++ {
		if indeg[u] == 0 {
			queue = append(queue, u)
		}
	}
	order = make([]int, 0, n)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		order = append(order, u)
		for _, v := range g.succ[u] {
			indeg[v]--
			if indeg[v] == 0 {
				queue = append(queue, v)
			}
		}
	}
	return order, len(order) == n
}

// Closure returns a topological order of an acyclic graph together with
// every node's reflexive-transitive up-set and down-set. Edges point
// downward, as a Hasse diagram's covers do: up[v] holds v and every node
// with a path to v, down[u] holds u and every node reachable from u. It
// reports ok=false, with nil sets, when the graph contains a cycle.
func Closure(g *Digraph) (order []int, up, down []Bits, ok bool) {
	order, ok = TopoSort(g)
	if !ok {
		return order, nil, nil, false
	}
	n := g.N()
	up, down = make([]Bits, n), make([]Bits, n)
	for u := range up {
		up[u], down[u] = NewBits(n), NewBits(n)
		up[u].Set(u)
		down[u].Set(u)
	}
	// A node's predecessors all precede it in order, and its successors
	// all follow it.
	for _, u := range order {
		for _, v := range g.succ[u] {
			up[v].Or(up[u])
		}
	}
	for i := n - 1; i >= 0; i-- {
		u := order[i]
		for _, v := range g.succ[u] {
			down[u].Or(down[v])
		}
	}
	return order, up, down, true
}

// Bits is a set of nodes 0..n-1, one bit per node packed into 64-bit
// words. Binary operations take sets of the same width.
type Bits []uint64

// NewBits returns the empty set over n nodes.
func NewBits(n int) Bits { return make(Bits, (n+63)/64) }

// Set adds node i.
func (b Bits) Set(i int) { b[i/64] |= 1 << (uint(i) % 64) }

// Has reports whether node i is in the set.
func (b Bits) Has(i int) bool { return b[i/64]&(1<<(uint(i)%64)) != 0 }

// Or adds every member of o to b.
func (b Bits) Or(o Bits) {
	for i := range b {
		b[i] |= o[i]
	}
}

// And returns a new set holding the members common to b and o.
func (b Bits) And(o Bits) Bits {
	c := make(Bits, len(b))
	for i := range b {
		c[i] = b[i] & o[i]
	}
	return c
}

// SubsetOf reports whether every member of b is in o.
func (b Bits) SubsetOf(o Bits) bool {
	for i := range b {
		if b[i]&^o[i] != 0 {
			return false
		}
	}
	return true
}

// Empty reports whether b has no members.
func (b Bits) Empty() bool {
	for _, w := range b {
		if w != 0 {
			return false
		}
	}
	return true
}

// All yields the members of b in ascending order.
func (b Bits) All() iter.Seq[int] {
	return func(yield func(int) bool) {
		for wi, w := range b {
			for ; w != 0; w &= w - 1 {
				if !yield(wi*64 + bits.TrailingZeros64(w)) {
					return
				}
			}
		}
	}
}

// IsAcyclic reports whether the graph has no directed cycle.
func IsAcyclic(g *Digraph) bool {
	_, ok := TopoSort(g)
	return ok
}

// Reachable returns the set of nodes reachable from start (including start)
// as a boolean slice.
func Reachable(g *Digraph, start int) []bool {
	g.check(start)
	seen := make([]bool, g.N())
	seen[start] = true
	stack := []int{start}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range g.succ[u] {
			if !seen[v] {
				seen[v] = true
				stack = append(stack, v)
			}
		}
	}
	return seen
}

// CondensationEdges returns the edge set of the condensation (one node per
// priority set), deduplicated and with self-loops removed, as pairs of
// priorities.
func CondensationEdges(g *Digraph, pr *PriorityResult) [][2]int {
	seen := make(map[[2]int]bool)
	var edges [][2]int
	for u := 0; u < g.N(); u++ {
		cu := pr.Priority[u]
		for _, v := range g.succ[u] {
			cv := pr.Priority[v]
			if cu == cv {
				continue
			}
			e := [2]int{cu, cv}
			if !seen[e] {
				seen[e] = true
				edges = append(edges, e)
			}
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i][0] != edges[j][0] {
			return edges[i][0] < edges[j][0]
		}
		return edges[i][1] < edges[j][1]
	})
	return edges
}
