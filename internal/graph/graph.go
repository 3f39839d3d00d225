// Package graph provides generic directed-graph utilities shared by the
// constraint and poset machinery: adjacency storage, depth-first search,
// strongly connected component computation (both the two-pass Kosaraju
// variant the paper's Main procedure uses and Tarjan's one-pass algorithm as
// a differential-testing oracle), topological sorting, and reachability.
//
// Nodes are dense non-negative integers assigned by the caller; this keeps
// the hot paths allocation-free and lets higher layers map attributes and
// security levels onto node indices however they like.
package graph

import (
	"fmt"
	"iter"
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

// FromEdges returns the digraph over n nodes with the edges u -> v that
// edges yields, ranging over edges twice: once to count every node's out-
// and in-degree, once to fill the lists. Each direction's lists share one
// backing array, cut into one window per node whose capacity is capped at
// its degree, so a later AddEdge reallocates the list it grows and never
// writes into a neighbour's window. Lists come out in yield order, equal
// to those AddEdge calls in the same order would build; a node without
// edges keeps a nil list. edges must yield the same sequence both times.
func FromEdges(n int, edges iter.Seq2[int, int]) *Digraph {
	g := New(n)
	deg := make([]int, 2*n) // out-degrees, then in-degrees
	for u, v := range edges {
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
	for u, v := range edges {
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

// PostOrder returns the nodes in DFS finish order (earliest-finished first),
// visiting roots in increasing node order and successors in adjacency-list
// order. This is the order the paper's dfs_visit records on its Stack
// (Stack pops therefore consume the reverse of this slice).
func (g *Digraph) PostOrder() []int {
	n := g.N()
	order := make([]int, 0, n)
	seen := make([]bool, n)
	// Iterative DFS with an explicit stack of (node, next-successor-index)
	// frames so deep graphs cannot overflow the goroutine stack.
	type frame struct {
		u int
		i int
	}
	stack := make([]frame, 0, 64)
	for root := 0; root < n; root++ {
		if seen[root] {
			continue
		}
		seen[root] = true
		stack = append(stack, frame{root, 0})
		for len(stack) > 0 {
			top := &stack[len(stack)-1]
			adv := false
			for top.i < len(g.succ[top.u]) {
				v := g.succ[top.u][top.i]
				top.i++
				if !seen[v] {
					seen[v] = true
					stack = append(stack, frame{v, 0})
					adv = true
					break
				}
			}
			if !adv && top.i >= len(g.succ[stack[len(stack)-1].u]) {
				order = append(order, stack[len(stack)-1].u)
				stack = stack[:len(stack)-1]
			}
		}
	}
	return order
}

// SCCResult describes a partition of the nodes into strongly connected
// components.
type SCCResult struct {
	// Comp maps each node to its component index.
	Comp []int
	// Components lists the members of each component, each sorted
	// ascending. KosarajuSCC cuts them from one n-length array, each a
	// window capped at its length.
	Components [][]int
}

// NumComponents returns the number of strongly connected components.
func (r *SCCResult) NumComponents() int { return len(r.Components) }

// SameComponent reports whether u and v are mutually reachable.
func (r *SCCResult) SameComponent(u, v int) bool { return r.Comp[u] == r.Comp[v] }

// KosarajuSCC computes strongly connected components with the two-pass DFS
// scheme the paper adapts in Main (dfs_visit / dfs_back_visit): a forward
// DFS recording finish order, then a backward flood over nodes in decreasing
// finish time. Components are discovered in topological order of the
// condensation (source components first), so if component a can reach
// component b (a != b) then a's index is smaller than b's.
func KosarajuSCC(g *Digraph) *SCCResult {
	n := g.N()
	post := g.PostOrder()
	comp := make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	// Each component's nodes form one contiguous run of members, runs in
	// discovery order; the run being flooded doubles as its worklist.
	members := make([]int, 0, n)
	nc := 0
	// Walk nodes in decreasing finish time; flood backward.
	for i := n - 1; i >= 0; i-- {
		root := post[i]
		if comp[root] != -1 {
			continue
		}
		lo := len(members)
		comp[root] = nc
		members = append(members, root)
		for j := lo; j < len(members); j++ {
			for _, v := range g.pred[members[j]] {
				if comp[v] == -1 {
					comp[v] = nc
					members = append(members, v)
				}
			}
		}
		slices.Sort(members[lo:])
		nc++
	}
	components := make([][]int, nc)
	lo := 0
	for id := range components {
		hi := lo + 1
		for hi < n && comp[members[hi]] == id {
			hi++
		}
		components[id] = members[lo:hi:hi]
		lo = hi
	}
	return &SCCResult{Comp: comp, Components: components}
}

// PrioritySCC computes SCCs together with the paper's priority numbering
// (§4): priority 1..P with the properties that (1) every node has exactly
// one priority, (2) two nodes share a priority iff they are mutually
// reachable, and (3) each node's priority is no greater than that of every
// node reachable from it. BigLoop then consumes priority sets in decreasing
// order. Priorities are 1-based as in the paper; Priority[u] gives node u's
// priority and Sets[p] lists the nodes with priority p (Sets[0] is unused).
func PrioritySCC(g *Digraph) *PriorityResult {
	scc := KosarajuSCC(g)
	// Kosaraju discovers components in topological order (sources first), so
	// priority = discovery index + 1 makes every node's priority no greater
	// than that of the nodes reachable from it (its dependencies), which is
	// property (3). BigLoop then counts priorities downward, labeling sink
	// components (which depend on nothing unlabeled) first — exactly the
	// back-propagation order.
	p := &PriorityResult{
		SCC:      scc,
		Priority: make([]int, g.N()),
		Sets:     make([][]int, scc.NumComponents()+1),
	}
	for id, members := range scc.Components {
		pr := id + 1
		p.Sets[pr] = members
		for _, u := range members {
			p.Priority[u] = pr
		}
	}
	p.Max = scc.NumComponents()
	return p
}

// PriorityResult carries SCCs plus the paper's 1-based priority numbering.
type PriorityResult struct {
	SCC      *SCCResult
	Priority []int   // Priority[u] in 1..Max
	Sets     [][]int // Sets[p] = nodes with priority p; Sets[0] unused
	Max      int     // highest priority assigned
}

// TarjanSCC computes strongly connected components with Tarjan's one-pass
// algorithm. Component indices are assigned in order of component
// completion, which for Tarjan is reverse topological order of the
// condensation (sinks first). It is used as a differential-testing oracle
// for KosarajuSCC.
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
// SCC), deduplicated and with self-loops removed, as pairs of component
// indices.
func CondensationEdges(g *Digraph, scc *SCCResult) [][2]int {
	seen := make(map[[2]int]bool)
	var edges [][2]int
	for u := 0; u < g.N(); u++ {
		cu := scc.Comp[u]
		for _, v := range g.succ[u] {
			cv := scc.Comp[v]
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
