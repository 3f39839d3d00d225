package poset

import "fmt"

// The min-poset problem (§6, Theorem 6.1): given a poset of security
// levels and constraints of the forms
//
//	A ≥ A′        (attribute dominates attribute)
//	A ≥ l         (attribute dominates a constant)
//	l ≥ A         (constant dominates an attribute — how the reduction's
//	               clause gadgets cap their attributes)
//	lub{A1,…,Ak} ≥ X   (complex)
//
// decide whether a satisfying assignment of poset elements to attributes
// exists (every satisfiable instance has a minimal solution, so the
// decision problem coincides with satisfiability). Because the order need
// not be a lattice, a complex constraint is interpreted in the strongest
// lattice-consistent way: the left-hand side must have at least one common
// upper bound, and every common upper bound must dominate the right-hand
// side; on a lattice this is exactly lub{…} ≥ X.

// MPConstraint is one min-poset constraint. LHS lists attribute indices;
// exactly one of RHSAttr ≥ 0 or RHSElem ≥ 0 is set for lower-bound
// constraints. Upper-bound constraints use Upper=true with a single LHS
// attribute and RHSElem as the cap.
type MPConstraint struct {
	LHS     []int
	RHSAttr int  // -1 when the rhs is an element
	RHSElem Elem // valid when RHSAttr < 0, or when Upper
	Upper   bool // RHSElem ≥ LHS[0]
}

// Instance is a min-poset problem instance.
type Instance struct {
	P         *Poset
	AttrNames []string
	Cons      []MPConstraint
}

// NewInstance returns an empty instance over the poset.
func NewInstance(p *Poset) *Instance { return &Instance{P: p} }

// AddAttr declares an attribute and returns its index.
func (in *Instance) AddAttr(name string) int {
	in.AttrNames = append(in.AttrNames, name)
	return len(in.AttrNames) - 1
}

// AddLowerAttr adds lub{lhs} ≥ rhs-attribute.
func (in *Instance) AddLowerAttr(lhs []int, rhs int) {
	in.Cons = append(in.Cons, MPConstraint{LHS: lhs, RHSAttr: rhs, RHSElem: -1})
}

// AddLowerElem adds lub{lhs} ≥ element.
func (in *Instance) AddLowerElem(lhs []int, e Elem) {
	in.Cons = append(in.Cons, MPConstraint{LHS: lhs, RHSAttr: -1, RHSElem: e})
}

// AddUpper adds element ≥ attribute.
func (in *Instance) AddUpper(attr int, e Elem) {
	in.Cons = append(in.Cons, MPConstraint{LHS: []int{attr}, RHSAttr: -1, RHSElem: e, Upper: true})
}

// Satisfies reports whether the assignment (one element per attribute)
// satisfies every constraint.
func (in *Instance) Satisfies(m []Elem) bool {
	for _, c := range in.Cons {
		if !in.satisfied(c, m) {
			return false
		}
	}
	return true
}

func (in *Instance) satisfied(c MPConstraint, m []Elem) bool {
	p := in.P
	if c.Upper {
		return p.GE(c.RHSElem, m[c.LHS[0]])
	}
	rhs := c.RHSElem
	if c.RHSAttr >= 0 {
		rhs = m[c.RHSAttr]
	}
	if len(c.LHS) == 1 {
		return p.GE(m[c.LHS[0]], rhs)
	}
	// Complex: common upper bounds of the lhs must exist and all dominate
	// the rhs; equivalently, every *minimal* common upper bound dominates
	// it.
	ub := p.up[m[c.LHS[0]]]
	for _, a := range c.LHS[1:] {
		ub = ub.And(p.up[m[a]])
	}
	if ub.Empty() {
		return false
	}
	for u := range ub.All() {
		if !p.GE(Elem(u), rhs) {
			return false
		}
	}
	return true
}

// SolveStats reports search effort, used by the E7 scaling experiment.
type SolveStats struct {
	Nodes      int // search-tree nodes visited
	Backtracks int
}

// ErrBudget is returned when the node budget is exhausted before the
// search concludes.
var ErrBudget = fmt.Errorf("poset: search budget exhausted")

// Solve decides the instance by backtracking search with forward checking:
// per-attribute candidate domains are seeded from the constant constraints
// (upper bounds and simple lower bounds against elements), each assignment
// prunes the domains of attributes related through simple attribute-to-
// attribute constraints, and the next attribute is always one with the
// smallest remaining domain (fail-first). Complex constraints are verified
// as soon as all of their attributes are assigned. budget caps the number
// of search nodes (0 means unlimited); exceeding it returns ErrBudget.
//
// On success the returned assignment has additionally been greedily
// minimized: no single attribute can be lowered to any strictly smaller
// element without violating a constraint.
func (in *Instance) Solve(budget int) ([]Elem, *SolveStats, error) {
	p := in.P
	n := len(in.AttrNames)
	stats := &SolveStats{}
	if n == 0 {
		return []Elem{}, stats, nil
	}

	// Seed domains from constant constraints, low elements first (biasing
	// the search toward low assignments).
	domains := make([][]Elem, n)
	all := make([]Elem, p.Size())
	for i := range all {
		all[i] = Elem(i)
	}
	for a := 0; a < n; a++ {
		domains[a] = all
	}
	// Simple attribute-to-attribute edges for forward checking:
	// geEdges[a] lists pairs (b, dir) meaning a ≥ b (dir=+1) or b ≥ a
	// (dir=-1) must hold.
	type edge struct {
		other int
		self  int // +1: self ≥ other; -1: other ≥ self
	}
	geEdges := make([][]edge, n)
	// Complex (or multi-attribute) constraints checked on completion:
	// attrsOf[c] lists the distinct attributes of constraint c.
	var lateCons []MPConstraint
	lateAttrs := make([][]int, 0)
	lateOn := make([][]int, n) // attr -> indices into lateCons
	unassignedIn := []int{}

	for _, c := range in.Cons {
		switch {
		case c.Upper:
			domains[c.LHS[0]] = filterElems(domains[c.LHS[0]], func(e Elem) bool {
				return p.GE(c.RHSElem, e)
			})
		case len(c.LHS) == 1 && c.RHSAttr < 0:
			domains[c.LHS[0]] = filterElems(domains[c.LHS[0]], func(e Elem) bool {
				return p.GE(e, c.RHSElem)
			})
		case len(c.LHS) == 1 && c.RHSAttr >= 0:
			a, b := c.LHS[0], c.RHSAttr
			geEdges[a] = append(geEdges[a], edge{other: b, self: +1})
			geEdges[b] = append(geEdges[b], edge{other: a, self: -1})
		default:
			idx := len(lateCons)
			lateCons = append(lateCons, c)
			seen := map[int]bool{}
			var attrs []int
			for _, a := range c.LHS {
				if !seen[a] {
					seen[a] = true
					attrs = append(attrs, a)
				}
			}
			if c.RHSAttr >= 0 && !seen[c.RHSAttr] {
				attrs = append(attrs, c.RHSAttr)
			}
			lateAttrs = append(lateAttrs, attrs)
			unassignedIn = append(unassignedIn, len(attrs))
			for _, a := range attrs {
				lateOn[a] = append(lateOn[a], idx)
			}
		}
	}
	for a := 0; a < n; a++ {
		if len(domains[a]) == 0 {
			return nil, stats, nil // trivially unsatisfiable
		}
	}

	m := make([]Elem, n)
	assigned := make([]bool, n)
	type undoEntry struct {
		attr int
		dom  []Elem
	}

	var dfs func(depth int) (bool, error)
	dfs = func(depth int) (bool, error) {
		if depth == n {
			return true, nil
		}
		// Fail-first: smallest remaining domain.
		a := -1
		for i := 0; i < n; i++ {
			if !assigned[i] && (a < 0 || len(domains[i]) < len(domains[a])) {
				a = i
			}
		}
		for _, e := range domains[a] {
			stats.Nodes++
			if budget > 0 && stats.Nodes > budget {
				return false, ErrBudget
			}
			m[a] = e
			assigned[a] = true
			var undo []undoEntry
			ok := true
			// Forward-check simple edges.
			for _, ed := range geEdges[a] {
				if assigned[ed.other] {
					if ed.self > 0 && !p.GE(e, m[ed.other]) {
						ok = false
					}
					if ed.self < 0 && !p.GE(m[ed.other], e) {
						ok = false
					}
					if !ok {
						break
					}
					continue
				}
				old := domains[ed.other]
				var pruned []Elem
				if ed.self > 0 { // a ≥ other: other must be ≤ e
					pruned = filterElems(old, func(x Elem) bool { return p.GE(e, x) })
				} else { // other ≥ a: other must be ≥ e
					pruned = filterElems(old, func(x Elem) bool { return p.GE(x, e) })
				}
				if len(pruned) != len(old) {
					undo = append(undo, undoEntry{ed.other, old})
					domains[ed.other] = pruned
					if len(pruned) == 0 {
						ok = false
						break
					}
				}
			}
			// Check complex constraints that just became fully assigned.
			if ok {
				for _, ci := range lateOn[a] {
					unassignedIn[ci]--
					if unassignedIn[ci] == 0 && !in.satisfied(lateCons[ci], m) {
						ok = false
					}
				}
			} else {
				for _, ci := range lateOn[a] {
					unassignedIn[ci]--
				}
			}
			if ok {
				done, err := dfs(depth + 1)
				if err != nil || done {
					return done, err
				}
			}
			// Undo.
			for _, ci := range lateOn[a] {
				unassignedIn[ci]++
			}
			for i := len(undo) - 1; i >= 0; i-- {
				domains[undo[i].attr] = undo[i].dom
			}
			assigned[a] = false
		}
		stats.Backtracks++
		return false, nil
	}
	found, err := dfs(0)
	if err != nil {
		return nil, stats, err
	}
	if !found {
		return nil, stats, nil
	}
	in.minimize(m)
	return m, stats, nil
}

// minimize greedily lowers single attributes while the assignment remains
// satisfying. The result is locally minimal; on non-lattice posets true
// (global) minimality may require simultaneous moves, which MinimalBelow
// checks exhaustively for small instances.
func (in *Instance) minimize(m []Elem) {
	p := in.P
	for changed := true; changed; {
		changed = false
		for a := range m {
			for _, lower := range p.Below(m[a]) {
				old := m[a]
				m[a] = lower
				if in.Satisfies(m) {
					changed = true
					break
				}
				m[a] = old
			}
		}
	}
}

// MinimalBelow reports whether any satisfying assignment lies strictly
// below m pointwise, by exhaustive enumeration of the down-sets (small
// instances only).
func (in *Instance) MinimalBelow(m []Elem) (isMinimal bool, err error) {
	p := in.P
	n := len(m)
	down := make([][]Elem, n)
	total := 1.0
	for a := 0; a < n; a++ {
		down[a] = append([]Elem{m[a]}, p.Below(m[a])...)
		total *= float64(len(down[a]))
		if total > 5_000_000 {
			return false, fmt.Errorf("poset: down-set enumeration too large")
		}
	}
	cur := make([]Elem, n)
	var found bool
	var walk func(i int)
	walk = func(i int) {
		if found {
			return
		}
		if i == n {
			same := true
			for a := range cur {
				if cur[a] != m[a] {
					same = false
					break
				}
			}
			if !same && in.Satisfies(cur) {
				found = true
			}
			return
		}
		for _, e := range down[i] {
			cur[i] = e
			walk(i + 1)
		}
	}
	walk(0)
	return !found, nil
}

func filterElems(in []Elem, keep func(Elem) bool) []Elem {
	out := make([]Elem, 0, len(in))
	for _, e := range in {
		if keep(e) {
			out = append(out, e)
		}
	}
	return out
}
