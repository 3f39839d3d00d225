// Package poset implements arbitrary finite partial orders and the
// min-poset problem of §6 of the paper: minimal constraint-satisfying
// assignments over a partial order that need not be a lattice. Theorem 6.1
// shows min-poset NP-complete via a reduction from 3-SAT; this package
// contains the poset machinery, an exponential backtracking solver, a DPLL
// 3-SAT solver used as the reduction's substrate and oracle, and the
// reduction itself (reduction.go), including the Figure 4 fixtures.
package poset

import (
	"fmt"
	"sort"

	"minup/internal/graph"
)

// Elem identifies one element of a Poset (a dense index).
type Elem int

// Poset is a finite partial order given by its cover relation, with the
// reflexive-transitive closure taken from graph.Closure as node bitsets
// for O(n/64) dominance tests.
type Poset struct {
	name   string
	names  []string
	index  map[string]int
	covers [][]Elem     // covers[i]: elements immediately below i
	above  [][]Elem     // above[i]: elements immediately above i
	up     []graph.Bits // up[i] = {j : j ≥ i}
	down   []graph.Bits // down[i] = {j : i ≥ j}
}

// elemsOf lists the members of b in ascending order.
func elemsOf(b graph.Bits) []Elem {
	var out []Elem
	for x := range b.All() {
		out = append(out, Elem(x))
	}
	return out
}

// FromCovers builds a poset from named elements and a cover relation
// (covers[x] lists the elements immediately below x). Unlike
// lattice.NewExplicit there is no requirement of unique extremes or
// existing lubs — any finite DAG of covers is accepted.
func FromCovers(name string, names []string, covers map[string][]string) (*Poset, error) {
	n := len(names)
	if n == 0 {
		return nil, fmt.Errorf("poset %q: no elements", name)
	}
	p := &Poset{
		name:   name,
		names:  append([]string(nil), names...),
		index:  make(map[string]int, n),
		covers: make([][]Elem, n),
		above:  make([][]Elem, n),
	}
	for i, nm := range names {
		if nm == "" {
			return nil, fmt.Errorf("poset %q: empty element name", name)
		}
		if _, dup := p.index[nm]; dup {
			return nil, fmt.Errorf("poset %q: duplicate element %q", name, nm)
		}
		p.index[nm] = i
	}
	g := graph.New(n) // edges point downward, from each element to those it covers
	for from, tos := range covers {
		i, ok := p.index[from]
		if !ok {
			return nil, fmt.Errorf("poset %q: cover source %q not declared", name, from)
		}
		for _, to := range tos {
			j, ok := p.index[to]
			if !ok {
				return nil, fmt.Errorf("poset %q: cover target %q not declared", name, to)
			}
			if i == j {
				return nil, fmt.Errorf("poset %q: self-cover on %q", name, from)
			}
			p.covers[i] = append(p.covers[i], Elem(j))
			p.above[j] = append(p.above[j], Elem(i))
			g.AddEdge(i, j)
		}
	}
	var ok bool
	if _, p.up, p.down, ok = graph.Closure(g); !ok {
		return nil, fmt.Errorf("poset %q: cover relation is cyclic", name)
	}
	return p, nil
}

// MustFromCovers is FromCovers that panics on error, for static fixtures.
func MustFromCovers(name string, names []string, covers map[string][]string) *Poset {
	p, err := FromCovers(name, names, covers)
	if err != nil {
		panic(err)
	}
	return p
}

// Name returns the poset's name.
func (p *Poset) Name() string { return p.name }

// Size returns the number of elements.
func (p *Poset) Size() int { return len(p.names) }

// GE reports a ≥ b.
func (p *Poset) GE(a, b Elem) bool { return p.up[b].Has(int(a)) }

// ElemName returns the name of an element.
func (p *Poset) ElemName(e Elem) string { return p.names[e] }

// ElemByName looks an element up by name.
func (p *Poset) ElemByName(name string) (Elem, bool) {
	i, ok := p.index[name]
	return Elem(i), ok
}

// Covers returns the elements immediately below e.
func (p *Poset) Covers(e Elem) []Elem { return p.covers[e] }

// Below returns all elements strictly below e.
func (p *Poset) Below(e Elem) []Elem {
	var out []Elem
	for x := range p.down[e].All() {
		if Elem(x) != e {
			out = append(out, Elem(x))
		}
	}
	return out
}

// UpperBounds returns the common upper bounds of a and b.
func (p *Poset) UpperBounds(a, b Elem) []Elem {
	return elemsOf(p.up[a].And(p.up[b]))
}

// MinimalUpperBounds returns the minimal elements among the common upper
// bounds of a and b. A pair with two or more minimal upper bounds is what
// makes the order a non-lattice.
func (p *Poset) MinimalUpperBounds(a, b Elem) []Elem {
	ubs := p.UpperBounds(a, b)
	var out []Elem
	for _, u := range ubs {
		minimal := true
		for _, v := range ubs {
			if v != u && p.GE(u, v) {
				minimal = false
				break
			}
		}
		if minimal {
			out = append(out, u)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// IsLattice reports whether every pair of elements has a least upper bound
// and a greatest lower bound (which, for a finite order, requires unique
// top and bottom).
func (p *Poset) IsLattice() bool {
	n := len(p.names)
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if len(p.MinimalUpperBounds(Elem(a), Elem(b))) != 1 {
				return false
			}
			if len(p.MaximalLowerBounds(Elem(a), Elem(b))) != 1 {
				return false
			}
		}
	}
	return true
}

// IsPartialLattice reports the paper's §6 condition: any two elements that
// have an upper bound have a least one (and dually for lower bounds).
// Algorithm 3.1 extends to partial lattices; arbitrary posets violating
// this condition are where min-poset becomes NP-complete.
func (p *Poset) IsPartialLattice() bool {
	n := len(p.names)
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if ubs := p.MinimalUpperBounds(Elem(a), Elem(b)); len(ubs) > 1 {
				return false
			}
			if lbs := p.MaximalLowerBounds(Elem(a), Elem(b)); len(lbs) > 1 {
				return false
			}
		}
	}
	return true
}

// MaximalLowerBounds returns the maximal elements among the common lower
// bounds of a and b.
func (p *Poset) MaximalLowerBounds(a, b Elem) []Elem {
	lbs := elemsOf(p.down[a].And(p.down[b]))
	var out []Elem
	for _, u := range lbs {
		maximal := true
		for _, v := range lbs {
			if v != u && p.GE(v, u) {
				maximal = false
				break
			}
		}
		if maximal {
			out = append(out, u)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Maximal returns the maximal elements of the poset.
func (p *Poset) Maximal() []Elem {
	var out []Elem
	for i := range p.names {
		if len(p.above[i]) == 0 {
			out = append(out, Elem(i))
		}
	}
	return out
}

// Minimal returns the minimal elements of the poset.
func (p *Poset) Minimal() []Elem {
	var out []Elem
	for i := range p.names {
		if len(p.covers[i]) == 0 {
			out = append(out, Elem(i))
		}
	}
	return out
}
