// Package constraint implements the classification constraints of
// Definition 2.1 of the paper: expressions of the form
//
//	lub{λ(A1),…,λ(An)} ≽ X
//
// where the Ai are attributes and X is either a security level constant or
// another attribute λ(A). Constraints with a singleton left-hand side are
// "simple"; those with several attributes are "complex" and express
// association and inference requirements. Section 6's upper-bound
// constraints l ≽ λ(A), which guarantee visibility, are carried separately.
//
// A Set owns the attribute universe, the constraints, the §6 upper bounds,
// and the graph view used by Algorithm 3.1 (each constraint is an edge from
// its left-hand side — a hypernode when complex — to its right-hand side;
// the strongly connected components of that graph are the paper's priority
// sets).
package constraint

import (
	"fmt"
	"sort"
	"strings"

	"minup/internal/graph"
	"minup/internal/lattice"
)

// Attr is a dense attribute identifier within one Set.
type Attr int

// RHS is the right-hand side of a constraint: either a level constant or an
// attribute.
type RHS struct {
	IsLevel bool
	Level   lattice.Level // valid when IsLevel
	Attr    Attr          // valid when !IsLevel
}

// LevelRHS returns an RHS holding a level constant.
func LevelRHS(l lattice.Level) RHS { return RHS{IsLevel: true, Level: l} }

// AttrRHS returns an RHS holding an attribute.
func AttrRHS(a Attr) RHS { return RHS{Attr: a} }

// Constraint is one lower-bound classification constraint of Definition
// 2.1: lub of the LHS attributes must dominate the RHS. LHS is non-empty,
// duplicate-free, and (when RHS is an attribute) does not contain the RHS,
// per the paper's disjointness assumption.
type Constraint struct {
	LHS []Attr
	RHS RHS
}

// Simple reports whether the constraint has a singleton left-hand side.
func (c Constraint) Simple() bool { return len(c.LHS) == 1 }

// UpperBound is a §6 visibility constraint l ≽ λ(A): attribute A may be
// classified no higher than level l.
type UpperBound struct {
	Attr  Attr
	Level lattice.Level
}

// Set is a classification-constraint instance: an attribute universe over a
// security lattice, lower-bound constraints, and optional upper bounds.
// The zero value is not usable; construct with NewSet. A Set is not safe
// for concurrent mutation; once fully built it may be shared read-only.
// Compile freezes the set (mutators return ErrFrozen) and yields an
// immutable Compiled snapshot safe for concurrent solving.
type Set struct {
	lat    lattice.Lattice
	names  []string
	index  map[string]Attr
	cons   []Constraint
	upper  []UpperBound
	frozen bool
}

// NewSet returns an empty constraint set over the given lattice.
func NewSet(lat lattice.Lattice) *Set {
	return &Set{lat: lat, index: make(map[string]Attr)}
}

// Lattice returns the security lattice the constraints are stated over.
func (s *Set) Lattice() lattice.Lattice { return s.lat }

// Clone returns a deep, unfrozen copy of the set over the same (immutable)
// lattice. Mutating the clone never affects the original, which makes it
// the staging area for speculative mutations: the policy catalog parses
// appended constraint text into a clone and swaps it in only after the
// parse and the incremental repair both succeed.
func (s *Set) Clone() *Set {
	c := &Set{
		lat:   s.lat,
		names: append([]string(nil), s.names...),
		index: make(map[string]Attr, len(s.index)),
		cons:  make([]Constraint, len(s.cons)),
		upper: append([]UpperBound(nil), s.upper...),
	}
	for name, a := range s.index {
		c.index[name] = a
	}
	for i, cn := range s.cons {
		c.cons[i] = Constraint{LHS: append([]Attr(nil), cn.LHS...), RHS: cn.RHS}
	}
	return c
}

// NumAttrs returns the number of declared attributes.
func (s *Set) NumAttrs() int { return len(s.names) }

// Constraints returns the lower-bound constraints in insertion order. The
// caller must not modify the returned slice.
func (s *Set) Constraints() []Constraint { return s.cons }

// UpperBounds returns the §6 upper-bound constraints in insertion order.
// The caller must not modify the returned slice.
func (s *Set) UpperBounds() []UpperBound { return s.upper }

// AddAttr declares an attribute and returns its id; re-declaring an
// existing name returns the existing id. Attribute names must be non-empty,
// must not contain constraint syntax characters, and must not collide with
// a parsable level name of the lattice (so constraint text is unambiguous).
func (s *Set) AddAttr(name string) (Attr, error) {
	if a, ok := s.index[name]; ok {
		return a, nil
	}
	return s.declare(name, true)
}

// declare adds a name that is not declared yet as a new attribute.
// checkLevel is false only when the caller has just failed to parse name
// as a level, so that a new identifier costs one failed level lookup.
func (s *Set) declare(name string, checkLevel bool) (Attr, error) {
	if s.frozen {
		return 0, fmt.Errorf("%w: cannot declare attribute %q", ErrFrozen, name)
	}
	if name == "" {
		return 0, fmt.Errorf("constraint: empty attribute name")
	}
	if strings.ContainsAny(name, "(), \t") {
		return 0, fmt.Errorf("constraint: attribute name %q contains reserved characters", name)
	}
	if checkLevel {
		if _, err := s.lat.ParseLevel(name); err == nil {
			return 0, fmt.Errorf("constraint: attribute name %q collides with a level of lattice %q", name, s.lat.Name())
		}
	}
	a := Attr(len(s.names))
	s.names = append(s.names, name)
	s.index[name] = a
	return a, nil
}

// MustAttr is AddAttr that panics on error, for static fixtures.
func (s *Set) MustAttr(name string) Attr {
	a, err := s.AddAttr(name)
	if err != nil {
		panic(err)
	}
	return a
}

// AttrByName looks up a declared attribute.
func (s *Set) AttrByName(name string) (Attr, bool) {
	a, ok := s.index[name]
	return a, ok
}

// AttrName returns the name of an attribute id.
func (s *Set) AttrName(a Attr) string {
	s.checkAttr(a)
	return s.names[a]
}

// Attrs returns all attribute ids in declaration order.
func (s *Set) Attrs() []Attr {
	out := make([]Attr, len(s.names))
	for i := range out {
		out[i] = Attr(i)
	}
	return out
}

func (s *Set) checkAttr(a Attr) {
	if a < 0 || int(a) >= len(s.names) {
		panic(fmt.Sprintf("constraint: attribute id %d out of range", a))
	}
}

// Add appends a lower-bound constraint. The left-hand side is deduplicated;
// per the paper's standing assumption a constraint whose right-hand side
// attribute also appears on the left is trivially satisfied and therefore
// rejected here (use AddIgnoreTrivial to drop such constraints silently).
func (s *Set) Add(lhs []Attr, rhs RHS) error {
	if s.frozen {
		return fmt.Errorf("%w: cannot add constraint", ErrFrozen)
	}
	if len(lhs) == 0 {
		return fmt.Errorf("constraint: empty left-hand side")
	}
	seen := make(map[Attr]bool, len(lhs))
	clean := make([]Attr, 0, len(lhs))
	for _, a := range lhs {
		s.checkAttr(a)
		if !seen[a] {
			seen[a] = true
			clean = append(clean, a)
		}
	}
	if rhs.IsLevel {
		if !s.lat.Contains(rhs.Level) {
			return fmt.Errorf("constraint: rhs level not in lattice %q", s.lat.Name())
		}
	} else {
		s.checkAttr(rhs.Attr)
		if seen[rhs.Attr] {
			return fmt.Errorf("constraint: rhs attribute %q also on lhs (trivially satisfied)", s.AttrName(rhs.Attr))
		}
	}
	s.cons = append(s.cons, Constraint{LHS: clean, RHS: rhs})
	return nil
}

// AddIgnoreTrivial is Add, except that constraints whose right-hand side
// appears on the left-hand side are silently dropped (reported as false)
// rather than rejected. Auto-generated constraint sets (e.g. from database
// dependencies) use this.
func (s *Set) AddIgnoreTrivial(lhs []Attr, rhs RHS) (added bool, err error) {
	if !rhs.IsLevel {
		for _, a := range lhs {
			if a == rhs.Attr {
				return false, nil
			}
		}
	}
	if err := s.Add(lhs, rhs); err != nil {
		return false, err
	}
	return true, nil
}

// MustAdd is Add that panics on error, for static fixtures.
func (s *Set) MustAdd(lhs []Attr, rhs RHS) {
	if err := s.Add(lhs, rhs); err != nil {
		panic(err)
	}
}

// AddUpper appends a §6 upper-bound constraint l ≽ λ(A).
func (s *Set) AddUpper(a Attr, l lattice.Level) error {
	if s.frozen {
		return fmt.Errorf("%w: cannot add upper bound", ErrFrozen)
	}
	s.checkAttr(a)
	if !s.lat.Contains(l) {
		return fmt.Errorf("constraint: upper-bound level not in lattice %q", s.lat.Name())
	}
	s.upper = append(s.upper, UpperBound{Attr: a, Level: l})
	return nil
}

// MustAddUpper is AddUpper that panics on error.
func (s *Set) MustAddUpper(a Attr, l lattice.Level) {
	if err := s.AddUpper(a, l); err != nil {
		panic(err)
	}
}

// TotalSize returns the paper's S = Σ(|lhs|+1) over the lower-bound
// constraints: the total size of the constraint set that the complexity
// bounds of Theorem 5.2 are stated in.
func (s *Set) TotalSize() int {
	sum := 0
	for _, c := range s.cons {
		sum += len(c.LHS) + 1
	}
	return sum
}

// Format renders a constraint in the textual form accepted by ParseInto.
func (s *Set) Format(c Constraint) string {
	var b strings.Builder
	if len(c.LHS) == 1 {
		b.WriteString(s.AttrName(c.LHS[0]))
	} else {
		b.WriteString("lub(")
		for i, a := range c.LHS {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(s.AttrName(a))
		}
		b.WriteString(")")
	}
	b.WriteString(" >= ")
	if c.RHS.IsLevel {
		b.WriteString(s.lat.FormatLevel(c.RHS.Level))
	} else {
		b.WriteString(s.AttrName(c.RHS.Attr))
	}
	return b.String()
}

// Graph returns the attribute dependency graph of the constraint set: one
// node per attribute, and for every constraint with an attribute right-hand
// side an edge from each left-hand-side attribute to it (the paper's
// convention that the rhs is reachable from every lhs member of a
// hypernode). Level constants are omitted — they are always "done" and
// never affect strong connectivity.
func (s *Set) Graph() *graph.Digraph {
	return graph.FromEdges(len(s.names), func(yield func(u, v int) bool) {
		for _, c := range s.cons {
			if c.RHS.IsLevel {
				continue
			}
			for _, a := range c.LHS {
				if !yield(int(a), int(c.RHS.Attr)) {
					return
				}
			}
		}
	})
}

// Priorities computes the paper's §4 priority structure: SCCs of Graph()
// numbered so that every attribute's priority is no greater than that of
// the attributes reachable from it. BigLoop consumes priority sets in
// decreasing order.
func (s *Set) Priorities() *graph.PriorityResult {
	return graph.PrioritySCC(s.Graph())
}

// Acyclic reports whether the constraint set is acyclic in the sense of §2
// (its graph representation is a DAG).
func (s *Set) Acyclic() bool {
	return graph.IsAcyclic(s.Graph())
}

// ConstraintsOn returns, for every attribute, the indices (into
// Constraints()) of the constraints whose left-hand side contains it — the
// paper's Constr[A] — in constraint order. The lists are windows of one
// array of Σ|lhs| indices, each capped at its length; an attribute on no
// left-hand side has a nil list.
func (s *Set) ConstraintsOn() [][]int {
	out := make([][]int, len(s.names))
	deg := make([]int, len(s.names))
	total := 0
	for _, c := range s.cons {
		for _, a := range c.LHS {
			deg[a]++
		}
		total += len(c.LHS)
	}
	flat := make([]int, total)
	off := 0
	for a, d := range deg {
		if d > 0 {
			out[a] = flat[off : off : off+d]
			off += d
		}
	}
	for i, c := range s.cons {
		for _, a := range c.LHS {
			out[a] = append(out[a], i)
		}
	}
	return out
}

// ConstraintsInto returns, for every attribute, the indices of the
// constraints whose right-hand side is that attribute.
func (s *Set) ConstraintsInto() [][]int {
	out := make([][]int, len(s.names))
	for i, c := range s.cons {
		if !c.RHS.IsLevel {
			out[c.RHS.Attr] = append(out[c.RHS.Attr], i)
		}
	}
	return out
}

// Assignment maps each attribute (by id) to a level. It is the λ of the
// paper.
type Assignment []lattice.Level

// Clone returns a copy of the assignment.
func (m Assignment) Clone() Assignment { return append(Assignment(nil), m...) }

// Dominates reports pointwise dominance m ≽ o (the extension of ≽ to
// mappings from §2).
func (m Assignment) Dominates(lat lattice.Lattice, o Assignment) bool {
	if len(m) != len(o) {
		return false
	}
	for i := range m {
		if !lat.Dominates(m[i], o[i]) {
			return false
		}
	}
	return true
}

// Equal reports whether two assignments are identical.
func (m Assignment) Equal(o Assignment) bool {
	if len(m) != len(o) {
		return false
	}
	for i := range m {
		if m[i] != o[i] {
			return false
		}
	}
	return true
}

// LubLHS returns lub{λ(A) : A ∈ lhs} under the assignment.
func (s *Set) LubLHS(m Assignment, lhs []Attr) lattice.Level {
	acc := s.lat.Bottom()
	for _, a := range lhs {
		acc = s.lat.Lub(acc, m[a])
	}
	return acc
}

// RHSLevel returns the level of a constraint's right-hand side under the
// assignment.
func (s *Set) RHSLevel(m Assignment, r RHS) lattice.Level {
	if r.IsLevel {
		return r.Level
	}
	return m[r.Attr]
}

// SatisfiedBy reports whether one constraint holds under the assignment.
func (s *Set) SatisfiedBy(m Assignment, c Constraint) bool {
	return s.lat.Dominates(s.LubLHS(m, c.LHS), s.RHSLevel(m, c.RHS))
}

// Satisfies reports whether λ |= C: every lower-bound constraint and every
// upper bound holds under the assignment.
func (s *Set) Satisfies(m Assignment) bool {
	return s.Violations(m) == nil
}

// Violations returns the constraints (formatted) violated by the
// assignment, or nil if it satisfies the set. Intended for error reporting
// and tests.
func (s *Set) Violations(m Assignment) []string {
	if len(m) != len(s.names) {
		return []string{fmt.Sprintf("assignment covers %d of %d attributes", len(m), len(s.names))}
	}
	var out []string
	for _, c := range s.cons {
		if !s.SatisfiedBy(m, c) {
			out = append(out, s.Format(c))
		}
	}
	for _, u := range s.upper {
		if !s.lat.Dominates(u.Level, m[u.Attr]) {
			out = append(out, fmt.Sprintf("%s >= %s (upper bound)", s.lat.FormatLevel(u.Level), s.AttrName(u.Attr)))
		}
	}
	return out
}

// FormatAssignment renders an assignment as "attr=level" pairs in
// attribute-name order.
func (s *Set) FormatAssignment(m Assignment) string {
	type pair struct{ name, level string }
	pairs := make([]pair, len(m))
	for i, l := range m {
		pairs[i] = pair{s.names[i], s.lat.FormatLevel(l)}
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].name < pairs[j].name })
	parts := make([]string, len(pairs))
	for i, p := range pairs {
		parts[i] = p.name + "=" + p.level
	}
	return strings.Join(parts, " ")
}
