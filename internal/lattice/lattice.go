// Package lattice implements the security lattices of the paper: partially
// ordered sets of access classes with least-upper-bound (lub) and
// greatest-lower-bound (glb) operations, the dominance relation, and the
// structural quantities (height H, branching factor B, path sum M) the
// complexity analysis of Theorem 5.2 is stated in.
//
// Several families are provided:
//
//   - Explicit: an arbitrary finite lattice given by its Hasse diagram
//     (cover relation), with dominance and lub/glb answered in near
//     constant time through a reflexive-transitive-closure bitset encoding
//     (the role played by the Talamo–Vocca structure and the Aït-Kaci
//     et al. encodings cited in §5 of the paper).
//   - Chain: a totally ordered set of levels (e.g. U < C < S < TS).
//   - Powerset: the lattice of subsets of a small universe.
//   - MLS: the standard compartmented military lattice of pairs
//     (classification, category set) from Figure 1(a) and DoD 5200.28-STD,
//     encoded in a single machine word for constant-time operations.
//   - Product: the component-wise product of two enumerable lattices.
//
// Levels are opaque uint64 handles interpreted by their lattice. Handles
// from different lattices must never be mixed; implementations panic when
// they can detect misuse.
package lattice

import (
	"fmt"
	"sort"
)

// Level is an opaque handle naming one element of a specific Lattice.
// For enumerable lattices the handle is a dense index; for MLS lattices it
// packs the classification and category bits.
type Level uint64

// Lattice is a finite (or finitely representable) security lattice.
//
// All implementations in this package are immutable after construction and
// safe for concurrent use.
type Lattice interface {
	// Name returns a short human-readable description of the lattice.
	Name() string

	// Top returns the greatest element ⊤.
	Top() Level

	// Bottom returns the least element ⊥.
	Bottom() Level

	// Dominates reports whether a ≽ b.
	Dominates(a, b Level) bool

	// Lub returns the least upper bound a ⊔ b.
	Lub(a, b Level) Level

	// Glb returns the greatest lower bound a ⊓ b.
	Glb(a, b Level) Level

	// Covers returns the immediate descendants of a: the maximal levels
	// strictly dominated by a. The order is deterministic and fixed at
	// construction; Algorithm 3.1's "left-to-right" descent convention
	// follows this order. The caller must not modify the returned slice.
	Covers(a Level) []Level

	// CoveredBy returns the immediate ancestors of a: the minimal levels
	// strictly dominating a. The caller must not modify the returned slice.
	CoveredBy(a Level) []Level

	// Height returns H, the number of edges on a longest chain in the
	// lattice (0 for the one-element lattice).
	Height() int

	// Contains reports whether the handle names an element of this lattice.
	Contains(l Level) bool

	// FormatLevel renders the level for humans.
	FormatLevel(l Level) string

	// ParseLevel parses the textual form produced by FormatLevel.
	ParseLevel(s string) (Level, error)

	// Lookup is ParseLevel without the error: it reports whether s names
	// a level. Callers asking about names that are usually not levels —
	// every identifier a constraint text declares — use it, because
	// building the error costs an allocation.
	Lookup(s string) (Level, bool)
}

// levelError is a failed level lookup. It keeps the lattice name and the
// input and formats the message only when read, since a caller probing
// whether a name is a level rarely wants it (the hottest of them, the
// constraint parser, calls Lookup and builds no error at all).
type levelError struct {
	format string // two %q verbs: the lattice name, then the input
	name   string
	input  string
}

func (e *levelError) Error() string { return fmt.Sprintf(e.format, e.name, e.input) }

// Enumerable is implemented by lattices small enough to list exhaustively.
// Validation, brute-force oracles, and DOT export require it.
type Enumerable interface {
	Lattice
	// Elements returns every level, in a deterministic order. The caller
	// must not modify the returned slice.
	Elements() []Level
}

// ComplementMinimizer is implemented by lattices on which the Minlevel
// computation of Algorithm 3.1 admits a closed form (footnote 4 of the
// paper): compartment-structured lattices where the minimal l with
// lub(l, others) ≽ rhs is unique.
type ComplementMinimizer interface {
	Lattice
	// MinComplement returns the unique minimal level l such that
	// Lub(l, others) dominates rhs.
	MinComplement(others, rhs Level) Level
}

// LubAll folds Lub over a non-empty set of levels; with no levels it
// returns the lattice bottom (the identity of ⊔).
func LubAll(l Lattice, levels ...Level) Level {
	acc := l.Bottom()
	for _, x := range levels {
		acc = l.Lub(acc, x)
	}
	return acc
}

// GlbAll folds Glb over a set of levels; with no levels it returns the
// lattice top (the identity of ⊓).
func GlbAll(l Lattice, levels ...Level) Level {
	acc := l.Top()
	for _, x := range levels {
		acc = l.Glb(acc, x)
	}
	return acc
}

// Comparable reports whether a and b are related by dominance in either
// direction.
func Comparable(l Lattice, a, b Level) bool {
	return l.Dominates(a, b) || l.Dominates(b, a)
}

// StrictlyDominates reports a ≻ b: a ≽ b and a ≠ b.
func StrictlyDominates(l Lattice, a, b Level) bool {
	return a != b && l.Dominates(a, b)
}

// CoversAbove returns the maximal levels l' with a ≻ l' ≽ lo — the DSet of
// Algorithm 3.1's BigLoop and the Trylevels of Minlevel, restricted to stay
// above the known lower bound lo. In a finite lattice these are exactly the
// immediate descendants of a that dominate lo.
func CoversAbove(l Lattice, a, lo Level) []Level {
	return AppendCoversAbove(nil, l, a, lo)
}

// AppendCoversAbove appends CoversAbove(l, a, lo) to dst and returns the
// extended slice, so a caller that reuses one buffer allocates only when
// the buffer grows.
func AppendCoversAbove(dst []Level, l Lattice, a, lo Level) []Level {
	for _, c := range l.Covers(a) {
		if l.Dominates(c, lo) {
			dst = append(dst, c)
		}
	}
	return dst
}

// Branching returns B, the maximum number of immediate predecessors
// (CoveredBy) over all elements, for an enumerable lattice.
func Branching(l Enumerable) int {
	b := 0
	for _, e := range l.Elements() {
		if n := len(l.CoveredBy(e)); n > b {
			b = n
		}
	}
	return b
}

// DownBranching returns the maximum number of immediate descendants
// (Covers) over all elements. Algorithm 3.1's descent steps fan out by this
// quantity.
func DownBranching(l Enumerable) int {
	b := 0
	for _, e := range l.Elements() {
		if n := len(l.Covers(e)); n > b {
			b = n
		}
	}
	return b
}

// PathSumM returns the paper's M: the maximum, over all maximal chains from
// ⊤ to ⊥, of the sum of the (downward) branching factors of the chain's
// elements. M ≤ B·H and M ≤ |L| + |cover relation|.
func PathSumM(l Enumerable) int {
	memo := make(map[Level]int)
	var walk func(Level) int
	walk = func(a Level) int {
		if v, ok := memo[a]; ok {
			return v
		}
		covers := l.Covers(a)
		best := 0
		for _, c := range covers {
			if v := walk(c); v > best {
				best = v
			}
		}
		v := len(covers) + best
		memo[a] = v
		return v
	}
	return walk(l.Top())
}

// ChainDown returns one maximal chain from a down to ⊥ following the first
// cover at each step. Useful for tests and examples.
func ChainDown(l Lattice, a Level) []Level {
	chain := []Level{a}
	for {
		covers := l.Covers(chain[len(chain)-1])
		if len(covers) == 0 {
			return chain
		}
		chain = append(chain, covers[0])
	}
}

// CheckError describes a violated lattice law found by Check.
type CheckError struct {
	Law    string // which law failed
	Detail string
}

func (e *CheckError) Error() string {
	return fmt.Sprintf("lattice: %s law violated: %s", e.Law, e.Detail)
}

// Check exhaustively verifies the lattice laws on an enumerable lattice:
// dominance is a partial order with the stated top and bottom; Lub and Glb
// return least upper and greatest lower bounds; Covers/CoveredBy agree with
// dominance. It is O(n³) and intended for tests and tool validation, not
// hot paths.
func Check(l Enumerable) error {
	elems := l.Elements()
	for _, a := range elems {
		if !l.Contains(a) {
			return &CheckError{"containment", fmt.Sprintf("element %s not Contains", l.FormatLevel(a))}
		}
		if !l.Dominates(a, a) {
			return &CheckError{"reflexivity", l.FormatLevel(a)}
		}
		if !l.Dominates(l.Top(), a) {
			return &CheckError{"top", fmt.Sprintf("⊤ does not dominate %s", l.FormatLevel(a))}
		}
		if !l.Dominates(a, l.Bottom()) {
			return &CheckError{"bottom", fmt.Sprintf("%s does not dominate ⊥", l.FormatLevel(a))}
		}
	}
	for _, a := range elems {
		for _, b := range elems {
			if a != b && l.Dominates(a, b) && l.Dominates(b, a) {
				return &CheckError{"antisymmetry", fmt.Sprintf("%s vs %s", l.FormatLevel(a), l.FormatLevel(b))}
			}
			lub := l.Lub(a, b)
			if !l.Dominates(lub, a) || !l.Dominates(lub, b) {
				return &CheckError{"lub-upper", fmt.Sprintf("%s ⊔ %s = %s", l.FormatLevel(a), l.FormatLevel(b), l.FormatLevel(lub))}
			}
			glb := l.Glb(a, b)
			if !l.Dominates(a, glb) || !l.Dominates(b, glb) {
				return &CheckError{"glb-lower", fmt.Sprintf("%s ⊓ %s = %s", l.FormatLevel(a), l.FormatLevel(b), l.FormatLevel(glb))}
			}
			for _, c := range elems {
				if l.Dominates(b, c) && l.Dominates(c, a) && !l.Dominates(b, a) {
					return &CheckError{"transitivity", fmt.Sprintf("%s ≥ %s ≥ %s", l.FormatLevel(b), l.FormatLevel(c), l.FormatLevel(a))}
				}
				if l.Dominates(c, a) && l.Dominates(c, b) && !l.Dominates(c, lub) {
					return &CheckError{"lub-least", fmt.Sprintf("%s is an upper bound of %s,%s below their lub %s",
						l.FormatLevel(c), l.FormatLevel(a), l.FormatLevel(b), l.FormatLevel(lub))}
				}
				if l.Dominates(a, c) && l.Dominates(b, c) && !l.Dominates(glb, c) {
					return &CheckError{"glb-greatest", fmt.Sprintf("%s is a lower bound of %s,%s above their glb %s",
						l.FormatLevel(c), l.FormatLevel(a), l.FormatLevel(b), l.FormatLevel(glb))}
				}
			}
		}
	}
	// Cover relation agrees with dominance.
	for _, a := range elems {
		for _, c := range l.Covers(a) {
			if !StrictlyDominates(l, a, c) {
				return &CheckError{"covers", fmt.Sprintf("%s listed as cover of %s but not strictly below", l.FormatLevel(c), l.FormatLevel(a))}
			}
			for _, m := range elems {
				if StrictlyDominates(l, a, m) && StrictlyDominates(l, m, c) {
					return &CheckError{"covers-immediate", fmt.Sprintf("%s between %s and its cover %s", l.FormatLevel(m), l.FormatLevel(a), l.FormatLevel(c))}
				}
			}
		}
		for _, u := range l.CoveredBy(a) {
			if !StrictlyDominates(l, u, a) {
				return &CheckError{"covered-by", fmt.Sprintf("%s listed above %s but not strictly above", l.FormatLevel(u), l.FormatLevel(a))}
			}
		}
	}
	return nil
}

// SortLevels sorts a slice of levels by their formatted name, for stable
// human-facing output.
func SortLevels(l Lattice, levels []Level) {
	sort.Slice(levels, func(i, j int) bool {
		return l.FormatLevel(levels[i]) < l.FormatLevel(levels[j])
	})
}
