package lattice

import (
	"fmt"
	"math/bits"
	"slices"

	"minup/internal/graph"
)

// JICode is a compact lattice encoding in the style of Aït-Kaci, Boyer,
// Lincoln and Nasr ("Efficient implementation of lattice operations",
// TOPLAS 1989 — reference [1] of the paper's §5): every element is coded
// by the set of join-irreducible elements it dominates, a graph.Bits over
// the irreducibles that packs into a few machine words. Then
//
//	a ≽ b          ⇔  code(b) ⊆ code(a)
//	code(a ⊓ b)    =  code(a) ∩ code(b)      (after normalization)
//	code(a ⊔ b)    =  closure(code(a) ∪ code(b))
//
// Because only join-irreducible elements (those with exactly one
// immediate descendant) carry a bit, the code width is usually much
// smaller than the full |L|-bit closure rows the Explicit lattice keeps —
// the space/time trade-off §5 discusses. Lub and glb are answered through
// a lookup table from normalized code to element, so both remain
// effectively constant-time.
type JICode struct {
	base   *Explicit
	irr    []Level // the join-irreducible elements, in index order
	bitOf  map[Level]int
	codes  []graph.Bits // codes[element]: bit bitOf[ir] per irreducible ir below it
	decode map[string]Level
}

// codeKey turns a code into a map key for decode lookups.
func codeKey(b graph.Bits) string {
	buf := make([]byte, 0, len(b)*8)
	for _, w := range b {
		for s := 0; s < 64; s += 8 {
			buf = append(buf, byte(w>>uint(s)))
		}
	}
	return string(buf)
}

// NewJICode builds the join-irreducible encoding of an explicit lattice.
func NewJICode(base *Explicit) (*JICode, error) {
	elems := base.Elements()
	j := &JICode{base: base, bitOf: make(map[Level]int)}
	// Join-irreducible: not the bottom, and covering exactly one element.
	for _, e := range elems {
		if e != base.Bottom() && len(base.Covers(e)) == 1 {
			j.bitOf[e] = len(j.irr)
			j.irr = append(j.irr, e)
		}
	}
	// Degenerate but legal: a one-element lattice has no irreducibles, and
	// its code still takes one word.
	width := max(len(j.irr), 1)
	j.codes = make([]graph.Bits, len(elems))
	j.decode = make(map[string]Level, len(elems))
	for _, e := range elems {
		code := graph.NewBits(width)
		for _, ir := range j.irr {
			if base.Dominates(e, ir) {
				code.Set(j.bitOf[ir])
			}
		}
		j.codes[e] = code
		key := codeKey(code)
		if prev, dup := j.decode[key]; dup {
			// Cannot happen in a lattice: every element is the join of
			// the irreducibles below it, so codes are unique.
			return nil, fmt.Errorf("lattice: elements %q and %q share a JI code",
				base.FormatLevel(prev), base.FormatLevel(e))
		}
		j.decode[key] = e
	}
	return j, nil
}

// MustJICode is NewJICode that panics on error.
func MustJICode(base *Explicit) *JICode {
	j, err := NewJICode(base)
	if err != nil {
		panic(err)
	}
	return j
}

// NumIrreducibles returns the code width in bits.
func (j *JICode) NumIrreducibles() int { return len(j.irr) }

// CodeWords returns the number of 64-bit words per element code.
func (j *JICode) CodeWords() int { return len(j.codes[0]) }

// SpaceBits returns the total encoding size in bits (elements × words ×
// 64), for comparison with the |L|² closure representation.
func (j *JICode) SpaceBits() int { return len(j.codes) * j.CodeWords() * 64 }

// Dominates answers a ≽ b via subset testing on the codes.
func (j *JICode) Dominates(a, b Level) bool {
	return j.codes[b].SubsetOf(j.codes[a])
}

// Lub returns a ⊔ b: the union of the codes, closed upward to the nearest
// actual element code. The closure walk is bounded by the lattice height.
func (j *JICode) Lub(a, b Level) Level {
	u := slices.Clone(j.codes[a])
	u.Or(j.codes[b])
	if e, ok := j.decode[codeKey(u)]; ok {
		return e
	}
	// The union is not itself a code (non-distributive join): the lub is
	// the least element whose code contains the union. Walk down from ⊤
	// greedily.
	cur := j.base.Top()
	for {
		moved := false
		for _, c := range j.base.Covers(cur) {
			if u.SubsetOf(j.codes[c]) {
				cur = c
				moved = true
				break
			}
		}
		if !moved {
			return cur
		}
	}
}

// Glb returns a ⊓ b via the code intersection, which — unlike the union
// in Lub — is always exactly the meet's code: a join-irreducible lies
// below both a and b iff it lies below a ⊓ b, so
// code(a) ∩ code(b) = code(a ⊓ b) in every lattice and the decode lookup
// cannot miss.
func (j *JICode) Glb(a, b Level) Level {
	e, ok := j.decode[codeKey(j.codes[a].And(j.codes[b]))]
	if !ok {
		panic(fmt.Sprintf("lattice: JI glb code missing for %s ⊓ %s (not a lattice?)",
			j.base.FormatLevel(a), j.base.FormatLevel(b)))
	}
	return e
}

// Code returns a copy of an element's code bits, mostly for inspection
// and tests.
func (j *JICode) Code(a Level) []uint64 {
	return slices.Clone(j.codes[a])
}

// PopCount returns the number of irreducibles below a — the rank used in
// some encoding analyses.
func (j *JICode) PopCount(a Level) int {
	n := 0
	for _, w := range j.codes[a] {
		n += bits.OnesCount64(w)
	}
	return n
}

// JIOps adapts a JICode into a full Lattice: order operations go through
// the join-irreducible codes while structural queries (covers, parsing,
// element enumeration) delegate to the underlying explicit lattice. It
// lets the solver run entirely on the compact encoding, for the E4
// end-to-end comparison.
type JIOps struct {
	*Explicit
	JI *JICode
}

var _ Enumerable = JIOps{}

// NewJIOps builds the adapter (computing the encoding).
func NewJIOps(base *Explicit) (JIOps, error) {
	ji, err := NewJICode(base)
	if err != nil {
		return JIOps{}, err
	}
	return JIOps{Explicit: base, JI: ji}, nil
}

// Name implements Lattice.
func (o JIOps) Name() string { return o.Explicit.Name() + " (JI code ops)" }

// Dominates implements Lattice via the code subset test.
func (o JIOps) Dominates(a, b Level) bool { return o.JI.Dominates(a, b) }

// Lub implements Lattice via the code union.
func (o JIOps) Lub(a, b Level) Level { return o.JI.Lub(a, b) }

// Glb implements Lattice via the code intersection.
func (o JIOps) Glb(a, b Level) Level { return o.JI.Glb(a, b) }
