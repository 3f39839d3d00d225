package lattice

import (
	"fmt"
	"strings"
)

// Product is the component-wise product of two enumerable lattices: levels
// are pairs, dominance / lub / glb are taken component-wise. Products build
// richer policy lattices from simple ones (e.g. a secrecy chain × an
// integrity chain, or an MLS-style lattice from a Chain × Powerset).
//
// A product level packs the left component's element index in the high
// bits and the right component's in the low bits; both components must be
// Enumerable (dense small indices), which keeps handles well-defined.
type Product struct {
	name  string
	left  Enumerable
	right Enumerable
	elems []Level
}

var _ Enumerable = (*Product)(nil)

// NewProduct builds the product lattice left × right.
func NewProduct(name string, left, right Enumerable) (*Product, error) {
	nl, nr := len(left.Elements()), len(right.Elements())
	if nl == 0 || nr == 0 {
		return nil, fmt.Errorf("product %q: empty component", name)
	}
	if uint64(nl) > 1<<32 || uint64(nr) > 1<<32 {
		return nil, fmt.Errorf("product %q: component too large to pack (%d × %d)", name, nl, nr)
	}
	p := &Product{name: name, left: left, right: right}
	p.elems = make([]Level, 0, nl*nr)
	for _, a := range left.Elements() {
		for _, b := range right.Elements() {
			p.elems = append(p.elems, p.pack(a, b))
		}
	}
	return p, nil
}

// MustProduct is NewProduct that panics on error, for static fixtures.
func MustProduct(name string, left, right Enumerable) *Product {
	p, err := NewProduct(name, left, right)
	if err != nil {
		panic(err)
	}
	return p
}

func (p *Product) pack(a, b Level) Level { return a<<32 | b }

// Split unpacks a product level into its components.
func (p *Product) Split(l Level) (left, right Level) { return l >> 32, l & (1<<32 - 1) }

// Name implements Lattice.
func (p *Product) Name() string { return p.name }

// Top implements Lattice.
func (p *Product) Top() Level { return p.pack(p.left.Top(), p.right.Top()) }

// Bottom implements Lattice.
func (p *Product) Bottom() Level { return p.pack(p.left.Bottom(), p.right.Bottom()) }

// Dominates implements Lattice component-wise.
func (p *Product) Dominates(a, b Level) bool {
	al, ar := p.Split(a)
	bl, br := p.Split(b)
	return p.left.Dominates(al, bl) && p.right.Dominates(ar, br)
}

// Lub implements Lattice component-wise.
func (p *Product) Lub(a, b Level) Level {
	al, ar := p.Split(a)
	bl, br := p.Split(b)
	return p.pack(p.left.Lub(al, bl), p.right.Lub(ar, br))
}

// Glb implements Lattice component-wise.
func (p *Product) Glb(a, b Level) Level {
	al, ar := p.Split(a)
	bl, br := p.Split(b)
	return p.pack(p.left.Glb(al, bl), p.right.Glb(ar, br))
}

// Covers implements Lattice: step one component down one cover while
// holding the other fixed (left steps first).
func (p *Product) Covers(a Level) []Level {
	al, ar := p.Split(a)
	lc, rc := p.left.Covers(al), p.right.Covers(ar)
	out := make([]Level, 0, len(lc)+len(rc))
	for _, c := range lc {
		out = append(out, p.pack(c, ar))
	}
	for _, c := range rc {
		out = append(out, p.pack(al, c))
	}
	return out
}

// CoveredBy implements Lattice symmetrically to Covers.
func (p *Product) CoveredBy(a Level) []Level {
	al, ar := p.Split(a)
	lc, rc := p.left.CoveredBy(al), p.right.CoveredBy(ar)
	out := make([]Level, 0, len(lc)+len(rc))
	for _, c := range lc {
		out = append(out, p.pack(c, ar))
	}
	for _, c := range rc {
		out = append(out, p.pack(al, c))
	}
	return out
}

// Height implements Lattice: heights add.
func (p *Product) Height() int { return p.left.Height() + p.right.Height() }

// Contains implements Lattice.
func (p *Product) Contains(l Level) bool {
	a, b := p.Split(l)
	return p.left.Contains(a) && p.right.Contains(b)
}

// Elements implements Enumerable.
func (p *Product) Elements() []Level { return p.elems }

// FormatLevel implements Lattice, rendering "(leftLevel,rightLevel)".
func (p *Product) FormatLevel(l Level) string {
	a, b := p.Split(l)
	return "(" + p.left.FormatLevel(a) + "," + p.right.FormatLevel(b) + ")"
}

// ParseLevel implements Lattice. Because component names may themselves
// contain commas (powerset sets), the split point is searched for the
// first comma at brace depth zero.
func (p *Product) ParseLevel(s string) (Level, error) {
	s = strings.TrimSpace(s)
	if !strings.HasPrefix(s, "(") || !strings.HasSuffix(s, ")") {
		return 0, &levelError{"product %q: level %q not of the form (a,b)", p.name, s}
	}
	body := s[1 : len(s)-1]
	depth := 0
	for i, r := range body {
		switch r {
		case '{', '<', '(':
			depth++
		case '}', '>', ')':
			depth--
		case ',':
			if depth == 0 {
				a, err := p.left.ParseLevel(body[:i])
				if err != nil {
					return 0, err
				}
				b, err := p.right.ParseLevel(body[i+1:])
				if err != nil {
					return 0, err
				}
				return p.pack(a, b), nil
			}
		}
	}
	return 0, fmt.Errorf("product %q: level %q missing component separator", p.name, s)
}
