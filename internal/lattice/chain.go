package lattice

import "fmt"

// Chain is a totally ordered lattice of named levels, bottom first.
// The classic U < Confidential < Secret < TopSecret hierarchy is a Chain.
type Chain struct {
	name  string
	names []string // names[0] is ⊥, names[len-1] is ⊤
	index map[string]int
	elems []Level
	cov   [][]Level // precomputed singleton cover lists
	covBy [][]Level
}

var _ Enumerable = (*Chain)(nil)

// NewChain builds a total order from level names listed bottom-up.
func NewChain(name string, bottomUp ...string) (*Chain, error) {
	if len(bottomUp) == 0 {
		return nil, fmt.Errorf("chain %q: no levels", name)
	}
	c := &Chain{
		name:  name,
		names: append([]string(nil), bottomUp...),
		index: make(map[string]int, len(bottomUp)),
		elems: make([]Level, len(bottomUp)),
		cov:   make([][]Level, len(bottomUp)),
		covBy: make([][]Level, len(bottomUp)),
	}
	for i, nm := range bottomUp {
		if nm == "" {
			return nil, fmt.Errorf("chain %q: empty level name", name)
		}
		if _, dup := c.index[nm]; dup {
			return nil, fmt.Errorf("chain %q: duplicate level %q", name, nm)
		}
		c.index[nm] = i
		c.elems[i] = Level(i)
		if i > 0 {
			c.cov[i] = []Level{Level(i - 1)}
			c.covBy[i-1] = []Level{Level(i)}
		}
	}
	return c, nil
}

// MustChain is NewChain that panics on error, for static fixtures.
func MustChain(name string, bottomUp ...string) *Chain {
	c, err := NewChain(name, bottomUp...)
	if err != nil {
		panic(err)
	}
	return c
}

// Name implements Lattice.
func (c *Chain) Name() string { return c.name }

// Size returns the number of levels.
func (c *Chain) Size() int { return len(c.names) }

// Top implements Lattice.
func (c *Chain) Top() Level { return Level(len(c.names) - 1) }

// Bottom implements Lattice.
func (c *Chain) Bottom() Level { return 0 }

// Dominates implements Lattice.
func (c *Chain) Dominates(a, b Level) bool { c.check(a); c.check(b); return a >= b }

// Lub implements Lattice.
func (c *Chain) Lub(a, b Level) Level {
	c.check(a)
	c.check(b)
	if a >= b {
		return a
	}
	return b
}

// Glb implements Lattice.
func (c *Chain) Glb(a, b Level) Level {
	c.check(a)
	c.check(b)
	if a <= b {
		return a
	}
	return b
}

// Covers implements Lattice.
func (c *Chain) Covers(a Level) []Level { c.check(a); return c.cov[a] }

// CoveredBy implements Lattice.
func (c *Chain) CoveredBy(a Level) []Level { c.check(a); return c.covBy[a] }

// Height implements Lattice.
func (c *Chain) Height() int { return len(c.names) - 1 }

// Contains implements Lattice.
func (c *Chain) Contains(l Level) bool { return int(l) < len(c.names) }

// Elements implements Enumerable.
func (c *Chain) Elements() []Level { return c.elems }

// FormatLevel implements Lattice.
func (c *Chain) FormatLevel(l Level) string { c.check(l); return c.names[l] }

// ParseLevel implements Lattice.
func (c *Chain) ParseLevel(s string) (Level, error) {
	if l, ok := c.Lookup(s); ok {
		return l, nil
	}
	return 0, &levelError{"chain %q: unknown level %q", c.name, s}
}

// Lookup implements Lattice.
func (c *Chain) Lookup(s string) (Level, bool) {
	i, ok := c.index[s]
	return Level(i), ok
}

// MinComplement implements ComplementMinimizer: in a total order the
// minimal l with max(l, others) ≥ rhs is rhs itself when others < rhs, and
// ⊥ otherwise. This is footnote 4 of the paper restricted to the empty
// category set.
func (c *Chain) MinComplement(others, rhs Level) Level {
	c.check(others)
	c.check(rhs)
	if others < rhs {
		return rhs
	}
	return 0
}

func (c *Chain) check(l Level) {
	if int(l) >= len(c.names) {
		panic(fmt.Sprintf("chain %q: level handle %d out of range", c.name, l))
	}
}
