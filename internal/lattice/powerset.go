package lattice

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
)

// maxPowersetUniverse bounds the universe size of an enumerable powerset
// lattice (2^20 elements is already a million-element lattice).
const maxPowersetUniverse = 20

// Powerset is the lattice of subsets of a small named universe, ordered by
// inclusion: lub is union, glb is intersection, ⊤ the full set, ⊥ the empty
// set. A Level is the subset's bitmask. Powerset lattices model pure
// category/compartment structures (an MLS lattice with a single
// classification level).
type Powerset struct {
	name     string
	universe []string // category names, bit i ↔ universe[i]
	index    map[string]uint
	elems    []Level // lazily nil until Elements is first called? built eagerly
}

var _ Enumerable = (*Powerset)(nil)
var _ ComplementMinimizer = (*Powerset)(nil)

// NewPowerset builds the subset lattice over the given category names.
// At most 20 categories are allowed so the lattice stays enumerable; use
// MLS for the full 64-category military form (which is not enumerable).
func NewPowerset(name string, categories ...string) (*Powerset, error) {
	if len(categories) == 0 {
		return nil, fmt.Errorf("powerset %q: empty universe", name)
	}
	if len(categories) > maxPowersetUniverse {
		return nil, fmt.Errorf("powerset %q: %d categories exceeds limit %d (use MLS)",
			name, len(categories), maxPowersetUniverse)
	}
	p := &Powerset{
		name:     name,
		universe: append([]string(nil), categories...),
		index:    make(map[string]uint, len(categories)),
	}
	for i, c := range categories {
		if c == "" {
			return nil, fmt.Errorf("powerset %q: empty category name", name)
		}
		if strings.ContainsAny(c, "{},") {
			return nil, fmt.Errorf("powerset %q: category %q contains a reserved character", name, c)
		}
		if _, dup := p.index[c]; dup {
			return nil, fmt.Errorf("powerset %q: duplicate category %q", name, c)
		}
		p.index[c] = uint(i)
	}
	p.elems = make([]Level, 1<<len(categories))
	for i := range p.elems {
		p.elems[i] = Level(i)
	}
	return p, nil
}

// MustPowerset is NewPowerset that panics on error, for static fixtures.
func MustPowerset(name string, categories ...string) *Powerset {
	p, err := NewPowerset(name, categories...)
	if err != nil {
		panic(err)
	}
	return p
}

// LevelOf returns the level for a set of category names.
func (p *Powerset) LevelOf(categories ...string) (Level, error) {
	var mask uint64
	for _, c := range categories {
		i, ok := p.index[c]
		if !ok {
			return 0, &levelError{"powerset %q: unknown category %q", p.name, c}
		}
		mask |= 1 << i
	}
	return Level(mask), nil
}

// Name implements Lattice.
func (p *Powerset) Name() string { return p.name }

// Top implements Lattice.
func (p *Powerset) Top() Level { return Level(uint64(1)<<len(p.universe) - 1) }

// Bottom implements Lattice.
func (p *Powerset) Bottom() Level { return 0 }

// Dominates implements Lattice: superset inclusion.
func (p *Powerset) Dominates(a, b Level) bool {
	p.check(a)
	p.check(b)
	return uint64(b)&^uint64(a) == 0
}

// Lub implements Lattice: union.
func (p *Powerset) Lub(a, b Level) Level { p.check(a); p.check(b); return a | b }

// Glb implements Lattice: intersection.
func (p *Powerset) Glb(a, b Level) Level { p.check(a); p.check(b); return a & b }

// Covers implements Lattice: remove one category, lowest bit first.
func (p *Powerset) Covers(a Level) []Level {
	p.check(a)
	m := uint64(a)
	out := make([]Level, 0, bits.OnesCount64(m))
	for w := m; w != 0; w &= w - 1 {
		bit := w & -w
		out = append(out, Level(m&^bit))
	}
	return out
}

// CoveredBy implements Lattice: add one missing category, lowest bit first.
func (p *Powerset) CoveredBy(a Level) []Level {
	p.check(a)
	m := uint64(a)
	full := uint64(p.Top())
	out := make([]Level, 0, bits.OnesCount64(full&^m))
	for w := full &^ m; w != 0; w &= w - 1 {
		bit := w & -w
		out = append(out, Level(m|bit))
	}
	return out
}

// Height implements Lattice.
func (p *Powerset) Height() int { return len(p.universe) }

// Contains implements Lattice.
func (p *Powerset) Contains(l Level) bool { return uint64(l)&^uint64(p.Top()) == 0 }

// Elements implements Enumerable.
func (p *Powerset) Elements() []Level { return p.elems }

// FormatLevel implements Lattice, rendering e.g. "{Army,Nuclear}".
func (p *Powerset) FormatLevel(l Level) string {
	p.check(l)
	var names []string
	for i, c := range p.universe {
		if uint64(l)&(1<<uint(i)) != 0 {
			names = append(names, c)
		}
	}
	sort.Strings(names)
	return "{" + strings.Join(names, ",") + "}"
}

// ParseLevel implements Lattice, accepting the FormatLevel form.
func (p *Powerset) ParseLevel(s string) (Level, error) {
	s = strings.TrimSpace(s)
	if !strings.HasPrefix(s, "{") || !strings.HasSuffix(s, "}") {
		return 0, &levelError{"powerset %q: level %q not of the form {a,b}", p.name, s}
	}
	body := strings.TrimSuffix(strings.TrimPrefix(s, "{"), "}")
	if strings.TrimSpace(body) == "" {
		return 0, nil
	}
	var cats []string
	for _, c := range strings.Split(body, ",") {
		cats = append(cats, strings.TrimSpace(c))
	}
	return p.LevelOf(cats...)
}

// Lookup implements Lattice through ParseLevel.
func (p *Powerset) Lookup(s string) (Level, bool) {
	l, err := p.ParseLevel(s)
	return l, err == nil
}

// MinComplement implements ComplementMinimizer: the unique minimal set
// whose union with others includes rhs is the set difference rhs − others.
func (p *Powerset) MinComplement(others, rhs Level) Level {
	p.check(others)
	p.check(rhs)
	return Level(uint64(rhs) &^ uint64(others))
}

func (p *Powerset) check(l Level) {
	if !p.Contains(l) {
		panic(fmt.Sprintf("powerset %q: level handle %d out of range", p.name, l))
	}
}
