package lattice

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
)

// MLS capacity limits. DoD 5200.28-STD calls for at most 16 hierarchical
// classifications and 64 categories; packing one access class into a single
// uint64 handle (4 bits of classification + up to 60 category bits) keeps
// every lattice operation a couple of machine instructions, which is the
// "effectively constant-time lattice operations" observation of §5 of the
// paper. Applications needing 61–64 categories can split them across a
// Product of an MLS and a Powerset lattice.
const (
	MaxMLSLevels     = 16
	MaxMLSCategories = 60
	mlsLevelShift    = 60
	mlsCatMask       = (uint64(1) << mlsLevelShift) - 1
)

// MLS is the compartmented security lattice of Figure 1(a): access classes
// are pairs (classification, category set), where classifications come from
// a small total order and categories from an unordered universe. An access
// class dominates another iff its classification is at least as high and
// its category set is a superset. The lattice has numLevels × 2^numCats
// elements and is deliberately not Enumerable; all operations work directly
// on the packed representation.
type MLS struct {
	name     string
	levels   []string // classification names, bottom-up
	cats     []string // category names, bit i ↔ cats[i]
	levelIdx map[string]uint64
	catIdx   map[string]uint
}

var _ Lattice = (*MLS)(nil)
var _ ComplementMinimizer = (*MLS)(nil)

// NewMLS builds a compartmented lattice from classification names (listed
// bottom-up) and category names.
func NewMLS(name string, levels, categories []string) (*MLS, error) {
	if len(levels) == 0 {
		return nil, fmt.Errorf("mls %q: no classification levels", name)
	}
	if len(levels) > MaxMLSLevels {
		return nil, fmt.Errorf("mls %q: %d levels exceeds limit %d", name, len(levels), MaxMLSLevels)
	}
	if len(categories) > MaxMLSCategories {
		return nil, fmt.Errorf("mls %q: %d categories exceeds limit %d", name, len(categories), MaxMLSCategories)
	}
	m := &MLS{
		name:     name,
		levels:   append([]string(nil), levels...),
		cats:     append([]string(nil), categories...),
		levelIdx: make(map[string]uint64, len(levels)),
		catIdx:   make(map[string]uint, len(categories)),
	}
	for i, l := range levels {
		if l == "" {
			return nil, fmt.Errorf("mls %q: empty classification name", name)
		}
		if strings.ContainsAny(l, "<>{},") {
			return nil, fmt.Errorf("mls %q: classification %q contains a reserved character", name, l)
		}
		if _, dup := m.levelIdx[l]; dup {
			return nil, fmt.Errorf("mls %q: duplicate classification %q", name, l)
		}
		m.levelIdx[l] = uint64(i)
	}
	for i, c := range categories {
		if c == "" {
			return nil, fmt.Errorf("mls %q: empty category name", name)
		}
		if strings.ContainsAny(c, "<>{},") {
			return nil, fmt.Errorf("mls %q: category %q contains a reserved character", name, c)
		}
		if _, dup := m.catIdx[c]; dup {
			return nil, fmt.Errorf("mls %q: duplicate category %q", name, c)
		}
		m.catIdx[c] = uint(i)
	}
	return m, nil
}

// MustMLS is NewMLS that panics on error, for static fixtures.
func MustMLS(name string, levels, categories []string) *MLS {
	m, err := NewMLS(name, levels, categories)
	if err != nil {
		panic(err)
	}
	return m
}

// NumLevels returns the number of hierarchical classifications.
func (m *MLS) NumLevels() int { return len(m.levels) }

// NumCategories returns the number of categories.
func (m *MLS) NumCategories() int { return len(m.cats) }

// Count returns the total number of access classes in the lattice.
func (m *MLS) Count() uint64 { return uint64(len(m.levels)) << uint(len(m.cats)) }

// LevelOf packs an access class from a classification name and categories.
func (m *MLS) LevelOf(classification string, categories ...string) (Level, error) {
	cl, ok := m.levelIdx[classification]
	if !ok {
		return 0, &levelError{"mls %q: unknown classification %q", m.name, classification}
	}
	var mask uint64
	for _, c := range categories {
		i, ok := m.catIdx[c]
		if !ok {
			return 0, &levelError{"mls %q: unknown category %q", m.name, c}
		}
		mask |= 1 << i
	}
	return Level(cl<<mlsLevelShift | mask), nil
}

// MustLevel is LevelOf that panics on error, for static fixtures.
func (m *MLS) MustLevel(classification string, categories ...string) Level {
	l, err := m.LevelOf(classification, categories...)
	if err != nil {
		panic(err)
	}
	return l
}

// LevelFromParts packs an access class from a classification index
// (0 = lowest) and a category bitmask (bit i ↔ the i-th declared category).
func (m *MLS) LevelFromParts(classification int, catMask uint64) (Level, error) {
	if classification < 0 || classification >= len(m.levels) {
		return 0, fmt.Errorf("mls %q: classification index %d out of range", m.name, classification)
	}
	if catMask&^m.fullMask() != 0 {
		return 0, fmt.Errorf("mls %q: category mask %#x has undeclared bits", m.name, catMask)
	}
	return Level(uint64(classification)<<mlsLevelShift | catMask), nil
}

// Split unpacks a level into its classification index and category mask.
func (m *MLS) Split(l Level) (classification uint64, catMask uint64) {
	m.check(l)
	return uint64(l) >> mlsLevelShift, uint64(l) & mlsCatMask
}

// Name implements Lattice.
func (m *MLS) Name() string { return m.name }

// Top implements Lattice: highest classification, all categories.
func (m *MLS) Top() Level {
	return Level(uint64(len(m.levels)-1)<<mlsLevelShift | m.fullMask())
}

// Bottom implements Lattice: lowest classification, no categories.
func (m *MLS) Bottom() Level { return 0 }

func (m *MLS) fullMask() uint64 { return uint64(1)<<uint(len(m.cats)) - 1 }

// Dominates implements Lattice: classification at least as high and
// category superset.
func (m *MLS) Dominates(a, b Level) bool {
	m.check(a)
	m.check(b)
	return uint64(a)>>mlsLevelShift >= uint64(b)>>mlsLevelShift &&
		uint64(b)&mlsCatMask&^uint64(a) == 0
}

// Lub implements Lattice: max classification, category union.
func (m *MLS) Lub(a, b Level) Level {
	m.check(a)
	m.check(b)
	la, lb := uint64(a)>>mlsLevelShift, uint64(b)>>mlsLevelShift
	if lb > la {
		la = lb
	}
	return Level(la<<mlsLevelShift | (uint64(a)|uint64(b))&mlsCatMask)
}

// Glb implements Lattice: min classification, category intersection.
func (m *MLS) Glb(a, b Level) Level {
	m.check(a)
	m.check(b)
	la, lb := uint64(a)>>mlsLevelShift, uint64(b)>>mlsLevelShift
	if lb < la {
		la = lb
	}
	return Level(la<<mlsLevelShift | uint64(a)&uint64(b)&mlsCatMask)
}

// Covers implements Lattice. The immediate descendants of (s, C) are
// (s, C−{c}) for each category c ∈ C, in ascending bit order, followed by
// (s−1, C) when s > ⊥'s classification. This fixed order is the
// "left-to-right" descent order of the paper's examples.
func (m *MLS) Covers(a Level) []Level {
	m.check(a)
	cl, mask := uint64(a)>>mlsLevelShift, uint64(a)&mlsCatMask
	out := make([]Level, 0, bits.OnesCount64(mask)+1)
	for w := mask; w != 0; w &= w - 1 {
		bit := w & -w
		out = append(out, Level(cl<<mlsLevelShift|mask&^bit))
	}
	if cl > 0 {
		out = append(out, Level((cl-1)<<mlsLevelShift|mask))
	}
	return out
}

// CoveredBy implements Lattice: add one missing category or raise the
// classification one step.
func (m *MLS) CoveredBy(a Level) []Level {
	m.check(a)
	cl, mask := uint64(a)>>mlsLevelShift, uint64(a)&mlsCatMask
	missing := m.fullMask() &^ mask
	out := make([]Level, 0, bits.OnesCount64(missing)+1)
	for w := missing; w != 0; w &= w - 1 {
		bit := w & -w
		out = append(out, Level(cl<<mlsLevelShift|mask|bit))
	}
	if cl < uint64(len(m.levels)-1) {
		out = append(out, Level((cl+1)<<mlsLevelShift|mask))
	}
	return out
}

// Height implements Lattice: (levels−1) + categories.
func (m *MLS) Height() int { return len(m.levels) - 1 + len(m.cats) }

// Contains implements Lattice.
func (m *MLS) Contains(l Level) bool {
	return uint64(l)>>mlsLevelShift < uint64(len(m.levels)) &&
		uint64(l)&mlsCatMask&^m.fullMask() == 0
}

// FormatLevel implements Lattice, rendering e.g. "<TS,{Army,Nuclear}>".
func (m *MLS) FormatLevel(l Level) string {
	m.check(l)
	cl, mask := uint64(l)>>mlsLevelShift, uint64(l)&mlsCatMask
	var names []string
	for i, c := range m.cats {
		if mask&(1<<uint(i)) != 0 {
			names = append(names, c)
		}
	}
	sort.Strings(names)
	return "<" + m.levels[cl] + ",{" + strings.Join(names, ",") + "}>"
}

// ParseLevel implements Lattice, accepting either the FormatLevel form
// "<TS,{A,B}>" or a bare classification name "TS" (meaning no categories).
func (m *MLS) ParseLevel(s string) (Level, error) {
	s = strings.TrimSpace(s)
	if !strings.HasPrefix(s, "<") {
		return m.LevelOf(s)
	}
	if !strings.HasSuffix(s, "}>") {
		return 0, fmt.Errorf("mls %q: level %q not of the form <CL,{a,b}>", m.name, s)
	}
	body := strings.TrimSuffix(strings.TrimPrefix(s, "<"), "}>")
	comma := strings.Index(body, ",{")
	if comma < 0 {
		return 0, fmt.Errorf("mls %q: level %q not of the form <CL,{a,b}>", m.name, s)
	}
	cl := strings.TrimSpace(body[:comma])
	catBody := strings.TrimSpace(body[comma+2:])
	var cats []string
	if catBody != "" {
		for _, c := range strings.Split(catBody, ",") {
			cats = append(cats, strings.TrimSpace(c))
		}
	}
	return m.LevelOf(cl, cats...)
}

// MinComplement implements ComplementMinimizer with the closed form of
// footnote 4: the minimal level l with Lub(l, others) ≽ rhs has
// classification rhs_l when others_l < rhs_l (⊥'s classification
// otherwise) and categories rhs_c − others_c.
func (m *MLS) MinComplement(others, rhs Level) Level {
	m.check(others)
	m.check(rhs)
	oCl, oMask := uint64(others)>>mlsLevelShift, uint64(others)&mlsCatMask
	rCl, rMask := uint64(rhs)>>mlsLevelShift, uint64(rhs)&mlsCatMask
	cl := uint64(0)
	if oCl < rCl {
		cl = rCl
	}
	return Level(cl<<mlsLevelShift | rMask&^oMask)
}

func (m *MLS) check(l Level) {
	if !m.Contains(l) {
		panic(fmt.Sprintf("mls %q: level handle %d out of range", m.name, l))
	}
}
