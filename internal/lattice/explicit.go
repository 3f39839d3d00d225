package lattice

import (
	"fmt"
	"math/bits"
	"strings"
)

// Explicit is an arbitrary finite lattice defined by its Hasse diagram.
// Construction computes the reflexive-transitive closure of the cover
// relation as bitsets, giving O(|L|/64)-word dominance tests, and
// materializes lub/glb tables so that the lattice-operation cost factor c
// of Theorem 5.2 is a constant, as §5 of the paper argues is achievable
// through lattice encoding. Use NaiveOps to get the un-encoded comparison
// point for the encoding experiments.
type Explicit struct {
	name    string
	names   []string
	index   map[string]int
	covers  [][]Level // covers[i]: immediate descendants, declaration order
	covered [][]Level // covered[i]: immediate ancestors
	up      []bitset  // up[i]: the up-set {j : j ≽ i}, including i
	lub     []Level   // lub[i*n+j]
	glb     []Level   // glb[i*n+j]
	top     Level
	bottom  Level
	height  int
	elems   []Level
}

var (
	_ Enumerable = (*Explicit)(nil)
)

// bitset is a fixed-width bitset over element indices.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int)      { b[i/64] |= 1 << (uint(i) % 64) }
func (b bitset) has(i int) bool { return b[i/64]&(1<<(uint(i)%64)) != 0 }

func (b bitset) or(o bitset) {
	for i := range b {
		b[i] |= o[i]
	}
}

// subset reports whether b ⊆ o.
func (b bitset) subset(o bitset) bool {
	for i := range b {
		if b[i]&^o[i] != 0 {
			return false
		}
	}
	return true
}

func (b bitset) and(o bitset) bitset {
	c := make(bitset, len(b))
	for i := range b {
		c[i] = b[i] & o[i]
	}
	return c
}

// NewExplicit builds a lattice from named elements and a cover relation.
// covers maps each element name to the names of its immediate descendants
// (the elements it covers), in the left-to-right order Algorithm 3.1's
// lattice descents will follow. Every name mentioned in covers must appear
// in names. NewExplicit verifies that the resulting order is a lattice
// with a unique top and bottom and that every pair of elements has a least
// upper bound and greatest lower bound; it returns a descriptive error
// otherwise (use poset.FromCovers for arbitrary partial orders).
func NewExplicit(name string, names []string, covers map[string][]string) (*Explicit, error) {
	n := len(names)
	if n == 0 {
		return nil, fmt.Errorf("lattice %q: no elements", name)
	}
	e := &Explicit{
		name:    name,
		names:   append([]string(nil), names...),
		index:   make(map[string]int, n),
		covers:  make([][]Level, n),
		covered: make([][]Level, n),
		up:      make([]bitset, n),
		elems:   make([]Level, n),
	}
	for i, nm := range names {
		if nm == "" {
			return nil, fmt.Errorf("lattice %q: empty element name", name)
		}
		if _, dup := e.index[nm]; dup {
			return nil, fmt.Errorf("lattice %q: duplicate element %q", name, nm)
		}
		e.index[nm] = i
		e.elems[i] = Level(i)
	}
	for from, tos := range covers {
		i, ok := e.index[from]
		if !ok {
			return nil, fmt.Errorf("lattice %q: cover source %q not declared", name, from)
		}
		for _, to := range tos {
			j, ok := e.index[to]
			if !ok {
				return nil, fmt.Errorf("lattice %q: cover target %q not declared", name, to)
			}
			if i == j {
				return nil, fmt.Errorf("lattice %q: self-cover on %q", name, from)
			}
			e.covers[i] = append(e.covers[i], Level(j))
			e.covered[j] = append(e.covered[j], Level(i))
		}
	}
	if err := e.finish(); err != nil {
		return nil, err
	}
	return e, nil
}

// finish computes closures, identifies top/bottom, validates the lattice
// property, and fills the lub/glb tables.
func (e *Explicit) finish() error {
	n := len(e.names)
	// Topological order over the cover DAG (edges point downward).
	indeg := make([]int, n)
	for i := 0; i < n; i++ {
		for _, j := range e.covers[i] {
			indeg[j]++
		}
	}
	queue := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			queue = append(queue, i)
		}
	}
	order := make([]int, 0, n)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		order = append(order, u)
		for _, v := range e.covers[u] {
			indeg[v]--
			if indeg[v] == 0 {
				queue = append(queue, int(v))
			}
		}
	}
	if len(order) != n {
		return fmt.Errorf("lattice %q: cover relation is cyclic", e.name)
	}
	// Up-sets: walk in reverse topological order of the *upward* direction:
	// process tops first so each node can union its ancestors' sets.
	for i := range e.up {
		e.up[i] = newBitset(n)
		e.up[i].set(i)
	}
	for _, u := range order { // order has ancestors before descendants
		for _, v := range e.covers[u] {
			e.up[v].or(e.up[u])
		}
	}
	// Unique top: exactly one element with no ancestors; unique bottom:
	// exactly one with no descendants.
	var tops, bottoms []int
	for i := 0; i < n; i++ {
		if len(e.covered[i]) == 0 {
			tops = append(tops, i)
		}
		if len(e.covers[i]) == 0 {
			bottoms = append(bottoms, i)
		}
	}
	if len(tops) != 1 {
		return fmt.Errorf("lattice %q: %d maximal elements %v (need exactly one top; wrap with AddDummyTop for semi-lattices)",
			e.name, len(tops), namesOf(e, tops))
	}
	if len(bottoms) != 1 {
		return fmt.Errorf("lattice %q: %d minimal elements %v (need exactly one bottom; wrap with AddDummyBottom for semi-lattices)",
			e.name, len(bottoms), namesOf(e, bottoms))
	}
	e.top, e.bottom = Level(tops[0]), Level(bottoms[0])

	// Height: longest downward path from top.
	depth := make([]int, n)
	for _, u := range order {
		for _, v := range e.covers[u] {
			if depth[u]+1 > depth[v] {
				depth[v] = depth[u] + 1
			}
		}
	}
	for _, d := range depth {
		if d > e.height {
			e.height = d
		}
	}

	// Lub/glb tables. For each pair, the common upper bounds are
	// up[i] ∩ up[j]; their least element u is the one every member
	// dominates, i.e. the unique u with (up[i] ∩ up[j]) ⊆ up[u].
	// Symmetrically for glb with down-sets (j ∈ down[i] iff i ∈ up[j]).
	down := make([]bitset, n)
	for i := 0; i < n; i++ {
		down[i] = newBitset(n)
	}
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			if e.up[j].has(i) { // i ≽ j? up[j] = {i : i ≽ j}; so i in up[j] means i ≽ j, i.e. j ∈ down[i].
				down[i].set(j)
			}
		}
	}
	e.lub = make([]Level, n*n)
	e.glb = make([]Level, n*n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			ub := e.up[i].and(e.up[j])
			u, ok := leastOf(ub, e.up)
			if !ok {
				return fmt.Errorf("lattice %q: elements %q and %q have no least upper bound",
					e.name, e.names[i], e.names[j])
			}
			lb := down[i].and(down[j])
			g, ok := greatestOf(lb, down)
			if !ok {
				return fmt.Errorf("lattice %q: elements %q and %q have no greatest lower bound",
					e.name, e.names[i], e.names[j])
			}
			e.lub[i*n+j], e.lub[j*n+i] = Level(u), Level(u)
			e.glb[i*n+j], e.glb[j*n+i] = Level(g), Level(g)
		}
	}
	return nil
}

// leastOf returns the unique element u of set such that every member of set
// dominates u, i.e. set ⊆ up[u].
func leastOf(set bitset, up []bitset) (int, bool) {
	for wi, w := range set {
		for ; w != 0; w &= w - 1 {
			u := wi*64 + bits.TrailingZeros64(w)
			if set.subset(up[u]) {
				return u, true
			}
		}
	}
	return 0, false
}

// greatestOf returns the unique element g of set such that g dominates
// every member, i.e. set ⊆ down[g].
func greatestOf(set bitset, down []bitset) (int, bool) {
	for wi, w := range set {
		for ; w != 0; w &= w - 1 {
			g := wi*64 + bits.TrailingZeros64(w)
			if set.subset(down[g]) {
				return g, true
			}
		}
	}
	return 0, false
}

func namesOf(e *Explicit, idx []int) []string {
	out := make([]string, len(idx))
	for i, j := range idx {
		out[i] = e.names[j]
	}
	return out
}

// Name implements Lattice.
func (e *Explicit) Name() string { return e.name }

// Size returns the number of elements.
func (e *Explicit) Size() int { return len(e.names) }

// Top implements Lattice.
func (e *Explicit) Top() Level { return e.top }

// Bottom implements Lattice.
func (e *Explicit) Bottom() Level { return e.bottom }

// Dominates implements Lattice via the closure bitsets.
func (e *Explicit) Dominates(a, b Level) bool {
	e.check(a)
	e.check(b)
	return e.up[b].has(int(a))
}

// Lub implements Lattice via the precomputed table.
func (e *Explicit) Lub(a, b Level) Level {
	e.check(a)
	e.check(b)
	return e.lub[int(a)*len(e.names)+int(b)]
}

// Glb implements Lattice via the precomputed table.
func (e *Explicit) Glb(a, b Level) Level {
	e.check(a)
	e.check(b)
	return e.glb[int(a)*len(e.names)+int(b)]
}

// Covers implements Lattice.
func (e *Explicit) Covers(a Level) []Level { e.check(a); return e.covers[a] }

// CoveredBy implements Lattice.
func (e *Explicit) CoveredBy(a Level) []Level { e.check(a); return e.covered[a] }

// Height implements Lattice.
func (e *Explicit) Height() int { return e.height }

// Contains implements Lattice.
func (e *Explicit) Contains(l Level) bool { return int(l) < len(e.names) }

// Elements implements Enumerable.
func (e *Explicit) Elements() []Level { return e.elems }

// FormatLevel implements Lattice.
func (e *Explicit) FormatLevel(l Level) string {
	e.check(l)
	return e.names[l]
}

// ParseLevel implements Lattice.
func (e *Explicit) ParseLevel(s string) (Level, error) {
	if i, ok := e.index[strings.TrimSpace(s)]; ok {
		return Level(i), nil
	}
	return 0, &levelError{"lattice %q: unknown level %q", e.name, s}
}

func (e *Explicit) check(l Level) {
	if int(l) >= len(e.names) {
		panic(fmt.Sprintf("lattice %q: level handle %d out of range (foreign lattice?)", e.name, l))
	}
}

// NaiveOps wraps an Explicit lattice with operations that walk the Hasse
// diagram instead of consulting the closure bitsets and tables: dominance
// by depth-first search over covers, lub/glb by frontier search over common
// bounds. It answers identically to the wrapped lattice and exists solely
// as the "no encoding" comparison point for the §5 lattice-operation-cost
// experiments (E4).
type NaiveOps struct {
	*Explicit
}

// Name implements Lattice.
func (n NaiveOps) Name() string { return n.Explicit.Name() + " (naive ops)" }

// Dominates walks the Hasse diagram downward from a looking for b.
func (n NaiveOps) Dominates(a, b Level) bool {
	if a == b {
		return true
	}
	seen := make(map[Level]bool)
	stack := []Level{a}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range n.Explicit.Covers(u) {
			if v == b {
				return true
			}
			if !seen[v] {
				seen[v] = true
				stack = append(stack, v)
			}
		}
	}
	return false
}

// Lub finds the least common upper bound by enumerating the up-set of a via
// upward search and picking the minimal element that also dominates b.
func (n NaiveOps) Lub(a, b Level) Level {
	// Collect all common upper bounds.
	var common []Level
	seen := make(map[Level]bool)
	stack := []Level{a}
	seen[a] = true
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n.Dominates(u, b) {
			common = append(common, u)
		}
		for _, v := range n.Explicit.CoveredBy(u) {
			if !seen[v] {
				seen[v] = true
				stack = append(stack, v)
			}
		}
	}
	// The least element dominates none of the others strictly.
	best := common[0]
	for _, c := range common[1:] {
		if n.Dominates(best, c) {
			best = c
		}
	}
	return best
}

// Glb finds the greatest common lower bound symmetrically to Lub.
func (n NaiveOps) Glb(a, b Level) Level {
	var common []Level
	seen := make(map[Level]bool)
	stack := []Level{a}
	seen[a] = true
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n.Dominates(b, u) {
			common = append(common, u)
		}
		for _, v := range n.Explicit.Covers(u) {
			if !seen[v] {
				seen[v] = true
				stack = append(stack, v)
			}
		}
	}
	best := common[0]
	for _, c := range common[1:] {
		if n.Dominates(c, best) {
			best = c
		}
	}
	return best
}
