// Package workload generates the synthetic inputs for the experiments and
// randomized property tests: classification-constraint sets with controlled
// shape (size S, left-hand-side width, cyclicity, SCC structure), random
// lattices, and random 3-SAT instances for the Theorem 6.1 reduction.
//
// The paper publishes no experimental workloads (PODS'99 is a theory
// paper), so these generators are parameterized directly by the quantities
// its complexity bounds are stated in — N_A, S, H, B — making the measured
// scaling curves test exactly the claims of Theorem 5.2. All generators
// are deterministic given their seed.
package workload

import (
	"fmt"
	"math/rand"
	"sort"

	"minup/internal/constraint"
	"minup/internal/lattice"
)

// ConstraintSpec describes a random constraint-set shape.
type ConstraintSpec struct {
	Seed           int64
	NumAttrs       int
	NumConstraints int
	// MaxLHS is the maximum left-hand-side width; 1 generates only simple
	// constraints. Widths are drawn uniformly from [1, MaxLHS].
	MaxLHS int
	// LevelRHSFraction is the probability that a constraint's right-hand
	// side is a level constant rather than an attribute.
	LevelRHSFraction float64
	// Cyclic permits cycles: right-hand sides are drawn from the whole
	// attribute universe. When false the generated graph is a DAG (the
	// right-hand side always has a higher attribute index than the whole
	// left-hand side).
	Cyclic bool
	// SingleSCC additionally threads a simple-constraint ring through all
	// attributes so the entire set forms one strongly connected component —
	// the worst case of Theorem 5.2's cyclic bound (experiment E3).
	SingleSCC bool
	// UpperBoundFraction adds, for that fraction of attributes, a §6 upper
	// bound at a level drawn from the upper half of the lattice.
	UpperBoundFraction float64
}

// Constraints generates a random constraint set over the lattice.
func Constraints(lat lattice.Lattice, spec ConstraintSpec) (*constraint.Set, error) {
	if spec.NumAttrs < 2 {
		return nil, fmt.Errorf("workload: need at least 2 attributes, have %d", spec.NumAttrs)
	}
	if spec.MaxLHS < 1 {
		spec.MaxLHS = 1
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	s := constraint.NewSet(lat)
	attrs := make([]constraint.Attr, spec.NumAttrs)
	for i := range attrs {
		a, err := s.AddAttr(fmt.Sprintf("a%03d", i))
		if err != nil {
			return nil, err
		}
		attrs[i] = a
	}

	if spec.SingleSCC {
		if !spec.Cyclic {
			return nil, fmt.Errorf("workload: SingleSCC requires Cyclic")
		}
		for i := range attrs {
			next := attrs[(i+1)%len(attrs)]
			if err := s.Add([]constraint.Attr{attrs[i]}, constraint.AttrRHS(next)); err != nil {
				return nil, err
			}
		}
	}

	for len(s.Constraints()) < spec.NumConstraints {
		width := 1 + rng.Intn(spec.MaxLHS)
		if width > spec.NumAttrs-1 {
			width = spec.NumAttrs - 1
		}
		var lhs []constraint.Attr
		var rhs constraint.RHS
		if spec.Cyclic {
			perm := rng.Perm(spec.NumAttrs)
			for _, i := range perm[:width] {
				lhs = append(lhs, attrs[i])
			}
			if rng.Float64() < spec.LevelRHSFraction {
				rhs = constraint.LevelRHS(RandomLevel(lat, rng))
			} else {
				rhs = constraint.AttrRHS(attrs[perm[width]])
			}
		} else {
			// DAG shape: lhs indices all below the rhs index.
			hi := 1 + rng.Intn(spec.NumAttrs-1) // rhs candidate index ≥ 1
			if width > hi {
				width = hi
			}
			perm := rng.Perm(hi)
			for _, i := range perm[:width] {
				lhs = append(lhs, attrs[i])
			}
			if rng.Float64() < spec.LevelRHSFraction {
				rhs = constraint.LevelRHS(RandomLevel(lat, rng))
			} else {
				rhs = constraint.AttrRHS(attrs[hi])
			}
		}
		if _, err := s.AddIgnoreTrivial(lhs, rhs); err != nil {
			return nil, err
		}
	}

	if spec.UpperBoundFraction > 0 {
		for _, a := range attrs {
			if rng.Float64() < spec.UpperBoundFraction {
				s.MustAddUpper(a, UpperHalfLevel(lat, rng))
			}
		}
	}
	return s, nil
}

// MustConstraints is Constraints that panics on error, for benches.
func MustConstraints(lat lattice.Lattice, spec ConstraintSpec) *constraint.Set {
	s, err := Constraints(lat, spec)
	if err != nil {
		panic(err)
	}
	return s
}

// RandomLevel draws a uniform-ish random level of the lattice: uniform over
// the elements for enumerable lattices, uniform over packed classification
// and category bits for MLS.
func RandomLevel(lat lattice.Lattice, rng *rand.Rand) lattice.Level {
	switch l := lat.(type) {
	case *lattice.MLS:
		mask := rng.Uint64() & (uint64(1)<<l.NumCategories() - 1)
		lvl, err := l.LevelFromParts(rng.Intn(l.NumLevels()), mask)
		if err != nil {
			panic(err)
		}
		return lvl
	case lattice.Enumerable:
		elems := l.Elements()
		return elems[rng.Intn(len(elems))]
	default:
		panic(fmt.Sprintf("workload: cannot sample levels of %T", lat))
	}
}

// UpperHalfLevel draws a random level from the upper half of the lattice
// (a level dominating some mid-chain element), so generated upper bounds
// are loose enough to usually stay consistent.
func UpperHalfLevel(lat lattice.Lattice, rng *rand.Rand) lattice.Level {
	chain := lattice.ChainDown(lat, lat.Top())
	mid := chain[len(chain)/2]
	for i := 0; i < 32; i++ {
		l := RandomLevel(lat, rng)
		if lat.Dominates(l, mid) {
			return l
		}
	}
	return lat.Top()
}

// RandomSublattice builds a random lattice of roughly the requested size as
// a ∪/∩-closed family of subsets of a small universe (every such family is
// a lattice under inclusion, with lub = union and glb = intersection). The
// result is an explicit lattice with precomputed tables.
func RandomSublattice(seed int64, universe, seeds int) (*lattice.Explicit, error) {
	if universe < 1 || universe > 16 {
		return nil, fmt.Errorf("workload: universe must be 1..16, have %d", universe)
	}
	rng := rand.New(rand.NewSource(seed))
	full := uint32(1)<<universe - 1
	family := map[uint32]bool{0: true, full: true}
	var pending []uint32
	for i := 0; i < seeds; i++ {
		pending = append(pending, uint32(rng.Intn(int(full)+1)))
	}
	// Close under union and intersection.
	for len(pending) > 0 {
		x := pending[len(pending)-1]
		pending = pending[:len(pending)-1]
		if family[x] {
			continue
		}
		for y := range family {
			if u := x | y; !family[u] && u != x {
				pending = append(pending, u)
			}
			if v := x & y; !family[v] && v != x {
				pending = append(pending, v)
			}
		}
		family[x] = true
	}

	members := make([]uint32, 0, len(family))
	for x := range family {
		members = append(members, x)
	}
	sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
	names := make([]string, len(members))
	index := make(map[uint32]int, len(members))
	for i, x := range members {
		names[i] = fmt.Sprintf("s%04x", x)
		index[x] = i
	}
	// Hasse diagram: y is covered by x iff y ⊂ x with nothing between.
	covers := make(map[string][]string)
	for _, x := range members {
		for _, y := range members {
			if y == x || x&y != y {
				continue // need y ⊂ x
			}
			immediate := true
			for _, z := range members {
				if z != x && z != y && x&z == z && z&y == y {
					immediate = false
					break
				}
			}
			if immediate {
				covers[names[index[x]]] = append(covers[names[index[x]]], names[index[y]])
			}
		}
	}
	return lattice.NewExplicit(fmt.Sprintf("rand-sublattice-%d", seed), names, covers)
}

// SAT3 is a 3-SAT instance: each clause has exactly three literals;
// positive literal i is variable i (0-based), negative is ^i (bitwise
// complement).
type SAT3 struct {
	NumVars int
	Clauses [][3]int
}

// RandomSAT3 generates a random 3-SAT instance with the given number of
// variables and clauses, each clause over three distinct variables with
// random polarities.
func RandomSAT3(seed int64, numVars, numClauses int) (*SAT3, error) {
	if numVars < 3 {
		return nil, fmt.Errorf("workload: 3-SAT needs at least 3 variables")
	}
	rng := rand.New(rand.NewSource(seed))
	inst := &SAT3{NumVars: numVars}
	for i := 0; i < numClauses; i++ {
		perm := rng.Perm(numVars)
		var cl [3]int
		for j := 0; j < 3; j++ {
			v := perm[j]
			if rng.Intn(2) == 1 {
				cl[j] = ^v
			} else {
				cl[j] = v
			}
		}
		inst.Clauses = append(inst.Clauses, cl)
	}
	return inst, nil
}
