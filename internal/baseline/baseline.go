// Package baseline implements the comparison algorithms the paper
// positions Algorithm 3.1 against, plus exact oracles used to validate the
// solver in tests:
//
//   - BruteForce: exhaustive enumeration of all satisfying assignments over
//     an enumerable lattice, yielding the exact set of minimal solutions —
//     the "examine all possible solutions" approach of the optimal-
//     upgrading literature ([4,17] in the paper) and the ground truth for
//     minimality tests.
//   - IsMinimal: a focused exact check that a given solution admits no
//     satisfying assignment strictly below it.
//   - Qian: the polynomial view-based propagation of [13], which satisfies
//     the constraints by upgrading every left-hand-side attribute of each
//     violated constraint and therefore tends to overclassify (experiment
//     E5).
//   - Backtracking: the rejected alternative (1) of §3.2 — back-propagation
//     with backtracking over the choice of which left-hand-side attribute
//     carries each complex constraint; worst-case cost proportional to the
//     product of the left-hand-side sizes (experiment E6).
//   - CheapestUpgrade: cost-optimal upgrading in the style of Stickel [16],
//     selecting among the brute-force minimal solutions the one with the
//     fewest upgraded attributes (exponential; small instances only).
package baseline

import (
	"context"
	"errors"
	"fmt"
	"math"

	"minup/internal/constraint"
	"minup/internal/lattice"
	"minup/internal/obs"
)

// EnumLimit guards the exponential oracles: enumerating more than this many
// assignments returns an error instead of running forever.
const EnumLimit = 20_000_000

// ErrLimit reports that an exponential oracle refused to run because its
// enumeration would exceed EnumLimit (or the caller-supplied vector
// budget). Detect it with errors.Is.
var (
	ErrLimit = errors.New("baseline: enumeration limit exceeded")

	// ErrCanceled reports that Qian stopped because its context was
	// canceled; the wrapped cause also satisfies
	// errors.Is(err, context.Canceled) / context.DeadlineExceeded.
	ErrCanceled = errors.New("baseline: canceled")

	// ErrUnsatisfiable reports that exhaustive search proved the
	// constraints admit no solution.
	ErrUnsatisfiable = errors.New("baseline: no satisfying assignment")
)

// cancelStride is how many worklist pops pass between Qian's context
// polls.
const cancelStride = 8192

// BruteForce enumerates every assignment over the (enumerable) lattice and
// returns all pointwise-minimal satisfying assignments. The search space is
// |L|^|A|; callers must keep instances tiny.
func BruteForce(s *constraint.Set) ([]constraint.Assignment, error) {
	lat, ok := s.Lattice().(lattice.Enumerable)
	if !ok {
		return nil, fmt.Errorf("baseline: brute force requires an enumerable lattice, have %T", s.Lattice())
	}
	elems := lat.Elements()
	n := s.NumAttrs()
	if total := math.Pow(float64(len(elems)), float64(n)); total > EnumLimit {
		return nil, fmt.Errorf("baseline: %d^%d assignments: %w", len(elems), n, ErrLimit)
	}

	var sols []constraint.Assignment
	cur := make(constraint.Assignment, n)
	var walk func(i int)
	walk = func(i int) {
		if i == n {
			if s.Satisfies(cur) {
				sols = append(sols, cur.Clone())
			}
			return
		}
		for _, e := range elems {
			cur[i] = e
			walk(i + 1)
		}
	}
	walk(0)

	// Keep the minimal ones.
	var minimal []constraint.Assignment
	for i, m := range sols {
		isMin := true
		for j, o := range sols {
			if i != j && m.Dominates(s.Lattice(), o) && !m.Equal(o) {
				isMin = false
				break
			}
		}
		if isMin {
			minimal = append(minimal, m)
		}
	}
	return minimal, nil
}

// IsMinimal reports whether m is a minimal solution: it satisfies the set
// and no satisfying assignment lies strictly below it. It enumerates the
// pointwise down-set of m (product of per-attribute down-sets), so it is
// exponential but far cheaper than full brute force and usable on slightly
// larger instances.
func IsMinimal(s *constraint.Set, m constraint.Assignment) (bool, error) {
	if !s.Satisfies(m) {
		return false, nil
	}
	lat, ok := s.Lattice().(lattice.Enumerable)
	if !ok {
		return false, fmt.Errorf("baseline: minimality check requires an enumerable lattice, have %T", s.Lattice())
	}
	n := s.NumAttrs()
	down := make([][]lattice.Level, n)
	total := 1.0
	for i := range down {
		for _, e := range lat.Elements() {
			if lat.Dominates(m[i], e) {
				down[i] = append(down[i], e)
			}
		}
		total *= float64(len(down[i]))
		if total > EnumLimit {
			return false, fmt.Errorf("baseline: down-set enumeration: %w", ErrLimit)
		}
	}
	cur := make(constraint.Assignment, n)
	var found bool
	var walk func(i int)
	walk = func(i int) {
		if found {
			return
		}
		if i == n {
			if !cur.Equal(m) && s.Satisfies(cur) {
				found = true
			}
			return
		}
		for _, e := range down[i] {
			cur[i] = e
			walk(i + 1)
		}
	}
	walk(0)
	return !found, nil
}

// Qian computes a satisfying (generally non-minimal) classification with
// the overclassifying polynomial propagation attributed to [13]: starting
// from ⊥ everywhere, every violated constraint upgrades *all* of its
// left-hand-side attributes with the right-hand-side level, iterated to a
// fixpoint. The result always satisfies lower-bound constraint sets but
// upgrades every member of each association, so it typically classifies
// strictly above Algorithm 3.1's answer; experiment E5 measures by how
// much. Upper-bound constraints are not supported.
//
// The worklist polls ctx periodically and stops with an error satisfying
// errors.Is(err, ErrCanceled) once ctx is done.
func Qian(ctx context.Context, s *constraint.Set) (constraint.Assignment, error) {
	// steps counts worklist pops and upgrades attribute raises.
	var steps, upgrades int
	// Tracing: the baseline is instrumented like SolveContext so E5-style
	// comparisons can be profiled side by side in one trace.
	if parent := obs.SpanFromContext(ctx); parent != nil {
		sp := parent.Child("qian")
		defer func() {
			sp.SetAttr("steps", int64(steps))
			sp.SetAttr("upgrades", int64(upgrades))
			sp.End()
		}()
	}
	if len(s.UpperBounds()) > 0 {
		return nil, fmt.Errorf("baseline: Qian propagation does not support upper bounds")
	}
	lat := s.Lattice()
	n := s.NumAttrs()
	m := make(constraint.Assignment, n)
	for i := range m {
		m[i] = lat.Bottom()
	}
	cons := s.Constraints()
	onLHS := s.ConstraintsOn()
	into := s.ConstraintsInto()

	inQueue := make([]bool, len(cons))
	queue := make([]int, 0, len(cons))
	push := func(ci int) {
		if !inQueue[ci] {
			inQueue[ci] = true
			queue = append(queue, ci)
		}
	}
	for ci := range cons {
		push(ci)
	}
	for len(queue) > 0 {
		steps++
		if steps%cancelStride == 0 && ctx.Err() != nil {
			return nil, fmt.Errorf("baseline: %w: %w", ErrCanceled, context.Cause(ctx))
		}
		ci := queue[0]
		queue = queue[1:]
		inQueue[ci] = false
		c := cons[ci]
		rhs := s.RHSLevel(m, c.RHS)
		if lat.Dominates(s.LubLHS(m, c.LHS), rhs) {
			continue
		}
		for _, a := range c.LHS {
			up := lat.Lub(m[a], rhs)
			if up == m[a] {
				continue
			}
			m[a] = up
			upgrades++
			// Re-examine constraints where a appears on either side.
			for _, dep := range onLHS[a] {
				push(dep)
			}
			for _, dep := range into[a] {
				push(dep)
			}
		}
	}
	return m, nil
}

// Backtracking computes a minimal classification by the method the paper
// rejects in §3.2: back-propagation augmented with backtracking over which
// left-hand-side attribute is upgraded to carry each complex constraint.
// For every choice vector it computes the least fixpoint in which only the
// chosen attribute of each complex constraint is upgraded (with the full
// right-hand-side level), then returns a pointwise-minimal result across
// all vectors. The number of vectors is the product of the left-hand-side
// sizes — the exponential cost the paper cites as the reason to reject the
// approach. MaxVectors bounds the search.
//
// On distributive category lattices the carrier receives the whole
// right-hand side rather than the complement of its peers, so the result
// can overclassify relative to Algorithm 3.1; on total orders it is exact.
func Backtracking(s *constraint.Set, maxVectors int) (constraint.Assignment, int, error) {
	if len(s.UpperBounds()) > 0 {
		return nil, 0, fmt.Errorf("baseline: backtracking solver does not support upper bounds")
	}
	lat := s.Lattice()
	var complex []int
	for ci, c := range s.Constraints() {
		if !c.Simple() {
			complex = append(complex, ci)
		}
	}
	vectors := 1
	for _, ci := range complex {
		vectors *= len(s.Constraints()[ci].LHS)
		if vectors > maxVectors {
			return nil, vectors, fmt.Errorf("baseline: %d choice vectors exceeds limit %d: %w", vectors, maxVectors, ErrLimit)
		}
	}

	choice := make([]int, len(complex))
	var best constraint.Assignment
	explored := 0
	for {
		explored++
		m := leastFixpoint(s, complex, choice)
		if best == nil || (best.Dominates(lat, m) && !best.Equal(m)) {
			best = m
		}
		// Advance the mixed-radix choice vector.
		i := 0
		for ; i < len(choice); i++ {
			choice[i]++
			if choice[i] < len(s.Constraints()[complex[i]].LHS) {
				break
			}
			choice[i] = 0
		}
		if i == len(choice) {
			break
		}
	}
	return best, explored, nil
}

// leastFixpoint computes the least assignment in which every simple
// constraint is satisfied by upgrading its lhs attribute and every complex
// constraint by upgrading its chosen carrier.
func leastFixpoint(s *constraint.Set, complex []int, choice []int) constraint.Assignment {
	lat := s.Lattice()
	carrier := make(map[int]constraint.Attr, len(complex))
	for i, ci := range complex {
		carrier[ci] = s.Constraints()[ci].LHS[choice[i]]
	}
	n := s.NumAttrs()
	m := make(constraint.Assignment, n)
	for i := range m {
		m[i] = lat.Bottom()
	}
	for changed := true; changed; {
		changed = false
		for ci, c := range s.Constraints() {
			rhs := s.RHSLevel(m, c.RHS)
			if lat.Dominates(s.LubLHS(m, c.LHS), rhs) {
				continue
			}
			target := c.LHS[0]
			if !c.Simple() {
				target = carrier[ci]
			}
			up := lat.Lub(m[target], rhs)
			if up != m[target] {
				m[target] = up
				changed = true
			}
		}
	}
	return m
}

// CostFunc scores an assignment; lower is better. Used by CheapestUpgrade.
type CostFunc func(s *constraint.Set, m constraint.Assignment) int

// CountUpgraded returns the number of attributes classified strictly above
// the lattice bottom — the "number of upgraded attributes" cost of the
// optimal-upgrading literature.
func CountUpgraded(s *constraint.Set, m constraint.Assignment) int {
	lat := s.Lattice()
	n := 0
	for _, l := range m {
		if l != lat.Bottom() {
			n++
		}
	}
	return n
}

// CheapestUpgrade returns a minimal solution with the smallest cost,
// determined by exhaustive enumeration (the NP-hard optimal-upgrading
// problem of [16,17]; tiny instances only).
func CheapestUpgrade(s *constraint.Set, cost CostFunc) (constraint.Assignment, error) {
	minimal, err := BruteForce(s)
	if err != nil {
		return nil, err
	}
	if len(minimal) == 0 {
		return nil, fmt.Errorf("baseline: %w", ErrUnsatisfiable)
	}
	best := minimal[0]
	bestCost := cost(s, best)
	for _, m := range minimal[1:] {
		if c := cost(s, m); c < bestCost {
			best, bestCost = m, c
		}
	}
	return best, nil
}
