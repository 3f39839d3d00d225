package core

import (
	"context"
	"fmt"
	"strings"

	"minup/internal/constraint"
	"minup/internal/lattice"
)

// The §6 preprocessing pass itself (the firm-bound fixpoint) runs at
// compile time — see constraint.Compiled and upperBoundFixpoint in the
// constraint package — so that repeated solves of one compiled set never
// repeat it. This file exposes the result and layers the inconsistency
// diagnosis on top.

// InconsistencyError reports that a constraint set mixing §6 upper-bound
// constraints with lower-bound constraints admits no solution. Conflicts
// lists human-readable descriptions of the constraints that clash. It
// satisfies errors.Is(err, ErrUnsolvable).
type InconsistencyError struct {
	Conflicts []string
}

func (e *InconsistencyError) Error() string {
	return fmt.Sprintf("core: constraints are inconsistent: %s", strings.Join(e.Conflicts, "; "))
}

// Unwrap ties the diagnosis into the typed error taxonomy.
func (e *InconsistencyError) Unwrap() error { return ErrUnsolvable }

// DeriveUpperBoundsContext returns the §6 preprocessing result for a
// compiled set: the firm maximum level of every attribute, or an
// *InconsistencyError. Sets without upper bounds report every attribute
// bounded by ⊤. The fixpoint itself was computed at compile time; the
// context is only consulted for prompt cancellation.
func DeriveUpperBoundsContext(ctx context.Context, c *constraint.Compiled) (constraint.Assignment, error) {
	if c == nil {
		return nil, ErrNotCompiled
	}
	if err := ctx.Err(); err != nil {
		return nil, canceled(ctx)
	}
	ub, conflicts := c.UpperBoundFixpoint()
	if conflicts != nil {
		return nil, &InconsistencyError{Conflicts: conflicts}
	}
	if ub == nil {
		// No upper bounds: every attribute may sit at ⊤.
		lat := c.Lattice()
		ub = make(constraint.Assignment, c.NumAttrs())
		for i := range ub {
			ub[i] = lat.Top()
		}
	}
	return ub, nil
}

// DeriveUpperBounds exposes the §6 preprocessing pass for inspection and
// testing: the firm maximum level of every attribute, or an
// *InconsistencyError. One-shot compatibility path; compiles a snapshot
// per call.
func DeriveUpperBounds(s *constraint.Set) (constraint.Assignment, error) {
	return DeriveUpperBoundsContext(context.Background(), s.Snapshot())
}

// CheckSolvable reports nil when the constraint set has a solution.
// Lower-bound-only sets are always solvable; mixed sets are solvable iff
// the §6 preprocessing pass finds no inconsistency.
func CheckSolvable(s *constraint.Set) error {
	if len(s.UpperBounds()) == 0 {
		return nil
	}
	_, err := DeriveUpperBounds(s)
	return err
}

// SemiLatticeDiagnosis interprets a solve over a lattice completed from a
// semi-lattice by lattice.CompleteToLattice (§6): attributes pinned at the
// injected dummy ⊤ have unsatisfiable requirements (no real level is high
// enough), and attributes resting at the injected dummy ⊥ were effectively
// unconstrained (which the paper suggests flagging as input
// incompleteness).
type SemiLatticeDiagnosis struct {
	// Unsatisfiable lists attributes stuck at the dummy top.
	Unsatisfiable []constraint.Attr
	// Unconstrained lists attributes resting at the dummy bottom.
	Unconstrained []constraint.Attr
}

// OK reports whether the solution uses no dummy level, i.e. is a genuine
// classification into the original semi-lattice.
func (d *SemiLatticeDiagnosis) OK() bool {
	return len(d.Unsatisfiable) == 0 && len(d.Unconstrained) == 0
}

// DiagnoseSemiLattice inspects a result computed over a completed
// semi-lattice. The lattice of the constraint set must be an
// *lattice.Explicit produced by lattice.CompleteToLattice.
func DiagnoseSemiLattice(s *constraint.Set, res *Result) (*SemiLatticeDiagnosis, error) {
	e, ok := s.Lattice().(*lattice.Explicit)
	if !ok {
		return nil, fmt.Errorf("core: semi-lattice diagnosis requires an explicit lattice, have %T", s.Lattice())
	}
	d := &SemiLatticeDiagnosis{}
	for _, a := range s.Attrs() {
		lvl := res.Assignment[a]
		if !lattice.IsDummy(e, lvl) {
			continue
		}
		if lvl == e.Top() {
			d.Unsatisfiable = append(d.Unsatisfiable, a)
		} else {
			d.Unconstrained = append(d.Unconstrained, a)
		}
	}
	return d, nil
}
