package core

import (
	"context"
	"fmt"
	"time"

	"minup/internal/constraint"
	"minup/internal/obs"
)

// Incremental repair: classification constraints evolve as policies are
// refined, and re-solving a large instance from scratch for every added
// constraint is wasteful. Repair takes a minimal solution of a prefix of
// the constraint set and the full (extended) set, and recomputes only the
// attributes whose levels can be forced upward by the new constraints —
// the ancestors, in the constraint graph, of the violated constraints'
// left-hand sides. Unaffected attributes keep their levels.
//
// Guarantees: the result satisfies the extended set, and equals the base
// solution when the additions are already satisfied (in that case the base
// remains minimal: shrinking the solution space cannot create lower
// solutions). When additions are violated, the recomputed region is
// labeled minimally *given* the frozen complement; in rare entangled cases
// a globally lower choice may exist, so callers needing certified global
// minimality set VerifyMinimal, which probes the result and falls back to
// a full solve if a witness is found.
//
// Repair and RepairContext take the extended Set and compile a snapshot of
// it per call; RepairCompiled takes that snapshot, so a caller that also
// keeps the snapshot for later solves compiles the version once. All three
// run in pooled sessions.

// RepairOptions tunes Repair.
type RepairOptions struct {
	// VerifyMinimal probes the repaired solution for global minimality and
	// falls back to a full Solve when the probe finds a strictly lower
	// solution.
	VerifyMinimal bool
}

// RepairStats reports how much work the repair did.
type RepairStats struct {
	// ViolatedConstraints counts the added constraints the base solution
	// violated.
	ViolatedConstraints int
	// Recomputed counts the attributes whose levels were recomputed.
	Recomputed int
	// FellBack reports that a full solve was performed (verification
	// found a lower solution, or the instance has upper bounds).
	FellBack bool
	// Solve carries the operation counts of the solving work the repair
	// performed: the partial solve over the affected region, or the full
	// solve when the repair fell back.
	Solve Stats
	// Duration is the wall time of the whole repair: violation scanning,
	// the partial solve and any fallback solve, plus, for Repair and
	// RepairContext, compiling the snapshot.
	Duration time.Duration
}

// Repair extends a minimal solution after constraints were appended to the
// set. base must be a satisfying assignment for the first baseCount
// constraints of s (typically the Result.Assignment of a previous Solve);
// everything after baseCount is treated as new. Sets with §6 upper bounds
// always fall back to a full solve (the preprocessing pass must see every
// constraint).
func Repair(s *constraint.Set, baseCount int, base constraint.Assignment, opt RepairOptions) (constraint.Assignment, *RepairStats, error) {
	return RepairContext(context.Background(), s, baseCount, base, opt)
}

// RepairContext is Repair with cancellation: the context is polled during
// the partial solve and any fallback full solve, and a canceled context
// yields an error satisfying errors.Is(err, ErrCanceled). It is
// RepairCompiled on a fresh snapshot of s.
func RepairContext(ctx context.Context, s *constraint.Set, baseCount int, base constraint.Assignment, opt RepairOptions) (constraint.Assignment, *RepairStats, error) {
	start := time.Now()
	fixed, stats, err := RepairCompiled(ctx, s.Snapshot(), baseCount, base, opt)
	stats.Duration = time.Since(start)
	return fixed, stats, err
}

// RepairCompiled is RepairContext against a compiled snapshot of the
// extended set: base satisfies the first baseCount of c's constraints.
func RepairCompiled(ctx context.Context, c *constraint.Compiled, baseCount int, base constraint.Assignment, opt RepairOptions) (constraint.Assignment, *RepairStats, error) {
	stats := &RepairStats{}
	if c == nil {
		return nil, stats, ErrNotCompiled
	}
	start := time.Now()
	defer func() { stats.Duration = time.Since(start) }()
	// Tracing: wrap the whole repair (violation scan, reachability, partial
	// solve, fallback) in a "repair" span; inner solves nest under it.
	if parent := obs.SpanFromContext(ctx); parent != nil {
		sp := parent.Child("repair")
		ctx = obs.ContextWithSpan(ctx, sp)
		defer func() {
			sp.SetAttr("violated_constraints", int64(stats.ViolatedConstraints))
			sp.SetAttr("recomputed", int64(stats.Recomputed))
			if stats.FellBack {
				sp.SetAttrStr("fell_back", "true")
			}
			sp.End()
		}()
	}
	if ctx.Err() != nil {
		return nil, stats, canceled(ctx)
	}
	s := c.Set()
	cons := s.Constraints()
	if baseCount < 0 || baseCount > len(cons) {
		return nil, stats, fmt.Errorf("core: baseCount %d out of range [0,%d]", baseCount, len(cons))
	}
	if len(base) != s.NumAttrs() {
		return nil, stats, fmt.Errorf("core: base assignment covers %d of %d attributes", len(base), s.NumAttrs())
	}
	if c.HasUpperBounds() {
		stats.FellBack = true
		res, err := SolveContext(ctx, c, Options{})
		if err != nil {
			return nil, stats, err
		}
		stats.Solve = res.Stats
		return res.Assignment, stats, nil
	}
	for _, cn := range cons[:baseCount] {
		if !s.SatisfiedBy(base, cn) {
			return nil, stats, fmt.Errorf("core: base assignment violates prefix constraint %s", s.Format(cn))
		}
	}

	// Affected = the left-hand sides of violated new constraints, plus every
	// attribute that reaches one of them in the constraint graph (raising
	// such an attribute can violate constraints whose rhs it is, pushing
	// the raise to their lhs — i.e. backward along edges).
	affected := make([]bool, s.NumAttrs())
	var stack []int
	for _, cn := range cons[baseCount:] {
		if s.SatisfiedBy(base, cn) {
			continue
		}
		stats.ViolatedConstraints++
		for _, a := range cn.LHS {
			if !affected[a] {
				affected[a] = true
				stack = append(stack, int(a))
			}
		}
	}
	if stats.ViolatedConstraints == 0 {
		return base.Clone(), stats, nil
	}
	g := c.Graph()
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, u := range g.Pred(v) {
			if !affected[u] {
				affected[u] = true
				stack = append(stack, u)
			}
		}
	}
	for _, isAff := range affected {
		if isAff {
			stats.Recomputed++
		}
	}

	// Partial solve: unaffected attributes are frozen done at their base
	// levels; affected ones restart at ⊤ and run through BigLoop in
	// (restricted) priority order. The compiled priority structure is
	// reused — restricted to the affected attributes it is a valid
	// evaluation order for the sub-instance.
	sv := acquireSession(ctx, c, Options{})
	defer sv.release()
	// Tracing: the partial solve logs its events into the session's own
	// log, and its span tree is rendered from the log under a
	// "partial-solve" span once it is over.
	var psp *obs.Span
	if sp := obs.SpanFromContext(ctx); sp != nil {
		psp = sp.Child("partial-solve")
		sv.log = &sv.ownLog
		sv.log.Start(psp.StartTime(), psp.Tracer().Now)
		defer psp.End()
	}
	lat := c.Lattice()
	sv.lambda = base.Clone()
	for a := 0; a < s.NumAttrs(); a++ {
		if affected[a] {
			sv.lambda[a] = lat.Top()
		} else {
			sv.done[a] = true
		}
	}
	for ci, cn := range cons {
		if cn.Simple() {
			continue
		}
		n := 0
		for _, a := range cn.LHS {
			if affected[a] {
				n++
			}
		}
		sv.unlabeled[ci] = n
	}
	err := sv.partialSolve(affected)
	if psp != nil {
		renderSpans(psp, sv.log, c)
		if err == nil {
			annotate(psp, &sv.stats, sv.log, nil)
		}
	}
	if err != nil {
		return nil, stats, err
	}
	stats.Solve = sv.stats
	if v := s.Violations(sv.lambda); v != nil {
		return nil, stats, fmt.Errorf("core: internal error: repair produced violations (%s)", v[0])
	}
	if opt.VerifyMinimal {
		minimal, _, err := ProbeMinimalityContext(ctx, c, sv.lambda)
		if err != nil {
			return nil, stats, err
		}
		if !minimal {
			stats.FellBack = true
			res, err := SolveContext(ctx, c, Options{})
			if err != nil {
				return nil, stats, err
			}
			stats.Solve = res.Stats
			return res.Assignment, stats, nil
		}
	}
	return sv.lambda, stats, nil
}

// partialSolve runs BigLoop over the affected attributes only.
func (sv *session) partialSolve(affected []bool) error {
	for p := sv.pr.Max; p >= 1; p-- {
		if sv.ctx.Err() != nil {
			return canceled(sv.ctx)
		}
		nodes := sv.pr.Sets[p]
		for _, node := range nodes {
			if affected[node] {
				if err := sv.processAttr(constraint.Attr(node), len(nodes) == 1); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
