// Package core implements Algorithm 3.1 of the paper: generation of a
// minimal classification λ : A → L satisfying a set of classification
// constraints over a security lattice.
//
// The solver combines the two techniques of §3 exactly as the paper's
// pseudocode (Figure 3) prescribes:
//
//   - Back-propagation for acyclic constraints: attributes are considered
//     in decreasing priority (reverse topological order of the strongly
//     connected components of the constraint graph); an attribute all of
//     whose constraints have definitively labeled right-hand sides is
//     assigned the lub of the levels those constraints force on it, each
//     complex constraint contributing through Minlevel.
//   - Forward lowering for cyclic constraints: attributes in a cycle start
//     at ⊤ and are lowered one lattice step at a time; Try propagates a
//     candidate lowering through the cycle, accumulating the induced
//     lowerings (Tolower) or failing if a constraint with a definitively
//     labeled right-hand side would break.
//
// Section 6's upper-bound constraints are handled at compile time
// (constraint.Compiled derives a firm upper bound for every attribute and
// detects inconsistencies); BigLoop then starts from those bounds instead
// of ⊤ and solves every complex constraint eagerly.
//
// # Compile/solve split
//
// The graph, SCC condensation, priority numbering, and adjacency indexes
// are the one-time cost the complexity argument of Theorem 5.2 amortizes
// over solving. They live in an immutable constraint.Compiled produced by
// Set.Compile; SolveContext runs Algorithm 3.1 against such a snapshot.
// All per-solve mutable state (the assignment, done flags, worklists, and
// Try's attribute-indexed scratch arrays) lives in a session recycled
// through a sync.Pool, so a steady-state solve of a compiled set allocates
// only its result and any number of goroutines may solve the same snapshot
// concurrently. The one-shot Solve(set, opt) remains as a compatibility
// shim that compiles a snapshot and solves it.
//
// # Observability
//
// Every step of the algorithm can be observed without changing its
// behavior. Result.Stats always carries the per-solve operation counts
// (they are plain field increments, always on). Richer telemetry is
// strictly opt-in and zero-cost when off. An instrumented solve appends one
// value-typed event per step to a single obs.EventLog — the caller's
// (Options.Events), or one SolveContext makes when Options.RecordTrace is
// set or the context carries a span — and the Figure 2(b) Trace and the
// solve span tree are rendered from that log after the solve; with no log
// the hot path pays a single nil check per step. Options.CollectLatticeOps
// wraps the lattice in a counting forwarder (no wrapper at all otherwise;
// an unwrapped chain lattice has its lub, glb and dominance taken inline as
// max, min and ≥); Options.Metrics aggregates each solve's Stats into a
// shared obs.Registry after the run.
package core

import (
	"cmp"
	"context"
	"log/slog"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"minup/internal/constraint"
	"minup/internal/fault"
	"minup/internal/graph"
	"minup/internal/lattice"
	"minup/internal/obs"
)

// Options tunes the solver. The zero value is ready to use.
type Options struct {
	// RecordTrace renders a step-by-step execution trace (the Figure 2(b)
	// table) from the solve's event log into Result.Trace. Its memory cost
	// is linear in the number of events, not steps×attributes.
	RecordTrace bool

	// DisableMinComplement turns off the footnote-4 closed form for
	// Minlevel even when the lattice supports it, forcing the generic
	// lattice descent. Used by the ablation benchmarks.
	DisableMinComplement bool

	// CollapseSimpleCycles enables the §3.2 simple-cycle optimization:
	// a strongly connected component all of whose members appear only in
	// simple constraints forces every member to the same level, so the
	// component is labeled in one step (the lub of its external needs)
	// instead of per-attribute forward lowering. Purely an optimization —
	// results are identical — but it turns pathological simple-cycle
	// components from quadratic to linear (ablation benchmark
	// BenchmarkSimpleCycleCollapse).
	CollapseSimpleCycles bool

	// Events, when non-nil, logs the solve's event stream (assign / try /
	// try-failed / lower / collapse / done / try_step); the solve resets it
	// first. The trace and the span tree are rendered from this log when
	// asked for; without any of the three, event logging costs one nil
	// check per step.
	Events *obs.EventLog

	// CollectLatticeOps counts the primitive lattice operations (lub, glb,
	// dominance, covers) performed by the solve into Result.Stats.
	// LatticeOps. Off by default: counting routes every operation through
	// a forwarding wrapper, so a chain's operations are no longer inline.
	CollectLatticeOps bool

	// Metrics, when non-nil, aggregates the solve's Stats (and its
	// success/failure) into the registry after the run under the
	// "solve.*" metric names. The registry may be shared by any number of
	// concurrent solves.
	Metrics *obs.Registry

	// Fault, when non-nil, arms the solver's named fault points
	// ("pool.get", "solve.step", "solve.try", and the lattice wrapper's
	// "lattice.*" points) for chaos testing: the injector may delay,
	// cancel, or panic at scheduled hits. Nil — the production value —
	// keeps every fault point a single nil check, preserving the
	// allocation-free hot path guarded by BenchmarkSolveCompiled.
	Fault *fault.Injector
}

// Stats reports operation counts from one solve, used by the complexity
// experiments (E2/E3) to confirm the bounds of Theorem 5.2 and surfaced by
// the telemetry layer (cmd/minclass -stats, cmd/benchtab -stats,
// cmd/minupd).
type Stats struct {
	Tries          int // invocations of Try
	FailedTries    int // Try invocations that returned failure
	MinlevelCalls  int // invocations of Minlevel
	TrySteps       int // constraint checks performed inside Try
	DescentSteps   int // lattice covers expansions in Minlevel/BigLoop
	Collapses      int // attributes pinned by the §3.2 simple-cycle collapse
	AttrsProcessed int // attributes labeled (assign, forward lowering, or collapse)

	// LatticeOps counts primitive lattice operations; populated only when
	// Options.CollectLatticeOps is set.
	LatticeOps lattice.OpCounts

	// PoolHit reports whether the solve reused a pooled session (true) or
	// paid the first-use session allocation (false).
	PoolHit bool

	// Duration is the wall time of the solve, excluding compilation.
	Duration time.Duration
}

// Result is the outcome of a solve.
type Result struct {
	// Assignment is the computed minimal classification λ. It is owned by
	// the caller.
	Assignment constraint.Assignment
	// Priorities is the §4 priority structure used for the evaluation
	// order (one set per strongly connected component). It is shared with
	// the compiled set and must be treated as read-only.
	Priorities *graph.PriorityResult
	// UpperBounds is the firm per-attribute bound derived by the §6
	// preprocessing pass; nil when the instance has no upper-bound
	// constraints. Shared with the compiled set; read-only.
	UpperBounds constraint.Assignment
	// Trace is the recorded execution trace, nil unless requested.
	Trace *Trace
	// Stats counts solver operations.
	Stats Stats
}

// Solve computes a minimal classification for the constraint set. Instances
// consisting solely of lower-bound constraints (Definition 2.1) are always
// consistent and never yield an error; instances with §6 upper-bound
// constraints may be inconsistent, in which case an *InconsistencyError is
// returned.
//
// Solve is the one-shot compatibility path: it compiles a snapshot of the
// set and solves it, paying the graph/SCC construction on every call.
// Callers solving the same constraints repeatedly (or concurrently) should
// use Set.Compile once and SolveContext per request.
func Solve(s *constraint.Set, opt Options) (*Result, error) {
	return SolveContext(context.Background(), s.Snapshot(), opt)
}

// SolveContext computes a minimal classification for a compiled constraint
// set. The compiled snapshot is read-only and may be shared by any number
// of concurrent SolveContext calls. The context is polled periodically
// (including inside the forward-lowering loops of large cyclic instances);
// on cancellation the solve stops promptly with an error satisfying
// errors.Is(err, ErrCanceled). Inconsistent §6 instances return an
// *InconsistencyError, which satisfies errors.Is(err, ErrUnsolvable).
func SolveContext(ctx context.Context, c *constraint.Compiled, opt Options) (res *Result, err error) {
	if c == nil {
		return nil, ErrNotCompiled
	}
	if err := ctx.Err(); err != nil {
		return nil, canceled(ctx)
	}
	// Panic isolation: a panicking solve must not take the process (or the
	// session pool) down with it. The guard converts the panic into a
	// typed *InternalError and drops the session on the floor — its
	// invariants are unknown, so returning it to the pool could corrupt a
	// later solve. Non-panic exits release the session normally.
	var sv *session
	var sp *obs.Span
	defer func() {
		r := recover()
		if r == nil {
			if sv != nil {
				sv.release()
			}
			return
		}
		ie := &InternalError{Recovered: r, Stack: debug.Stack()}
		logPanic(ie)
		panicsRecovered.Add(1)
		if opt.Metrics != nil {
			opt.Metrics.Counter(MetricSolvePanics).Inc()
		}
		if sp != nil && sv != nil {
			// Render what was logged up to the panic, so no span is left
			// open and the solve span says why it ended.
			endSolveSpan(sp, sv.log, c, &sv.stats, ie)
		}
		res, err = nil, ie
	}()
	if ferr := opt.Fault.Hit("pool.get"); ferr != nil {
		return nil, ferr
	}
	if parent := obs.SpanFromContext(ctx); parent != nil {
		sp = parent.Child("solve")
	}
	start := time.Now()
	sv = acquireSession(ctx, c, opt)
	// One event log per instrumented solve: the caller's, or the session's
	// own, which keeps its buffer across solves, for the trace or the
	// context's span. A span needs stamped events, so an unstamped log
	// starts against the tracer's clock at the solve span. Uninstrumented
	// solves take the nil branches and pay nothing further.
	if sv.log == nil && (sp != nil || opt.RecordTrace) {
		sv.log = &sv.ownLog
		sv.log.Start(time.Time{}, nil)
	}
	if sp != nil && !sv.log.Stamped() {
		sv.log.Start(sp.StartTime(), sp.Tracer().Now)
	} else if sv.log != nil {
		sv.log.Reset()
	}
	if c.HasUpperBounds() {
		ub, conflicts := c.UpperBoundFixpoint()
		if conflicts != nil {
			err = &InconsistencyError{Conflicts: conflicts}
		} else {
			sv.start = ub
			sv.eagerMinlevel = true
		}
	}
	if err == nil {
		err = sv.run()
	}
	sv.stats.Duration = time.Since(start)
	if sp != nil {
		endSolveSpan(sp, sv.log, c, &sv.stats, err)
	}
	if opt.Metrics != nil {
		sv.stats.Record(opt.Metrics, err)
	}
	if err != nil {
		return nil, err
	}
	res = &Result{
		Assignment:  sv.lambda,
		Priorities:  sv.pr,
		UpperBounds: sv.start,
		Stats:       sv.stats,
	}
	if opt.RecordTrace {
		res.Trace = newTrace(sv.set, sv.start, sv.log)
	}
	return res, nil
}

// endSolveSpan renders a solve's span tree from its log, annotates the
// solve span and ends it.
func endSolveSpan(sp *obs.Span, log *obs.EventLog, c *constraint.Compiled, st *Stats, err error) {
	renderSpans(sp, log, c)
	annotate(sp, st, log, err)
	sp.End()
}

// MustSolve is Solve that panics on error, for fixtures built from
// lower-bound-only constraint sets (which cannot fail).
func MustSolve(s *constraint.Set, opt Options) *Result {
	r, err := Solve(s, opt)
	if err != nil {
		panic(err)
	}
	return r
}

// session carries the mutable state of one run of Algorithm 3.1 against a
// compiled constraint set. Sessions are recycled through sessionPool:
// scratch buffers (done flags, unlabeled counters, Try's level arrays,
// worklist and result, descent candidates) keep their capacity across
// solves, so a solve allocates only its result: 2 allocs/op in
// BenchmarkSolveCompiled, the assignment and the Result. A session is
// used by one goroutine at a time; concurrency comes from acquiring one
// session per in-flight solve.
type session struct {
	c   *constraint.Compiled
	set *constraint.Set // read-only view, for formatting and traces
	lat lattice.Lattice
	opt Options
	ctx context.Context

	cons    []constraint.Constraint
	pr      *graph.PriorityResult
	minComp lattice.ComplementMinimizer // non-nil when the fast path applies
	// chain is set when lat, as the session calls it, is a *lattice.Chain:
	// a level is then its rank, so lub, glb and dominance are max, min and
	// ≥, taken inline. A counting or fault wrapper hides the chain, so such
	// a solve makes every operation through the wrapper.
	chain bool

	lambda    constraint.Assignment // λ; freshly allocated, handed to the Result
	done      []bool
	unlabeled []int                 // per complex constraint
	start     constraint.Assignment // initial levels (nil = all ⊤)
	// eagerMinlevel makes BigLoop solve complex constraints for every lhs
	// attribute, not only the last-labeled one — required when attributes
	// may start below ⊤ (§6 upper bounds).
	eagerMinlevel bool

	// log is the solve's event log: Options.Events, or ownLog when the
	// solve logs only for its own trace or span tree; nil on the zero-cost
	// path.
	log    *obs.EventLog
	ownLog obs.EventLog
	// counted is the lattice op-counting wrapper, embedded in the session
	// so enabling CollectLatticeOps performs no per-solve allocation.
	counted lattice.Counted
	stats   Stats
	// reused distinguishes a recycled session (pool hit) from one freshly
	// allocated by the pool's New.
	reused bool
	// fault is the armed injector, nil in production. Hooks fire behind
	// sv.fault != nil checks so the zero-value path pays one comparison.
	fault *fault.Injector
	// lastFailure is the index of the constraint whose violation made the
	// most recent try call fail, or -1. Used by Explain.
	lastFailure int
	// ops counts units of work since the session started, for periodic
	// cancellation polling.
	ops int

	// Try scratch, reused across calls and across solves. tocheck and
	// tolower are the procedure's Tocheck and Tolower; each call advances
	// tryGen, which empties both without clearing their entries. queue is
	// the worklist, read by index; lowered lists every attribute that
	// entered tolower (repeats included); lowers holds the result a call
	// returns.
	tocheck, tolower levelMarks
	tryGen           uint32
	queue            []constraint.Attr
	lowered          []constraint.Attr
	lowers           []lowering

	dset  []lattice.Level          // processAttr's descent candidates
	inSet map[constraint.Attr]bool // collapseSet scratch
}

// lowering is one entry of Try's result: attr is lowered to level.
type lowering struct {
	attr  constraint.Attr
	level lattice.Level
}

// levelMarks is an attribute-indexed partial map to levels. Attribute a is
// present when stamp[a] equals the caller's generation, so moving to a
// new generation empties the map in O(1). Generations start at 1; a zero
// stamp is never present.
type levelMarks struct {
	level []lattice.Level
	stamp []uint32
}

func (m *levelMarks) get(a constraint.Attr, gen uint32) (lattice.Level, bool) {
	if m.stamp[a] != gen {
		return 0, false
	}
	return m.level[a], true
}

func (m *levelMarks) put(a constraint.Attr, l lattice.Level, gen uint32) {
	m.level[a] = l
	m.stamp[a] = gen
}

func (m *levelMarks) del(a constraint.Attr) { m.stamp[a] = 0 }

// resize makes room for n attributes. Kept stamps are all older than the
// next generation, so they read as absent; new arrays start at zero.
func (m *levelMarks) resize(n int) {
	if cap(m.stamp) < n {
		m.level = make([]lattice.Level, n)
		m.stamp = make([]uint32, n)
		return
	}
	m.level = m.level[:n]
	m.stamp = m.stamp[:n]
}

// nextTryGen starts a Try call's generation. On wrap-around every stamp,
// to the arrays' full capacity, is cleared once, so a stamp written 2^32
// calls ago cannot read as present.
func (sv *session) nextTryGen() uint32 {
	sv.tryGen++
	if sv.tryGen == 0 {
		clear(sv.tocheck.stamp[:cap(sv.tocheck.stamp)])
		clear(sv.tolower.stamp[:cap(sv.tolower.stamp)])
		sv.tryGen = 1
	}
	return sv.tryGen
}

var sessionPool = sync.Pool{
	New: func() any {
		sessionsAllocated.Add(1)
		return &session{inSet: make(map[constraint.Attr]bool)}
	},
}

// sessionsAllocated counts sessions ever created by the pool (the GC may
// have collected some since). Servers export it as a pool-size gauge.
var sessionsAllocated atomic.Int64

// SessionsAllocated reports how many solver sessions the process has
// allocated through the pool — an upper bound on the pool's current size
// and a proxy for peak solve concurrency.
func SessionsAllocated() int64 { return sessionsAllocated.Load() }

// panicsRecovered counts solver panics converted to *InternalError by the
// SolveContext recovery guard. Each one also discarded a pooled session.
var panicsRecovered atomic.Int64

// PanicsRecovered reports how many solver panics the process has recovered
// from. Servers export it as a gauge next to the pool size.
func PanicsRecovered() int64 { return panicsRecovered.Load() }

// panicLogOnce gates the full-stack log line: the first recovered panic
// logs its stack (the actionable diagnostic), later ones log one line
// without the stack so a crash-looping fault cannot flood the log.
var panicLogOnce sync.Once

// logPanic reports a recovered solver panic through the process logger.
func logPanic(ie *InternalError) {
	logged := false
	panicLogOnce.Do(func() {
		logged = true
		slog.Error("solver panic recovered; session discarded",
			"panic", ie.Recovered, "stack", string(ie.Stack))
	})
	if !logged {
		slog.Error("solver panic recovered; session discarded (stack suppressed, logged once per process)",
			"panic", ie.Recovered)
	}
}

// acquireSession checks a session out of the pool and points it at the
// compiled set, resizing (not reallocating, when capacity allows) its
// scratch buffers.
func acquireSession(ctx context.Context, c *constraint.Compiled, opt Options) *session {
	sv := sessionPool.Get().(*session)
	hit := sv.reused
	sv.reused = true
	sv.c = c
	sv.set = c.Set()
	sv.lat = c.Lattice()
	sv.opt = opt
	sv.ctx = ctx
	sv.cons = c.Constraints()
	sv.pr = c.Priorities()
	sv.minComp = nil
	if !opt.DisableMinComplement {
		if mc, ok := sv.lat.(lattice.ComplementMinimizer); ok {
			sv.minComp = mc
		}
	}
	sv.stats = Stats{PoolHit: hit}
	sv.fault = opt.Fault
	if opt.CollectLatticeOps || opt.Fault != nil {
		// The closed-form minimizer is resolved from the base lattice
		// above, so wrapping here counts descent operations without hiding
		// the fast path. An armed injector also wraps, so its "lattice.*"
		// fault points see every primitive operation.
		sv.counted = lattice.Counted{L: sv.lat, C: &sv.stats.LatticeOps, F: opt.Fault}
		sv.lat = &sv.counted
	}
	_, sv.chain = sv.lat.(*lattice.Chain)
	sv.lambda = nil
	sv.start = nil
	sv.eagerMinlevel = false
	sv.log = opt.Events
	sv.lastFailure = -1
	sv.ops = 0
	sv.done = resizeBools(sv.done, c.NumAttrs())
	sv.unlabeled = resizeInts(sv.unlabeled, len(sv.cons))
	sv.tocheck.resize(c.NumAttrs())
	sv.tolower.resize(c.NumAttrs())
	clear(sv.inSet)
	return sv
}

// release drops the session's references to the compiled set (so the pool
// does not pin it) and returns the session to the pool.
func (sv *session) release() {
	sv.c = nil
	sv.set = nil
	sv.lat = nil
	sv.ctx = nil
	sv.opt = Options{}
	sv.cons = nil
	sv.pr = nil
	sv.minComp = nil
	sv.lambda = nil
	sv.start = nil
	sv.log = nil
	sv.fault = nil
	sv.counted = lattice.Counted{}
	sessionPool.Put(sv)
}

func resizeBools(b []bool, n int) []bool {
	if cap(b) < n {
		return make([]bool, n)
	}
	b = b[:n]
	clear(b)
	return b
}

func resizeInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// pollInterval is how many units of work pass between cancellation checks.
// Small enough that even the quadratic cyclic worst case notices a cancel
// within microseconds, large enough to keep ctx.Err off the hot path.
const pollInterval = 1024

// poll checks for cancellation every pollInterval units of work.
func (sv *session) poll() error {
	sv.ops++
	if sv.ops%pollInterval != 0 {
		return nil
	}
	if sv.ctx.Err() != nil {
		return canceled(sv.ctx)
	}
	return nil
}

// emit logs one event. Callers guard with a sv.log != nil check so the
// uninstrumented path pays only that check.
func (sv *session) emit(kind obs.EventKind, a constraint.Attr, l lattice.Level) {
	scc := int32(-1)
	if a >= 0 {
		scc = int32(sv.pr.Priority[a])
	}
	sv.log.Append(obs.Event{Kind: kind, Attr: int32(a), Level: uint64(l), SCC: scc})
}

// run executes Main's initialization plus BigLoop.
func (sv *session) run() error {
	n := sv.c.NumAttrs()
	sv.lambda = make(constraint.Assignment, n)
	for i := range sv.lambda {
		if sv.start != nil {
			sv.lambda[i] = sv.start[i]
		} else {
			sv.lambda[i] = sv.lat.Top()
		}
	}
	for i := range sv.cons {
		if c := &sv.cons[i]; !c.Simple() {
			sv.unlabeled[i] = len(c.LHS)
		}
	}
	return sv.bigloop()
}

// bigloop is the BigLoop procedure of Figure 3.
func (sv *session) bigloop() error {
	for p := sv.pr.Max; p >= 1; p-- {
		if sv.ctx.Err() != nil {
			return canceled(sv.ctx)
		}
		nodes := sv.pr.Sets[p]
		if sv.opt.CollapseSimpleCycles {
			handled, err := sv.collapseSet(nodes)
			if err != nil {
				return err
			}
			if handled {
				continue
			}
		}
		for _, node := range nodes {
			if err := sv.processAttr(constraint.Attr(node), len(nodes) == 1); err != nil {
				return err
			}
		}
	}
	return nil
}

// collapseSet applies the §3.2 simple-cycle optimization to one priority
// set when eligible: the set has several members (a real cycle), no
// member appears in a complex constraint, and attributes may start only
// at ⊤ (upper bounds could break the all-equal argument, so eager mode is
// excluded). All members are then pinned to the lub of the set's external
// needs. Reports whether the set was handled.
func (sv *session) collapseSet(nodes []int) (bool, error) {
	if len(nodes) < 2 || sv.eagerMinlevel {
		return false, nil
	}
	for _, node := range nodes {
		if err := sv.poll(); err != nil {
			return false, err
		}
		for _, ci := range sv.c.ConstraintsOn(constraint.Attr(node)) {
			if !sv.cons[ci].Simple() {
				return false, nil
			}
		}
	}
	// Mutual reachability through simple constraints forces equality, so
	// the minimal common level is the lub of every member's external
	// requirements (internal right-hand sides contribute the same level
	// and are skipped).
	inSet := sv.inSet
	clear(inSet)
	for _, node := range nodes {
		inSet[constraint.Attr(node)] = true
	}
	l := sv.bottom()
	for _, node := range nodes {
		for _, ci := range sv.c.ConstraintsOn(constraint.Attr(node)) {
			c := &sv.cons[ci]
			if !c.RHS.IsLevel && inSet[c.RHS.Attr] {
				continue
			}
			l = sv.lub(l, sv.rhsLevel(c))
		}
	}
	for _, node := range nodes {
		a := constraint.Attr(node)
		sv.lambda[a] = l
		sv.done[a] = true
		sv.stats.Collapses++
		sv.stats.AttrsProcessed++
		// No unlabeled counters to maintain: eligibility guarantees no
		// member sits on a complex left-hand side.
		if sv.log != nil {
			sv.emit(obs.EventCollapse, a, l)
		}
	}
	return true, nil
}

// processAttr labels one attribute: the body of BigLoop's second-level
// loop. single reports that a's priority set holds only a.
func (sv *session) processAttr(a constraint.Attr, single bool) error {
	if sv.fault != nil {
		if err := sv.fault.Hit("solve.step"); err != nil {
			return err
		}
	}
	sv.stats.AttrsProcessed++
	aDone := true
	l := sv.bottom()
	cons := sv.cons
	for _, ci := range sv.c.ConstraintsOn(a) {
		c := &cons[ci]
		if !c.Simple() {
			sv.unlabeled[ci]--
		}
		if sv.rhsDone(c) {
			if c.Simple() {
				l = sv.lub(l, sv.rhsLevel(c))
			} else if sv.unlabeled[ci] == 0 || sv.eagerMinlevel {
				l = sv.lub(l, sv.minlevel(a, c))
			} else if !single && !sv.othersCover(a, c) {
				// A complex constraint with unlabeled siblings may be
				// deferred to the sibling that is labeled last — but only
				// while it holds no matter how low a goes. Outside cycles
				// that is automatic: an unlabeled sibling sits in a lower
				// priority set, which no Try has reached, so it is still at
				// ⊤ and the check is skipped. Inside an SCC, Try may already
				// have lowered a sibling, in which case a must go through
				// forward lowering so the constraint is re-checked at every
				// step.
				aDone = false
			}
		} else {
			aDone = false
		}
	}
	if aDone {
		sv.lambda[a] = l
		sv.done[a] = true
		if sv.log != nil {
			sv.emit(obs.EventAssign, a, l)
		}
		return nil
	}
	// Forward lowering through the cycle: try each maximal level between
	// the lower bound l and the current level; after a successful Try,
	// start over from a's new level.
	for lowered := true; lowered; {
		lowered = false
		if sv.chain {
			// A chain level covers only the rank below it.
			sv.dset = sv.dset[:0]
			if sv.lambda[a] > l {
				sv.dset = append(sv.dset, sv.lambda[a]-1)
			}
		} else {
			sv.dset = lattice.AppendCoversAbove(sv.dset[:0], sv.lat, sv.lambda[a], l)
		}
		sv.stats.DescentSteps += len(sv.dset)
		for _, cand := range sv.dset {
			lower, ok, err := sv.try(a, cand)
			if err != nil {
				return err
			}
			sv.stats.Tries++
			if !ok {
				sv.stats.FailedTries++
				if sv.log != nil {
					sv.emit(obs.EventTryFailed, a, cand)
				}
				continue
			}
			if sv.log == nil {
				for _, lw := range lower {
					sv.lambda[lw.attr] = lw.level
				}
			} else {
				// The try row first, then one lower event per propagated
				// change (including a itself) so renderers see the deltas
				// that belong to it, in sorted attribute order so
				// instrumented runs (traces, goldens) are deterministic.
				sv.emit(obs.EventTry, a, cand)
				slices.SortFunc(lower, func(x, y lowering) int { return cmp.Compare(x.attr, y.attr) })
				for _, lw := range lower {
					sv.lambda[lw.attr] = lw.level
					sv.emit(obs.EventLower, lw.attr, lw.level)
				}
			}
			lowered = true
			break
		}
	}
	sv.done[a] = true
	if sv.log != nil {
		sv.emit(obs.EventDone, a, sv.lambda[a])
	}
	return nil
}

// lub, glb, dominates and bottom are the lattice operations the solver
// makes: inline on a chain, calls through lat otherwise.
func (sv *session) lub(x, y lattice.Level) lattice.Level {
	if sv.chain {
		return max(x, y)
	}
	return sv.lat.Lub(x, y)
}

func (sv *session) glb(x, y lattice.Level) lattice.Level {
	if sv.chain {
		return min(x, y)
	}
	return sv.lat.Glb(x, y)
}

func (sv *session) dominates(x, y lattice.Level) bool {
	if sv.chain {
		return x >= y
	}
	return sv.lat.Dominates(x, y)
}

func (sv *session) bottom() lattice.Level {
	if sv.chain {
		return 0
	}
	return sv.lat.Bottom()
}

// lubOthers returns the lub of the levels of c's left-hand-side attributes
// other than a.
func (sv *session) lubOthers(a constraint.Attr, c *constraint.Constraint) lattice.Level {
	var l lattice.Level
	if sv.chain {
		for _, o := range c.LHS {
			if o != a {
				l = max(l, sv.lambda[o])
			}
		}
		return l
	}
	l = sv.lat.Bottom()
	for _, o := range c.LHS {
		if o != a {
			l = sv.lat.Lub(l, sv.lambda[o])
		}
	}
	return l
}

// othersCover reports whether the lub of the left-hand-side attributes
// other than a already dominates the right-hand side, i.e. the constraint
// holds regardless of the level assigned to a.
func (sv *session) othersCover(a constraint.Attr, c *constraint.Constraint) bool {
	return sv.dominates(sv.lubOthers(a, c), sv.rhsLevel(c))
}

// rhsLevel returns the level of c's right-hand side under λ.
func (sv *session) rhsLevel(c *constraint.Constraint) lattice.Level {
	if c.RHS.IsLevel {
		return c.RHS.Level
	}
	return sv.lambda[c.RHS.Attr]
}

// rhsDone reports whether a constraint's right-hand side is definitively
// labeled (level constants always are).
func (sv *session) rhsDone(c *constraint.Constraint) bool {
	return c.RHS.IsLevel || sv.done[c.RHS.Attr]
}

// minlevel is the Minlevel procedure of Figure 3: a minimal level that a
// may assume without violating the complex constraint c, given the current
// levels of the other left-hand-side attributes. When the lattice provides
// the footnote-4 closed form (compartmented lattices) it is used directly;
// otherwise the procedure descends the lattice from a's current level,
// stopping at the lowest level all of whose immediate descendants would
// violate the constraint.
func (sv *session) minlevel(a constraint.Attr, c *constraint.Constraint) lattice.Level {
	sv.stats.MinlevelCalls++
	lubothers := sv.lubOthers(a, c)
	rhs := sv.rhsLevel(c)
	if sv.minComp != nil {
		return sv.minComp.MinComplement(lubothers, rhs)
	}
	if sv.dominates(lubothers, rhs) {
		return sv.bottom()
	}
	last := sv.lambda[a]
	trylevels := sv.lat.Covers(last)
	sv.stats.DescentSteps += len(trylevels)
	for len(trylevels) > 0 {
		l := trylevels[0]
		trylevels = trylevels[1:]
		if sv.dominates(sv.lub(l, lubothers), rhs) {
			last = l
			trylevels = sv.lat.Covers(last)
			sv.stats.DescentSteps += len(trylevels)
		}
	}
	return last
}

// try is the Try procedure of Figure 3. It returns the set of lowerings
// (including a→l itself) that together with the current λ still satisfy
// all constraints, or ok=false if lowering a to l transitively violates a
// constraint whose right-hand side is already definitively labeled. λ is
// not modified. A non-nil error reports cancellation. The returned slice
// is session scratch, valid until the next call.
func (sv *session) try(a constraint.Attr, l lattice.Level) ([]lowering, bool, error) {
	if sv.fault != nil {
		if err := sv.fault.Hit("solve.try"); err != nil {
			return nil, false, err
		}
	}
	sv.lastFailure = -1
	gen := sv.nextTryGen()
	tocheck, tolower := &sv.tocheck, &sv.tolower
	queue := sv.queue[:0]
	lowered := sv.lowered[:0]
	// Hand the grown buffers back to the session on every return.
	defer func() { sv.queue, sv.lowered = queue[:0], lowered[:0] }()

	tocheck.put(a, l, gen)
	queue = append(queue, a)
	lambda, cons := sv.lambda, sv.cons

	for qi := 0; qi < len(queue); qi++ {
		cur := queue[qi]
		curLvl, pending := tocheck.get(cur, gen)
		if !pending {
			continue // superseded entry
		}
		tocheck.del(cur)
		tolower.put(cur, curLvl, gen)
		lowered = append(lowered, cur)

		for _, ci := range sv.c.ConstraintsOn(cur) {
			c := &cons[ci]
			sv.stats.TrySteps++
			if sv.log != nil {
				// One try_step event per constraint check — the unit the
				// span tree renders as a "descent" leaf, so a traced
				// solve's descent-span count equals Stats.TrySteps.
				sv.emit(obs.EventTryStep, cur, curLvl)
			}
			if err := sv.poll(); err != nil {
				return nil, false, err
			}
			// Level of the lhs under the tentative lowerings: Tolower
			// entries override λ.
			level := sv.bottom()
			if sv.chain {
				for _, m := range c.LHS {
					lv := lambda[m]
					if tolower.stamp[m] == gen {
						lv = tolower.level[m]
					}
					level = max(level, lv)
				}
			} else {
				for _, m := range c.LHS {
					if lv, ok := tolower.get(m, gen); ok {
						level = sv.lat.Lub(level, lv)
					} else {
						level = sv.lat.Lub(level, lambda[m])
					}
				}
			}
			rhsLvl := sv.rhsLevel(c)
			if sv.rhsDone(c) {
				if !sv.dominates(level, rhsLvl) {
					sv.lastFailure = int(ci)
					return nil, false, nil
				}
				continue
			}
			if sv.dominates(level, rhsLvl) {
				continue
			}
			rhs := c.RHS.Attr
			newlevel := sv.glb(rhsLvl, level)
			if old, ok := tolower.get(rhs, gen); ok {
				if sv.dominates(newlevel, old) {
					continue // existing lowering already suffices
				}
				newlevel = sv.glb(old, newlevel)
				tolower.del(rhs)
				tocheck.put(rhs, newlevel, gen)
				queue = append(queue, rhs)
			} else if old, ok := tocheck.get(rhs, gen); ok {
				if sv.dominates(newlevel, old) {
					continue
				}
				tocheck.put(rhs, sv.glb(old, newlevel), gen) // already queued
			} else {
				tocheck.put(rhs, newlevel, gen)
				queue = append(queue, rhs)
			}
		}
	}
	// Every attribute that left tolower went back through tocheck and the
	// drained queue, so tolower now holds exactly the attributes listed in
	// lowered. Deleting each entry as it is copied out skips the repeats.
	out := sv.lowers[:0]
	for _, m := range lowered {
		if lv, ok := tolower.get(m, gen); ok {
			out = append(out, lowering{attr: m, level: lv})
			tolower.del(m)
		}
	}
	sv.lowers = out
	return out, true, nil
}
