// Package minup is a from-scratch Go implementation of
//
//	S. Dawson, S. De Capitani di Vimercati, P. Lincoln, P. Samarati:
//	"Minimal Data Upgrading to Prevent Inference and Association Attacks",
//	PODS 1999.
//
// It computes security classifications for database attributes from
// classification constraints — explicit level requirements, inference and
// association constraints, and the integrity constraints of multilevel
// relational models — such that every constraint is satisfied and no
// attribute is classified higher than necessary (a pointwise-minimal
// classification), in low-order polynomial time: linear in the constraint
// size for acyclic constraint sets and quadratic in the worst cyclic case
// (Theorem 5.2 of the paper).
//
// # Quick start
//
//	lat := minup.MustChainLattice("mil", "U", "C", "S", "TS")
//	set := minup.NewConstraintSet(lat)
//	_ = set.ParseString(`
//	    salary >= C
//	    lub(name, salary) >= TS
//	    rank >= salary
//	`)
//	compiled := minup.Compile(set)
//	res, _ := minup.SolveContext(context.Background(), compiled, minup.Options{})
//	fmt.Println(set.FormatAssignment(res.Assignment))
//	// name=TS rank=C salary=C
//
// Compile performs the one-time analysis of the constraint set (constraint
// graph, strongly connected components, evaluation priorities, §6
// upper-bound fixpoint) and freezes the set; SolveContext then answers any
// number of solve requests against the immutable snapshot. The one-shot
// Solve(set, opt) remains as a convenience for throwaway instances — it
// compiles a fresh snapshot on every call, so hot paths that solve the
// same set repeatedly (or concurrently) should prefer Compile +
// SolveContext and will see both lower latency and far fewer allocations.
//
// # Concurrency
//
// A *CompiledSet is immutable and safe for unlimited concurrent use: any
// number of goroutines may call SolveContext, RepairContext,
// ProbeMinimalityContext, ExplainContext, and DeriveUpperBoundsContext
// against the same compiled snapshot simultaneously. All per-solve state
// lives in pooled solver sessions; results share only read-only compiled
// data (Result.Priorities, Result.UpperBounds).
//
// A *ConstraintSet is NOT safe for concurrent mutation: guard it
// externally, or call Compile, after which further mutation is rejected
// with ErrFrozen and the frozen set is safe to read from any goroutine.
// Lattices are immutable after construction and safe to share. The MAC
// reference monitor (Monitor) carries its own internal mutex and may be
// used from multiple goroutines directly.
//
// The package is a thin façade over the implementation packages: security
// lattices (explicit Hasse diagrams, chains, powersets, compartmented MLS
// lattices with single-word encodings, products, and §6 semi-lattice
// completion), classification constraints with a textual format,
// Algorithm 3.1 itself with optional execution traces, §6 upper-bound
// support with inconsistency detection, a multilevel relational schema
// layer that generates constraints from keys, foreign keys, and data
// dependencies, and the Theorem 6.1 min-poset machinery. Beside them it
// offers verification and minimality probes, the Qian baseline (§4), the
// Bell–LaPadula monitor, the Kao suppression and Pappachan dependency
// inference problem frontends, and the telemetry Options takes (metrics
// registry, event log, fault injector, spans). The policy catalog, its
// replication, and the service's flight recorder and SLO tracker are not
// part of the library: cmd/minupd imports them from their own packages.
package minup

import (
	"context"
	"io"

	"minup/internal/baseline"
	"minup/internal/constraint"
	"minup/internal/core"
	"minup/internal/fault"
	"minup/internal/frontend"
	_ "minup/internal/frontend/depinf"
	_ "minup/internal/frontend/suppress"
	"minup/internal/lattice"
	"minup/internal/mac"
	"minup/internal/mlsdb"
	"minup/internal/obs"
	"minup/internal/poset"
)

// Lattice types.
type (
	// Lattice is a security lattice of access classes: a partial order
	// with least-upper-bound and greatest-lower-bound operations.
	Lattice = lattice.Lattice
	// Level is an opaque handle for one access class of a specific
	// Lattice.
	Level = lattice.Level
	// Enumerable is a lattice small enough to list exhaustively.
	Enumerable = lattice.Enumerable
	// ExplicitLattice is an arbitrary finite lattice given by its Hasse
	// diagram, with closure-bitset encoded constant-time operations.
	ExplicitLattice = lattice.Explicit
	// ChainLattice is a totally ordered lattice.
	ChainLattice = lattice.Chain
	// PowersetLattice is the lattice of subsets of a small category
	// universe.
	PowersetLattice = lattice.Powerset
	// MLSLattice is the compartmented military lattice of
	// (classification, category set) pairs, encoded in a machine word.
	MLSLattice = lattice.MLS
	// ProductLattice is the component-wise product of two enumerable
	// lattices.
	ProductLattice = lattice.Product
)

// Constraint types.
type (
	// ConstraintSet is a set of classification constraints (Definition
	// 2.1) plus optional §6 upper bounds, over one lattice.
	ConstraintSet = constraint.Set
	// Attr identifies an attribute within a ConstraintSet.
	Attr = constraint.Attr
	// Constraint is one lower-bound constraint lub{λ(lhs)} ≽ rhs.
	Constraint = constraint.Constraint
	// RHS is a constraint right-hand side: a level constant or an
	// attribute.
	RHS = constraint.RHS
	// Assignment maps each attribute of a ConstraintSet to a level — the
	// classification λ.
	Assignment = constraint.Assignment
	// CompiledSet is an immutable compiled snapshot of a ConstraintSet —
	// graph, SCC condensation, priorities, and §6 fixpoint precomputed —
	// safe for concurrent use by any number of solver sessions.
	CompiledSet = constraint.Compiled
)

// Typed errors. Match with errors.Is.
var (
	// ErrUnsolvable reports that a constraint set admits no solution
	// (wrapped by *InconsistencyError).
	ErrUnsolvable = core.ErrUnsolvable
	// ErrCanceled reports that a Context variant stopped early because its
	// context was canceled or timed out.
	ErrCanceled = core.ErrCanceled
	// ErrNotCompiled reports a nil *CompiledSet.
	ErrNotCompiled = core.ErrNotCompiled
	// ErrFrozen reports mutation of a ConstraintSet after Compile.
	ErrFrozen = constraint.ErrFrozen
	// ErrInternal reports a solver panic converted to an error by the
	// recovery guard; the concrete error is an *InternalError carrying the
	// recovered value and stack.
	ErrInternal = core.ErrInternal
	// ErrFaultInjected reports a cancellation injected by an armed
	// FaultInjector (chaos testing only).
	ErrFaultInjected = fault.ErrInjected
)

// Solver types.
type (
	// Options tunes Solve.
	Options = core.Options
	// Result is the outcome of Solve: the minimal classification, the
	// priority structure, optional trace, and operation counts.
	Result = core.Result
	// Trace is a step-by-step record of the solver's execution, rendered
	// from the solve's event log and printable as the paper's Figure 2(b)
	// table.
	Trace = core.Trace
	// InconsistencyError reports that upper- and lower-bound constraints
	// clash (§6).
	InconsistencyError = core.InconsistencyError
	// InternalError is a solver panic converted to a typed error: the
	// recovered value plus the stack captured at recovery. It unwraps to
	// ErrInternal; the panicking solver session is discarded, so later
	// solves are unaffected.
	InternalError = core.InternalError
	// FaultInjector is a deterministic, seedable chaos-testing injector
	// that delays, cancels, or panics at the solver's named fault points.
	// Arm one via Options.Fault (or minupd's -fault flag); nil is the
	// production value and keeps the hot path allocation-free.
	FaultInjector = fault.Injector
	// FaultRule arms one fault at one named point of a FaultInjector.
	FaultRule = fault.Rule
)

// Observability types. Telemetry is strictly opt-in: with no event log and
// no registry configured, a solve pays one nil check per step.
type (
	// SolveStats is the per-solve operation-count block of Result.Stats:
	// tries, failed tries, collapses, attributes processed, lattice op
	// counts, session-pool hit/miss, and wall time.
	SolveStats = core.Stats
	// CompileStats reports the one-time work performed by Compile,
	// including the §6 upper-bound fixpoint's operation counts.
	CompileStats = constraint.CompileStats
	// LatticeOpCounts tallies primitive lattice operations (lub, glb,
	// dominance, covers); populated when Options.CollectLatticeOps is set.
	LatticeOpCounts = lattice.OpCounts
	// MetricsRegistry is a named collection of atomic counters and
	// histograms that snapshots to a stable JSON shape; share one across
	// concurrent solves via Options.Metrics.
	MetricsRegistry = obs.Registry
	// MetricsSnapshot is the point-in-time JSON shape of a MetricsRegistry.
	MetricsSnapshot = obs.Snapshot
	// SolveEvent is one solver step (kind, attribute, level, SCC id),
	// stored by value in an EventLog.
	SolveEvent = obs.Event
	// SolveEventKind classifies a SolveEvent.
	SolveEventKind = obs.EventKind
	// EventLog holds one solve's event stream, each event stamped with its
	// offset when the log was started against a clock; pass one as
	// Options.Events. The trace and the span tree render from it.
	EventLog = obs.EventLog
	// MetricsGauge is an instantaneous signed value (in-flight requests,
	// pool sizes); obtain one with MetricsRegistry.Gauge.
	MetricsGauge = obs.Gauge
	// Tracer mints trace spans. The zero value is deterministic (for
	// tests); NewTracer seeds the trace ID with entropy.
	Tracer = obs.Tracer
	// Span is one timed region of a trace; spans form a tree.
	Span = obs.Span
	// SpanAttr is one key/value annotation on a Span.
	SpanAttr = obs.SpanAttr
	// SpanNode is the serializable JSON tree shape of a finished Span.
	SpanNode = obs.SpanNode
)

// Solver event kinds, mirroring the steps of Algorithm 3.1.
const (
	EventAssign    = obs.EventAssign
	EventTry       = obs.EventTry
	EventTryFailed = obs.EventTryFailed
	EventLower     = obs.EventLower
	EventCollapse  = obs.EventCollapse
	EventDone      = obs.EventDone
	EventTryStep   = obs.EventTryStep
)

// NewMetricsRegistry returns an empty metrics registry. Pass it as
// Options.Metrics to aggregate solve stats under the "solve.*" names, call
// its Publish method to expose it through expvar, and WriteJSON to dump it.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// Default histogram bucket bounds shared by the solver's canonical metrics.
var (
	// DurationBucketsUS spans 1µs–10s for latency histograms.
	DurationBucketsUS = obs.DurationBucketsUS
	// SizeBuckets spans 1–100k for operation-count histograms.
	SizeBuckets = obs.SizeBuckets
)

// NewFaultInjector returns an empty chaos-testing injector whose
// probabilistic rules draw from a PRNG seeded with seed.
func NewFaultInjector(seed int64) *FaultInjector { return fault.New(seed) }

// ParseFaultSpec builds a FaultInjector from the textual rule list used by
// minupd's -fault flag, e.g. "solve.step:delay:%1:5ms;pool.get:panic:3".
// See the fault package's ParseSpec for the grammar.
func ParseFaultSpec(spec string, seed int64) (*FaultInjector, error) {
	return fault.ParseSpec(spec, seed)
}

// NewTracer returns a tracer with a random trace ID. Start a root span,
// attach it to a context with ContextWithSpan, and pass that context to
// CompileContext / SolveContext / RepairContext to collect a span tree.
func NewTracer() *Tracer { return obs.NewTracer() }

// ContextWithSpan returns a context carrying sp as the active span; solver
// entry points attach their spans as children of it.
func ContextWithSpan(ctx context.Context, sp *Span) context.Context {
	return obs.ContextWithSpan(ctx, sp)
}

// SpanFromContext returns the active span, or nil for an uninstrumented
// context.
func SpanFromContext(ctx context.Context) *Span { return obs.SpanFromContext(ctx) }

// WriteChromeTrace serializes span trees as Chrome trace-event JSON,
// loadable in Perfetto (ui.perfetto.dev) or chrome://tracing.
func WriteChromeTrace(w io.Writer, roots ...*Span) error {
	return obs.WriteChromeTrace(w, roots...)
}

// WriteFlameSummary writes a human-readable flame-style summary of one span
// tree (same-named siblings aggregated, sorted by total duration).
func WriteFlameSummary(w io.Writer, root *Span) error {
	return obs.WriteFlameSummary(w, root)
}

// Multilevel database types.
type (
	// Schema is a relational schema whose structure (keys, foreign keys,
	// dependencies) generates classification constraints.
	Schema = mlsdb.Schema
	// Requirement is an explicit per-attribute classification requirement.
	Requirement = mlsdb.Requirement
	// Association is an explicit association constraint over several
	// attributes of one relation.
	Association = mlsdb.Association
	// Labeling maps schema attributes to computed levels.
	Labeling = mlsdb.Labeling
	// Store is a labeled in-memory storage engine with read-down
	// filtering and polyinstantiation.
	Store = mlsdb.Store
)

// Poset types (Theorem 6.1 machinery).
type (
	// Poset is an arbitrary finite partial order.
	Poset = poset.Poset
	// MinPosetInstance is a min-poset problem instance over a Poset.
	MinPosetInstance = poset.Instance
)

// NewChainLattice builds a totally ordered lattice from level names listed
// bottom-up.
func NewChainLattice(name string, bottomUp ...string) (*ChainLattice, error) {
	return lattice.NewChain(name, bottomUp...)
}

// MustChainLattice is NewChainLattice that panics on error.
func MustChainLattice(name string, bottomUp ...string) *ChainLattice {
	return lattice.MustChain(name, bottomUp...)
}

// NewMLSLattice builds a compartmented lattice from classification names
// (bottom-up) and category names.
func NewMLSLattice(name string, levels, categories []string) (*MLSLattice, error) {
	return lattice.NewMLS(name, levels, categories)
}

// NewPowersetLattice builds the subset lattice over category names.
func NewPowersetLattice(name string, categories ...string) (*PowersetLattice, error) {
	return lattice.NewPowerset(name, categories...)
}

// NewExplicitLattice builds an arbitrary finite lattice from its Hasse
// diagram: covers maps each element to its immediate descendants, in the
// left-to-right order lattice descents will follow.
func NewExplicitLattice(name string, elements []string, covers map[string][]string) (*ExplicitLattice, error) {
	return lattice.NewExplicit(name, elements, covers)
}

// CompleteSemiLattice builds a lattice from a cover relation that may lack
// a top and/or bottom, injecting dummy extremes per §6 of the paper. Use
// DiagnoseSemiLattice on the solve result to interpret attributes pinned
// at a dummy level.
func CompleteSemiLattice(name string, elements []string, covers map[string][]string) (*ExplicitLattice, error) {
	l, _, err := lattice.CompleteToLattice(name, elements, covers)
	return l, err
}

// ParseLattice reads a lattice description in the text format documented
// at lattice.Parse (chain / mls / explicit / semilattice).
func ParseLattice(r io.Reader) (Lattice, error) { return lattice.Parse(r) }

// Figure1A returns the compartmented example lattice of the paper's
// Figure 1(a).
func Figure1A() *MLSLattice { return lattice.FigureOneA() }

// Figure1B returns the seven-element example lattice of Figure 1(b), used
// by the worked example of Figure 2.
func Figure1B() *ExplicitLattice { return lattice.FigureOneB() }

// AttrRHS returns a constraint right-hand side holding an attribute.
func AttrRHS(a Attr) RHS { return constraint.AttrRHS(a) }

// LevelRHS returns a constraint right-hand side holding a level constant.
func LevelRHS(l Level) RHS { return constraint.LevelRHS(l) }

// NewConstraintSet returns an empty constraint set over the lattice.
// Populate it with AddAttr/Add/AddUpper or the textual ParseString /
// ParseInto format.
func NewConstraintSet(lat Lattice) *ConstraintSet { return constraint.NewSet(lat) }

// NewSchema returns an empty multilevel relational schema over the
// lattice.
func NewSchema(lat Lattice) *Schema { return mlsdb.NewSchema(lat) }

// NewStore creates an empty multilevel store over a schema and a labeling
// computed for it.
func NewStore(schema *Schema, labeling *Labeling) *Store {
	return mlsdb.NewStore(schema, labeling)
}

// Compile freezes the constraint set and returns an immutable compiled
// snapshot: constraint graph, SCC condensation, evaluation priorities, and
// the §6 upper-bound fixpoint, computed once. After Compile, mutators on
// the set return ErrFrozen. The snapshot is safe for concurrent use.
func Compile(set *ConstraintSet) *CompiledSet {
	return set.Compile()
}

// Solve computes a minimal classification for the constraint set with
// Algorithm 3.1 of the paper. Lower-bound-only instances always succeed;
// instances with upper bounds return *InconsistencyError when
// unsatisfiable.
//
// Solve compiles a throwaway snapshot on every call and cannot be
// canceled. Hot paths solving one set repeatedly — and any concurrent use
// — should migrate to Compile + SolveContext, which amortizes the
// compilation and recycles solver state across calls.
func Solve(set *ConstraintSet, opt Options) (*Result, error) {
	return core.Solve(set, opt)
}

// SolveContext solves a compiled set. It may be called concurrently from
// any number of goroutines on the same *CompiledSet. A canceled context
// aborts the solve promptly with an error satisfying
// errors.Is(err, ErrCanceled).
func SolveContext(ctx context.Context, compiled *CompiledSet, opt Options) (*Result, error) {
	return core.SolveContext(ctx, compiled, opt)
}

// CheckSolvable reports nil when the constraint set has a solution (§6
// preprocessing; lower-bound-only sets are always solvable).
func CheckSolvable(set *ConstraintSet) error { return core.CheckSolvable(set) }

// DeriveUpperBounds runs the §6 preprocessing pass alone, returning each
// attribute's firm maximum level or an *InconsistencyError.
func DeriveUpperBounds(set *ConstraintSet) (Assignment, error) {
	return core.DeriveUpperBounds(set)
}

// DeriveUpperBoundsContext returns the §6 preprocessing result cached in a
// compiled set: the firm maximum level of every attribute, or an
// *InconsistencyError.
func DeriveUpperBoundsContext(ctx context.Context, compiled *CompiledSet) (Assignment, error) {
	return core.DeriveUpperBoundsContext(ctx, compiled)
}

// Verification and explanation types.
type (
	// Witness is a strictly lower satisfying assignment, evidence that an
	// assignment probed by ProbeMinimality is not minimal.
	Witness = core.Witness
	// Explanation reports the constraints that pin one attribute at its
	// level.
	Explanation = core.Explanation
)

// Verify checks that an assignment satisfies every constraint of the set,
// returning nil on success. It is one linear pass over the constraints —
// the guard a serving layer runs before returning any assignment it did
// not obtain from the minimal solver, such as the Qian baseline served
// under overload degradation.
func Verify(set *ConstraintSet, m Assignment) error { return core.Verify(set, m) }

// QianBaseline computes a satisfying but generally over-classified
// assignment with the polynomial least-fixpoint propagation of [13] (§4,
// experiment E5): every violated constraint upgrades all of its left-hand
// side attributes. The result satisfies every secrecy, inference, and
// association constraint by construction — it is safe to serve, merely
// non-minimal — which makes it the principled degradation target when a
// minimal solve cannot finish inside its budget. Upper-bound constraint
// sets are not supported.
func QianBaseline(ctx context.Context, set *ConstraintSet) (Assignment, error) {
	return baseline.Qian(ctx, set)
}

// CountUpgraded returns the number of attributes classified strictly above
// lattice bottom — the over-classification cost measure of the
// optimal-upgrading literature, reported by degraded minupd responses as
// upgraded_attrs.
func CountUpgraded(set *ConstraintSet, m Assignment) int {
	return baseline.CountUpgraded(set, m)
}

// ProbeMinimality checks an arbitrary satisfying assignment for pointwise
// minimality in polynomial time, by attempting every one-step lowering
// with forward propagation — usable far beyond exhaustive search.
func ProbeMinimality(set *ConstraintSet, m Assignment) (minimal bool, w *Witness, err error) {
	return core.ProbeMinimality(set, m)
}

// ProbeMinimalityContext is ProbeMinimality against a compiled snapshot,
// with periodic cancellation checks. Safe for concurrent use.
func ProbeMinimalityContext(ctx context.Context, compiled *CompiledSet, m Assignment) (minimal bool, w *Witness, err error) {
	return core.ProbeMinimalityContext(ctx, compiled, m)
}

// Explain reports, for each level immediately below m[attr], one
// constraint that breaks if the attribute is lowered there.
func Explain(set *ConstraintSet, m Assignment, attr Attr) (*Explanation, error) {
	return core.Explain(set, m, attr)
}

// ExplainContext is Explain against a compiled snapshot. Safe for
// concurrent use.
func ExplainContext(ctx context.Context, compiled *CompiledSet, m Assignment, attr Attr) (*Explanation, error) {
	return core.ExplainContext(ctx, compiled, m, attr)
}

// FormatExplanation renders an Explanation for humans.
func FormatExplanation(set *ConstraintSet, ex *Explanation) string {
	return core.FormatExplanation(set, ex)
}

// Mandatory access-control types (the Bell–LaPadula substrate of §1).
type (
	// Monitor is a reference monitor enforcing no-read-up and
	// no-write-down over one security lattice, with an audit log.
	Monitor = mac.Monitor
	// Subject is a cleared principal.
	Subject = mac.Subject
	// Session is a subject logged in at a level its clearance dominates.
	Session = mac.Session
	// FlowSim is a taint-tracking information-flow simulation over
	// labeled objects, used to demonstrate that a labeling plus the
	// monitor prevents leakage.
	FlowSim = mac.FlowSim
)

// NewMonitor creates a reference monitor for the lattice.
func NewMonitor(lat Lattice) *Monitor { return mac.NewMonitor(lat) }

// NewFlowSim builds an information-flow simulation over labeled objects.
func NewFlowSim(mon *Monitor, levels map[string]Level) *FlowSim {
	return mac.NewFlowSim(mon, levels)
}

// Incremental repair types.
type (
	// RepairOptions tunes Repair.
	RepairOptions = core.RepairOptions
	// RepairStats reports how much work a Repair did.
	RepairStats = core.RepairStats
)

// Repair extends a minimal solution after constraints were appended to the
// set, recomputing only the attributes the additions can force upward.
// base must satisfy the first baseCount constraints (typically a previous
// Solve result before the additions).
func Repair(set *ConstraintSet, baseCount int, base Assignment, opt RepairOptions) (Assignment, *RepairStats, error) {
	return core.Repair(set, baseCount, base, opt)
}

// RepairContext is Repair with cancellation: the partial solve and any
// fallback full solve poll the context.
func RepairContext(ctx context.Context, set *ConstraintSet, baseCount int, base Assignment, opt RepairOptions) (Assignment, *RepairStats, error) {
	return core.RepairContext(ctx, set, baseCount, base, opt)
}

// NewPoset builds an arbitrary finite partial order from its cover
// relation; unlike lattices, posets need not have unique bounds, which is
// where minimal classification turns NP-complete (Theorem 6.1).
func NewPoset(name string, elements []string, covers map[string][]string) (*Poset, error) {
	return poset.FromCovers(name, elements, covers)
}

// Figure4B returns the four-element non-lattice poset of the paper's
// Figure 4(b).
func Figure4B() *Poset { return poset.Figure4B() }

// SATClause is one CNF clause for the Theorem 6.1 machinery: positive
// literal i is variable i, negative is ^i.
type SATClause = poset.Clause

// SATReduction is the Theorem 6.1 construction mapping a CNF formula to a
// min-poset instance.
type SATReduction = poset.Reduction

// ReduceSAT builds the Theorem 6.1 min-poset instance for a CNF formula.
func ReduceSAT(numVars int, clauses []SATClause) (*SATReduction, error) {
	return poset.Reduce(numVars, clauses)
}

// SolveSAT decides a CNF formula with the package's DPLL solver (the
// reduction's oracle).
func SolveSAT(numVars int, clauses []SATClause) (assignment []bool, ok bool) {
	return poset.SolveSAT(numVars, clauses)
}

// ---------------------------------------------------------------------------
// Problem frontends (internal/frontend): adjacent problem classes compiled
// into the constraint engine. Importing the façade registers the suppress
// (Kao cell suppression) and depinf (Pappachan dependency inference)
// frontends.

type (
	// ProblemFrontend compiles one source-problem family (cell-suppression
	// tables, dependency-laden relations) to policy source texts, and
	// checks a solved assignment of the set those texts parse to against a
	// source-level security and minimality oracle.
	ProblemFrontend = frontend.Frontend
	// ProblemInstance is one parsed source-problem instance with a
	// round-trippable JSON form.
	ProblemInstance = frontend.Instance
	// ProblemCompiled is a source instance compiled to its two catalog
	// policy source texts, a lattice text and a constraint text.
	ProblemCompiled = frontend.Compiled
)

// LookupProblemFrontend returns the frontend registered for a family
// ("suppress", "depinf").
func LookupProblemFrontend(family string) (ProblemFrontend, bool) { return frontend.Lookup(family) }

// ProblemFamilies returns the registered problem-frontend family names,
// sorted.
func ProblemFamilies() []string { return frontend.Families() }

// MarshalProblemInstance serializes an instance into the JSON format its
// frontend's Parse accepts.
func MarshalProblemInstance(inst ProblemInstance) ([]byte, error) { return frontend.Marshal(inst) }
