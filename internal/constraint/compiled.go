package constraint

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"minup/internal/graph"
	"minup/internal/lattice"
	"minup/internal/obs"
)

// ErrFrozen is returned by Set mutators (AddAttr, Add, AddUpper) after the
// set has been frozen by Compile. A frozen set is guaranteed to agree with
// every Compiled snapshot taken from it, so sharing the snapshot across
// goroutines is safe. Use errors.Is(err, ErrFrozen) to detect it.
var ErrFrozen = errors.New("constraint: set is frozen by Compile")

// Compiled is an immutable snapshot of a constraint Set holding what a
// solve reads: the attribute table, the constraint and upper-bound slices
// (the set view), the Constr[A] adjacency, the §4 priority numbering of
// the dependency digraph's SCCs, and (when §6 upper bounds are present) the
// derived firm per-attribute bounds. Constr[A] is two int32 arrays, n+1
// offsets and the Σ|lhs| constraint indices they cut into windows, and the
// priority sets are windows of the array that also holds the numbering.
// The digraph and Kosaraju's working arrays live in storage that compiles
// reuse, so a compile allocates only what it keeps. All of this is the
// one-time "compile" cost of Theorem 5.2's complexity argument; a Compiled
// value is safe for concurrent use by any number of solver sessions.
//
// Obtain one with Set.Compile (which freezes the source set so it can never
// drift from the snapshot) or Set.Snapshot (which leaves the source
// mutable — later mutations are NOT reflected in the snapshot, and mutating
// the set concurrently with solves of the snapshot is a data race).
type Compiled struct {
	src         *Set // private frozen copy of the source set
	pr          *graph.PriorityResult
	onOff       []int32 // Constr[a] is on[onOff[a]:onOff[a+1]]
	on          []int32
	acyclic     bool
	totalSize   int
	ub          Assignment // §6 firm bounds; nil when the set has no upper bounds
	ubConflicts []string   // non-nil when the upper bounds are inconsistent
	cstats      CompileStats
}

// CompileStats reports the one-time work performed by Compile/Snapshot —
// the amortized cost of Theorem 5.2's complexity argument — plus the §6
// fixpoint's operation counts, the compile-side counterpart of the solver's
// per-solve Result.Stats.
type CompileStats struct {
	// Attrs, Constraints, UpperBoundCons describe the snapshot's shape.
	Attrs, Constraints, UpperBoundCons int
	// TotalSize is the paper's S = Σ(|lhs|+1).
	TotalSize int
	// SCCs is the number of strongly connected components (priority sets).
	SCCs int
	// UBPops counts §6 fixpoint worklist pops; UBTightenings counts the
	// bound updates they caused. Both are zero without upper bounds.
	UBPops, UBTightenings int
	// Duration is the wall time of the compilation.
	Duration time.Duration
}

// Compile freezes the set and returns its immutable compiled form. After
// Compile, AddAttr/Add/AddUpper return ErrFrozen, so the snapshot can never
// silently go stale. Compile is idempotent; repeated calls recompute the
// snapshot (identical content) but freeze only once.
func (s *Set) Compile() *Compiled {
	s.frozen = true
	return s.snapshot()
}

// CompileContext is Compile with tracing: when ctx carries an obs span, the
// compilation emits a "compile" child span with per-phase children ("graph"
// for the dependency digraph and adjacency indexes, "scc" for the
// condensation and priority numbering, "upper-bounds" for the §6 fixpoint).
// With an uninstrumented context it is exactly Compile.
func (s *Set) CompileContext(ctx context.Context) *Compiled {
	s.frozen = true
	return s.snapshotSpan(obs.SpanFromContext(ctx))
}

// Snapshot returns an immutable compiled form without freezing the set.
// The snapshot reflects the set as of the call; constraints or bounds added
// afterwards are not visible to it. Intended for one-shot solves and for
// internal compatibility shims — callers that share a snapshot between
// goroutines while continuing to mutate the set get undefined behavior;
// use Compile for that.
func (s *Set) Snapshot() *Compiled { return s.snapshot() }

// Frozen reports whether the set has been frozen by Compile.
func (s *Set) Frozen() bool { return s.frozen }

func (s *Set) snapshot() *Compiled { return s.snapshotSpan(nil) }

// compileWork is the storage a compile reuses: the dependency digraph's
// edge list, and the digraph with Kosaraju's working arrays. Nothing a
// Compiled keeps aliases it.
type compileWork struct {
	edges [][2]int32
	scc   graph.SCCWork
}

var compileWorkPool = sync.Pool{New: func() any { return new(compileWork) }}

// snapshotSpan compiles the set in pooled working storage, emitting a
// "compile" span with per-phase children under parent when non-nil.
func (s *Set) snapshotSpan(parent *obs.Span) *Compiled {
	w := compileWorkPool.Get().(*compileWork)
	c := s.compile(parent, w)
	compileWorkPool.Put(w)
	return c
}

// compile is snapshotSpan with the working storage w.
func (s *Set) compile(parent *obs.Span, w *compileWork) *Compiled {
	start := time.Now()
	var sp, ph *obs.Span
	if parent != nil {
		sp = parent.Child("compile")
	}
	// The copy shares the backing arrays: Set mutators only append (never
	// overwrite), so the elements visible through these slice headers are
	// immutable even if the source set later grows and reallocates. They are
	// capped, so a Clone of the view lends no room that s may lend too. The
	// name index is shared as well, so s copies it before its next declare.
	if !s.sharedIndex.Load() {
		s.sharedIndex.Store(true)
	}
	src := &Set{
		lat:    s.lat,
		names:  slices.Clip(s.names),
		index:  s.index,
		cons:   slices.Clip(s.cons),
		upper:  slices.Clip(s.upper),
		frozen: true,
	}
	if sp != nil {
		ph = sp.Child("graph")
	}
	n := len(src.names)
	c := &Compiled{src: src, totalSize: src.TotalSize()}
	c.onOff, c.on = src.constrIndex()
	// TotalSize bounds the edge count, so a fresh work grows its list once.
	w.edges = src.appendEdges(slices.Grow(w.edges[:0], c.totalSize))
	w.scc.Build(n, w.edges)
	if ph != nil {
		ph.End()
		ph = sp.Child("scc")
	}
	c.pr = w.scc.Priorities()
	// Add refuses a right-hand side that is also on the left, so the graph
	// has no self-loops: it is acyclic exactly when every SCC is one node.
	c.acyclic = c.pr.Max == n
	if ph != nil {
		ph.End()
	}
	if len(src.upper) > 0 {
		if sp != nil {
			ph = sp.Child("upper-bounds")
		}
		c.ub, c.ubConflicts = upperBoundFixpoint(src, c.onOff, c.on, &c.cstats)
		if ph != nil {
			ph.End()
		}
	}
	c.cstats.Attrs = n
	c.cstats.Constraints = len(src.cons)
	c.cstats.UpperBoundCons = len(src.upper)
	c.cstats.TotalSize = c.totalSize
	c.cstats.SCCs = c.pr.Max
	c.cstats.Duration = time.Since(start)
	if sp != nil {
		sp.SetAttr("attrs", int64(c.cstats.Attrs))
		sp.SetAttr("constraints", int64(c.cstats.Constraints))
		sp.SetAttr("sccs", int64(c.cstats.SCCs))
		sp.SetAttr("total_size", int64(c.cstats.TotalSize))
		sp.End()
	}
	return c
}

// CompileStats returns the operation counts and wall time of the one-time
// compilation that produced this snapshot, including the §6 upper-bound
// fixpoint's work (the instrumentation behind DeriveUpperBounds).
func (c *Compiled) CompileStats() CompileStats { return c.cstats }

// Set returns a read-only view of the compiled constraints with the full
// Set query API (AttrName, Format, Violations, ...). The view is frozen:
// mutators return ErrFrozen.
func (c *Compiled) Set() *Set { return c.src }

// Lattice returns the security lattice the constraints are stated over.
func (c *Compiled) Lattice() lattice.Lattice { return c.src.lat }

// NumAttrs returns the number of attributes in the snapshot.
func (c *Compiled) NumAttrs() int { return len(c.src.names) }

// Constraints returns the lower-bound constraints. Callers must not modify
// the returned slice.
func (c *Compiled) Constraints() []Constraint { return c.src.cons }

// UpperBounds returns the §6 upper-bound constraints. Callers must not
// modify the returned slice.
func (c *Compiled) UpperBounds() []UpperBound { return c.src.upper }

// HasUpperBounds reports whether the snapshot carries §6 upper bounds.
func (c *Compiled) HasUpperBounds() bool { return len(c.src.upper) > 0 }

// Graph returns the attribute dependency graph. No solve reads it, so it
// is not kept: each call builds it afresh from the snapshot's constraints.
func (c *Compiled) Graph() *graph.Digraph { return c.src.Graph() }

// Priorities returns the precomputed §4 priority structure. The result is
// immutable and shared across all solves of this snapshot.
func (c *Compiled) Priorities() *graph.PriorityResult { return c.pr }

// ConstraintsOn returns Constr[a], the precomputed indices of the
// constraints whose left-hand side contains a, in constraint order: a's
// window of one shared array, capped at its length. Shared and immutable.
func (c *Compiled) ConstraintsOn(a Attr) []int32 {
	return c.on[c.onOff[a]:c.onOff[a+1]:c.onOff[a+1]]
}

// constrIndex builds Constr[A] for s as compressed rows: the windows
// on[off[a]:off[a+1]] list each attribute's constraints in order.
func (s *Set) constrIndex() (off, on []int32) {
	n := len(s.names)
	off = make([]int32, n+1)
	for _, c := range s.cons {
		for _, a := range c.LHS {
			off[a+1]++
		}
	}
	for a := range n {
		off[a+1] += off[a]
	}
	on = make([]int32, off[n])
	// off[a] is a's start; filling advances it to a's end, which is a+1's
	// start, so shifting the offsets up by one restores the starts.
	for i, c := range s.cons {
		for _, a := range c.LHS {
			on[off[a]] = int32(i)
			off[a]++
		}
	}
	copy(off[1:], off[:n])
	off[0] = 0
	return off, on
}

// ConstraintsInto returns the per-attribute indices of the constraints
// whose right-hand side is that attribute. No solve reads it, so it is not
// precomputed: each call builds it afresh from the snapshot's constraints.
func (c *Compiled) ConstraintsInto() [][]int { return c.src.ConstraintsInto() }

// Acyclic reports whether the compiled constraint graph is a DAG.
func (c *Compiled) Acyclic() bool { return c.acyclic }

// TotalSize returns the paper's S = Σ(|lhs|+1) for the snapshot.
func (c *Compiled) TotalSize() int { return c.totalSize }

// UpperBoundFixpoint returns the §6 preprocessing result computed at
// compile time: the firm maximum level of every attribute and, when the
// bounds are inconsistent, human-readable conflict descriptions. Both
// return values are nil when the set has no upper bounds. The returned
// assignment is shared and must be treated as read-only.
func (c *Compiled) UpperBoundFixpoint() (Assignment, []string) { return c.ub, c.ubConflicts }

// upperBoundFixpoint performs the §6 preprocessing phase: every attribute
// starts at ⊤; explicit upper bounds are glb-merged onto their attributes
// and pushed forward through the constraint graph (a complex constraint
// propagates the lub of its left-hand side). An inconsistency is detected
// when the bound arriving at a level constant fails to dominate it. On
// success the returned assignment labels each attribute at its maximum
// allowed level, and that assignment satisfies every lower-bound
// constraint — the starting point for the modified BigLoop.
//
// The fixpoint is computed with a worklist over constraints; each
// attribute's bound strictly decreases on every update, so the pass
// terminates after at most H updates per attribute, O(S·H·c) in the worst
// case and O(S·c) when bounds settle in one pass as the paper assumes.
// onOff and on are s's Constr[A] adjacency (Compiled.ConstraintsOn).
// Worklist pops and bound tightenings are counted into st when non-nil.
func upperBoundFixpoint(s *Set, onOff, on []int32, st *CompileStats) (Assignment, []string) {
	lat := s.lat
	n := len(s.names)
	ub := make(Assignment, n)
	for i := range ub {
		ub[i] = lat.Top()
	}
	for _, u := range s.upper {
		ub[u.Attr] = lat.Glb(ub[u.Attr], u.Level)
	}

	cons := s.cons

	// Worklist of constraint indices whose lhs bound may have tightened.
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

	var conflicts []string
	for len(queue) > 0 {
		ci := queue[0]
		queue = queue[1:]
		inQueue[ci] = false
		if st != nil {
			st.UBPops++
		}
		c := cons[ci]
		bound := lat.Bottom()
		for _, a := range c.LHS {
			bound = lat.Lub(bound, ub[a])
		}
		if c.RHS.IsLevel {
			if !lat.Dominates(bound, c.RHS.Level) {
				conflicts = append(conflicts, fmt.Sprintf(
					"upper bounds cap lub of lhs at %s, below required %s in %q",
					lat.FormatLevel(bound), lat.FormatLevel(c.RHS.Level), s.Format(c)))
			}
			continue
		}
		rhs := c.RHS.Attr
		merged := lat.Glb(ub[rhs], bound)
		if merged != ub[rhs] {
			ub[rhs] = merged
			if st != nil {
				st.UBTightenings++
			}
			for _, dep := range on[onOff[rhs]:onOff[rhs+1]] {
				push(int(dep))
			}
		}
	}
	return ub, conflicts
}
