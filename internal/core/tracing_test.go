package core

import (
	"context"
	"errors"
	"strconv"
	"strings"
	"testing"
	"time"

	"minup/internal/constraint"
	"minup/internal/fault"
	"minup/internal/lattice"
	"minup/internal/obs"
	"minup/internal/workload"
)

// fakeClock advances one microsecond per call from a fixed epoch.
func fakeClock() func() time.Time {
	t := time.Unix(1_000_000, 0)
	return func() time.Time {
		t = t.Add(time.Microsecond)
		return t
	}
}

// solveFig2Traced runs one instrumented solve of the Figure 2(a) fixture
// and returns the root request span and the solve result.
func solveFig2Traced(t *testing.T, opt Options) (*obs.Span, *Result) {
	t.Helper()
	f := constraint.NewFigure2()
	c := f.Set.Compile()
	tr := &obs.Tracer{Now: fakeClock()}
	root := tr.Start("request")
	ctx := obs.ContextWithSpan(context.Background(), root)
	res, err := SolveContext(ctx, c, opt)
	if err != nil {
		t.Fatal(err)
	}
	root.End()
	return root, res
}

func TestSolveSpanTreeFigure2(t *testing.T) {
	root, res := solveFig2Traced(t, Options{})

	// One root request span with exactly one solve child.
	kids := root.Children()
	if len(kids) != 1 || kids[0].Name() != "solve" {
		names := make([]string, len(kids))
		for i, k := range kids {
			names[i] = k.Name()
		}
		t.Fatalf("request children = %v, want [solve]", names)
	}
	solve := kids[0]
	if solve.Duration() <= 0 {
		t.Fatalf("solve span not ended: duration %v", solve.Duration())
	}

	// One child per SCC, in condensation order: BigLoop walks priorities
	// from Max down to 1, so the SCC spans must carry strictly descending
	// priority numbers covering every priority set.
	sccs := solve.Children()
	if len(sccs) != res.Priorities.Max {
		t.Fatalf("got %d SCC spans, want %d (one per priority set)", len(sccs), res.Priorities.Max)
	}
	prev := res.Priorities.Max + 1
	for _, sp := range sccs {
		name := sp.Name()
		if !strings.HasPrefix(name, "scc ") {
			t.Fatalf("solve child %q is not an SCC span", name)
		}
		p, err := strconv.Atoi(strings.TrimPrefix(name, "scc "))
		if err != nil {
			t.Fatalf("SCC span name %q: %v", name, err)
		}
		if p >= prev {
			t.Fatalf("SCC spans out of condensation order: %d after %d", p, prev)
		}
		prev = p
		if sp.EndTime().IsZero() {
			t.Fatalf("SCC span %q left open", name)
		}
	}
	if prev != 1 {
		t.Fatalf("lowest SCC span is scc %d, want scc 1", prev)
	}

	// Nested descent spans: one per Try constraint check.
	descents := 0
	solve.Walk(func(s *obs.Span) {
		if s.Name() == "descent" {
			descents++
			if s.ParentID() == solve.ID() {
				t.Fatal("descent span attached directly to solve span, want nested under an SCC span")
			}
		}
	})
	if descents != res.Stats.TrySteps {
		t.Fatalf("got %d descent spans, want Stats.TrySteps = %d", descents, res.Stats.TrySteps)
	}
	if descents == 0 {
		t.Fatal("Figure 2 is cyclic; expected at least one descent span")
	}

	// The solve span carries the headline stats as attributes.
	attrs := make(map[string]string)
	for _, a := range solve.Attrs() {
		attrs[a.Key] = a.Value
	}
	if attrs["try_steps"] != strconv.Itoa(res.Stats.TrySteps) {
		t.Fatalf("solve span try_steps attr %q, want %d", attrs["try_steps"], res.Stats.TrySteps)
	}
	if attrs["tries"] != strconv.Itoa(res.Stats.Tries) {
		t.Fatalf("solve span tries attr %q, want %d", attrs["tries"], res.Stats.Tries)
	}

	// Leaf spans carry attribute names from the fixture.
	sawAttr := false
	solve.Walk(func(s *obs.Span) {
		for _, a := range s.Attrs() {
			if a.Key == "attr" && a.Value == "B" {
				sawAttr = true
			}
		}
	})
	if !sawAttr {
		t.Fatal("no leaf span carries attr=B")
	}
}

// TestSolveSpanTreeMatchesEventStream cross-checks the span reconstruction
// against a raw event count: every event becomes exactly one leaf span.
func TestSolveSpanTreeMatchesEventStream(t *testing.T) {
	f := constraint.NewFigure2()
	c := f.Set.Compile()
	tr := &obs.Tracer{Now: fakeClock()}
	root := tr.Start("request")
	ctx := obs.ContextWithSpan(context.Background(), root)
	log := new(obs.EventLog)
	if _, err := SolveContext(ctx, c, Options{Events: log}); err != nil {
		t.Fatal(err)
	}
	root.End()
	events := len(log.Events())

	leaves := 0
	root.Walk(func(s *obs.Span) {
		if len(s.Children()) == 0 && s.Name() != "request" {
			leaves++
		}
	})
	if leaves != events {
		t.Fatalf("span tree has %d leaves, event stream had %d events", leaves, events)
	}
}

// TestUntracedContextAddsNoSpans pins the zero-cost contract at the API
// level: solving with a plain context must not add any span.
func TestUntracedContextAddsNoSpans(t *testing.T) {
	f := constraint.NewFigure2()
	c := f.Set.Compile()
	res, err := SolveContext(context.Background(), c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !f.Want.Equal(res.Assignment) {
		t.Fatalf("assignment drifted: %s", f.Set.FormatAssignment(res.Assignment))
	}
}

// TestRepairSpanTree verifies RepairContext nests its partial solve under a
// repair span.
func TestRepairSpanTree(t *testing.T) {
	f := constraint.NewFigure2()
	base := MustSolve(f.Set, Options{})

	// Append a violated constraint: P is at L1, force it to B's level.
	s2 := constraint.NewFigure2()
	baseCount := len(s2.Set.Constraints())
	lv, err := s2.Lattice.ParseLevel("L5")
	if err != nil {
		t.Fatal(err)
	}
	s2.Set.MustAdd([]constraint.Attr{s2.P}, constraint.LevelRHS(lv))

	tr := &obs.Tracer{Now: fakeClock()}
	root := tr.Start("request")
	ctx := obs.ContextWithSpan(context.Background(), root)
	if _, _, err := RepairContext(ctx, s2.Set, baseCount, base.Assignment, RepairOptions{}); err != nil {
		t.Fatal(err)
	}
	root.End()

	kids := root.Children()
	if len(kids) != 1 || kids[0].Name() != "repair" {
		t.Fatalf("request children = %v, want one repair span", kids)
	}
	repair := kids[0]
	if repair.EndTime().IsZero() {
		t.Fatal("repair span left open")
	}
	var sawPartial bool
	for _, c := range repair.Children() {
		if c.Name() == "partial-solve" {
			sawPartial = true
		}
	}
	if !sawPartial {
		names := make([]string, 0, len(repair.Children()))
		for _, c := range repair.Children() {
			names = append(names, c.Name())
		}
		t.Fatalf("repair children %v missing partial-solve", names)
	}
	attrs := make(map[string]string)
	for _, a := range repair.Attrs() {
		attrs[a.Key] = a.Value
	}
	if attrs["violated_constraints"] != "1" {
		t.Fatalf("repair attrs %v, want violated_constraints=1", attrs)
	}
}

// TestTryStepEventCountMatchesStats checks the new event kind against the
// per-solve counter it mirrors.
func TestTryStepEventCountMatchesStats(t *testing.T) {
	f := constraint.NewFigure2()
	c := f.Set.Compile()
	log := new(obs.EventLog)
	res, err := SolveContext(context.Background(), c, Options{Events: log})
	if err != nil {
		t.Fatal(err)
	}
	if steps := countKinds(log)[obs.EventTryStep]; steps != res.Stats.TrySteps {
		t.Fatalf("saw %d try_step events, Stats.TrySteps = %d", steps, res.Stats.TrySteps)
	}
}

// TestTracedSolvePanicEndsEverySpan checks that a traced solve which
// panics still renders the span tree of what it logged: no span is left
// open and the solve span carries the error.
func TestTracedSolvePanicEndsEverySpan(t *testing.T) {
	inj, err := fault.ParseSpec("solve.step:panic:4", 1)
	if err != nil {
		t.Fatal(err)
	}
	c := constraint.NewFigure2().Set.Compile()
	tr := &obs.Tracer{Now: fakeClock()}
	root := tr.Start("request")
	ctx := obs.ContextWithSpan(context.Background(), root)
	if _, err := SolveContext(ctx, c, Options{Fault: inj}); !errors.Is(err, ErrInternal) {
		t.Fatalf("panicking solve returned %v, want an internal error", err)
	}
	root.End()

	kids := root.Children()
	if len(kids) != 1 || kids[0].Name() != "solve" {
		t.Fatalf("request children = %v, want one solve span", kids)
	}
	solve := kids[0]
	if len(solve.Children()) == 0 {
		t.Fatal("no spans rendered for the events logged before the panic")
	}
	solve.Walk(func(s *obs.Span) {
		if s.EndTime().IsZero() {
			t.Errorf("span %q (id %d) left open", s.Name(), s.ID())
		}
	})
	var errAttr string
	for _, a := range solve.Attrs() {
		if a.Key == "error" {
			errAttr = a.Value
		}
	}
	if !strings.Contains(errAttr, "panic") {
		t.Fatalf("solve span error attribute = %q, want the recovered panic", errAttr)
	}
}

// TestSpanTreeFromCappedLog checks a traced solve that logs into a flight
// recorder's capped log: the span tree renders the events the log kept,
// and the solve span carries the count it dropped.
func TestSpanTreeFromCappedLog(t *testing.T) {
	spec := concurrentSpec(11, true)
	spec.NumAttrs, spec.NumConstraints = 200, 600
	c := workload.MustConstraints(lattice.MustChain("c", "U", "C", "S", "TS"), spec).Compile()
	full := new(obs.EventLog)
	if _, err := SolveContext(context.Background(), c, Options{Events: full}); err != nil {
		t.Fatal(err)
	}

	flight := obs.NewFlightRecorder(obs.FlightOptions{})
	a := flight.Begin("policy.solve", "GET", "req")
	a.Status = 200
	defer flight.End(a)
	capped := a.Events()
	root := obs.NewTracer().Start("request")
	if _, err := SolveContext(obs.ContextWithSpan(context.Background(), root), c, Options{Events: capped}); err != nil {
		t.Fatal(err)
	}
	root.End()
	kept, dropped := len(capped.Events()), capped.Dropped()
	if dropped == 0 {
		t.Fatalf("the solve logs %d events, not enough to overflow a flight's log", len(full.Events()))
	}
	if kept+dropped != len(full.Events()) {
		t.Fatalf("capped log kept %d and dropped %d of %d events", kept, dropped, len(full.Events()))
	}
	solve := root.Children()[0]
	leaves := 0
	solve.Walk(func(s *obs.Span) {
		if len(s.Children()) == 0 && s != solve {
			leaves++
		}
	})
	if leaves != kept {
		t.Fatalf("span tree has %d leaves, the log kept %d events", leaves, kept)
	}
	var got string
	for _, attr := range solve.Attrs() {
		if attr.Key == "dropped_events" {
			got = attr.Value
		}
	}
	if got != strconv.Itoa(dropped) {
		t.Fatalf("solve span dropped_events = %q, want %d", got, dropped)
	}
}
