package core

import (
	"context"
	"strings"
	"sync"
	"testing"

	"minup/internal/constraint"
	"minup/internal/obs"
)

// TestStatsMatchTrace cross-checks the telemetry counters against the
// trace on the paper's Figure 2 instance: Stats.Tries and
// Stats.FailedTries must equal the counts derived from Trace.Tries().
func TestStatsMatchTrace(t *testing.T) {
	f := constraint.NewFigure2()
	res := MustSolve(f.Set, Options{RecordTrace: true})
	tries := res.Trace.Tries()
	failed := 0
	for _, s := range tries {
		if strings.HasSuffix(s, " F") {
			failed++
		}
	}
	if res.Stats.Tries != len(tries) {
		t.Errorf("Stats.Tries = %d, trace has %d try rows", res.Stats.Tries, len(tries))
	}
	if res.Stats.FailedTries != failed {
		t.Errorf("Stats.FailedTries = %d, trace has %d failed rows", res.Stats.FailedTries, failed)
	}
	if res.Stats.AttrsProcessed != f.Set.NumAttrs() {
		t.Errorf("AttrsProcessed = %d, want %d", res.Stats.AttrsProcessed, f.Set.NumAttrs())
	}
}

// countKinds tallies a log's events by kind.
func countKinds(log *obs.EventLog) map[obs.EventKind]int {
	n := make(map[obs.EventKind]int)
	for _, e := range log.Events() {
		n[e.Kind]++
	}
	return n
}

// TestEventStreamMatchesStats tallies the event log by kind and checks it
// is consistent with the per-solve stats block.
func TestEventStreamMatchesStats(t *testing.T) {
	f := constraint.NewFigure2()
	log := new(obs.EventLog)
	res := MustSolve(f.Set, Options{Events: log})
	n := countKinds(log)

	try, tryFailed := n[obs.EventTry], n[obs.EventTryFailed]
	if try+tryFailed != res.Stats.Tries {
		t.Errorf("try events %d + failed %d != Stats.Tries %d", try, tryFailed, res.Stats.Tries)
	}
	if tryFailed != res.Stats.FailedTries {
		t.Errorf("try_failed events = %d, Stats.FailedTries = %d", tryFailed, res.Stats.FailedTries)
	}
	assign, done, collapse := n[obs.EventAssign], n[obs.EventDone], n[obs.EventCollapse]
	if assign+done+collapse != res.Stats.AttrsProcessed {
		t.Errorf("assign %d + done %d + collapse %d != AttrsProcessed %d",
			assign, done, collapse, res.Stats.AttrsProcessed)
	}
	// Every successful try lowers at least the tried attribute.
	if lower := n[obs.EventLower]; lower < try {
		t.Errorf("lower events %d < successful tries %d", lower, try)
	}
}

// TestEventCarriesSCC checks events carry the §4 priority (SCC id) of
// their attribute.
func TestEventCarriesSCC(t *testing.T) {
	f := constraint.NewFigure2()
	compiled := f.Set.Compile()
	pr := compiled.Priorities()
	log := new(obs.EventLog)
	if _, err := SolveContext(context.Background(), compiled, Options{Events: log}); err != nil {
		t.Fatal(err)
	}
	bad := 0
	for _, e := range log.Events() {
		if e.Attr < 0 || int(e.SCC) != pr.Priority[e.Attr] {
			bad++
		}
	}
	if bad != 0 {
		t.Errorf("%d events carried a wrong SCC id", bad)
	}
}

// TestSinkIsPerSolve checks that Options.Events logs exactly the solve it
// is passed to: that solve logs at least one event per try and per
// processed attribute, and a later solve of the same snapshot without a
// log, which reuses the pooled session, appends nothing to it.
func TestSinkIsPerSolve(t *testing.T) {
	compiled := constraint.NewFigure2().Set.Compile()
	log := new(obs.EventLog)
	res, err := SolveContext(context.Background(), compiled, Options{Events: log})
	if err != nil {
		t.Fatal(err)
	}
	events := len(log.Events())
	if events < res.Stats.Tries+res.Stats.AttrsProcessed {
		t.Errorf("only %d events for %d tries + %d attrs", events, res.Stats.Tries, res.Stats.AttrsProcessed)
	}
	if _, err := SolveContext(context.Background(), compiled, Options{}); err != nil {
		t.Fatal(err)
	}
	if n := len(log.Events()); n != events {
		t.Errorf("solve without a log appended %d events to the previous solve's log", n-events)
	}
}

// TestCollectLatticeOps checks the op counters are populated exactly when
// requested.
func TestCollectLatticeOps(t *testing.T) {
	f := constraint.NewFigure2()
	plain := MustSolve(f.Set, Options{})
	if plain.Stats.LatticeOps.Total() != 0 {
		t.Errorf("lattice ops counted without CollectLatticeOps: %+v", plain.Stats.LatticeOps)
	}
	counted := MustSolve(f.Set, Options{CollectLatticeOps: true})
	if counted.Stats.LatticeOps.Lub == 0 || counted.Stats.LatticeOps.Dominates == 0 {
		t.Errorf("lattice ops not counted: %+v", counted.Stats.LatticeOps)
	}
	// Instrumentation must not change the result.
	if !plain.Assignment.Equal(counted.Assignment) {
		t.Error("CollectLatticeOps changed the solution")
	}
}

// TestSolveDurationAndPool sanity-checks the wall-time and pool fields.
// The second of two sequential solves reuses the first one's pooled
// session. Under the race detector sync.Pool drops a quarter of the values
// it is given, on purpose, so there a hit is only required within 16
// sequential solves after the first: missing all of them has probability
// 4^-16.
func TestSolveDurationAndPool(t *testing.T) {
	f := constraint.NewFigure2()
	compiled := f.Set.Compile()
	// Prime the pool, then a same-goroutine re-solve must hit it.
	if _, err := SolveContext(context.Background(), compiled, Options{}); err != nil {
		t.Fatal(err)
	}
	tries := 1
	if raceEnabled {
		tries = 16
	}
	hit := false
	for i := 0; i < tries && !hit; i++ {
		res, err := SolveContext(context.Background(), compiled, Options{})
		if err != nil {
			t.Fatal(err)
		}
		hit = res.Stats.PoolHit
		if res.Stats.Duration <= 0 {
			t.Errorf("Duration = %v, want > 0", res.Stats.Duration)
		}
	}
	if !hit {
		t.Errorf("%d sequential solves after the first reused no pooled session", tries)
	}
}

// TestConcurrentMetricsAggregate runs many concurrent solves of one
// compiled snapshot recording into a shared registry and checks the
// aggregate counters are exact: the solve is deterministic, so every
// counter must equal solves × the single-solve value. Run under -race this
// also proves the registry path is data-race free.
func TestConcurrentMetricsAggregate(t *testing.T) {
	f := constraint.NewFigure2()
	compiled := f.Set.Compile()
	one, err := SolveContext(context.Background(), compiled, Options{})
	if err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	const workers, per = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := SolveContext(context.Background(), compiled, Options{Metrics: reg}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()

	const total = workers * per
	checks := map[string]uint64{
		MetricSolveCount:          total,
		MetricSolveErrors:         0,
		MetricSolveTries:          uint64(total * one.Stats.Tries),
		MetricSolveFailedTries:    uint64(total * one.Stats.FailedTries),
		MetricSolveAttrsProcessed: uint64(total * one.Stats.AttrsProcessed),
		MetricSolveMinlevelCalls:  uint64(total * one.Stats.MinlevelCalls),
		MetricSolveTrySteps:       uint64(total * one.Stats.TrySteps),
	}
	for name, want := range checks {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	hit := reg.Counter(MetricSolvePoolHit).Value()
	miss := reg.Counter(MetricSolvePoolMiss).Value()
	if hit+miss != total {
		t.Errorf("pool hit %d + miss %d != %d solves", hit, miss, total)
	}
	if got := reg.Histogram(MetricSolveDurationUS, obs.DurationBucketsUS).Count(); got != total {
		t.Errorf("duration histogram count = %d, want %d", got, total)
	}
}

// TestTraceStepsReconstruction checks the lazily materialized Steps agree
// with Table/Final on the Figure 2 instance.
func TestTraceStepsReconstruction(t *testing.T) {
	f := constraint.NewFigure2()
	res := MustSolve(f.Set, Options{RecordTrace: true})
	steps := res.Trace.Steps()
	if len(steps) != res.Trace.Len() {
		t.Fatalf("Steps() returned %d rows, Len() = %d", len(steps), res.Trace.Len())
	}
	if steps[0].Action != "initial" || steps[0].Attr != -1 {
		t.Errorf("first step = %+v, want the initial row", steps[0])
	}
	last := steps[len(steps)-1]
	if !last.After.Equal(res.Trace.Final()) {
		t.Error("last step's After differs from Final()")
	}
	if !last.After.Equal(res.Assignment) {
		t.Error("last step's After differs from the result assignment")
	}
	failed := 0
	for _, s := range steps {
		if s.Failed {
			failed++
			if !strings.HasPrefix(s.Action, "try(") {
				t.Errorf("failed step with action %q", s.Action)
			}
		}
	}
	if failed != res.Stats.FailedTries {
		t.Errorf("%d failed steps, Stats.FailedTries = %d", failed, res.Stats.FailedTries)
	}
}
