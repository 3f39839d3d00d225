package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"minup/internal/constraint"
	"minup/internal/core"
	"minup/internal/obs"
)

// slowCfg returns a faultCfg whose every solver step sleeps, so a solve
// reliably outlives the given budget while the Qian baseline (which does
// not run through the solver) stays fast.
func slowCfg(t *testing.T, stepDelay, budget time.Duration) config {
	t.Helper()
	cfg := faultCfg(t, fmt.Sprintf("solve.step:delay:%%1:%s", stepDelay))
	cfg.solveTimeout = budget
	return cfg
}

func TestReadyzStates(t *testing.T) {
	srv, h, _ := newTestServer(t)

	rec := get(t, h, "/readyz")
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "ready") {
		t.Fatalf("idle /readyz = %d %q, want 200 ready", rec.Code, rec.Body.String())
	}

	srv.draining.Store(true)
	rec = get(t, h, "/readyz")
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), "draining") {
		t.Fatalf("draining /readyz = %d %q, want 503 draining", rec.Code, rec.Body.String())
	}
	// Liveness is unaffected: a draining process is still alive.
	if rec := get(t, h, "/healthz"); rec.Code != http.StatusOK {
		t.Fatalf("draining /healthz = %d, want 200", rec.Code)
	}
	srv.draining.Store(false)

	srv.gate.queued.Add(srv.gate.softQueue)
	rec = get(t, h, "/readyz")
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), "overloaded") {
		t.Fatalf("overloaded /readyz = %d %q, want 503 overloaded", rec.Code, rec.Body.String())
	}
	srv.gate.queued.Add(-srv.gate.softQueue)
}

func TestSolveShedWhenSaturated(t *testing.T) {
	cfg := defaultConfig()
	cfg.maxInflight = 1
	cfg.maxQueue = 0
	srv, h, _ := newTestServerCfg(t, cfg)
	putWarm(t, h, "fig2")

	// Occupy the only slot, as a long-running solve would.
	srv.gate.sem <- struct{}{}
	defer func() { <-srv.gate.sem }()

	rec := get(t, h, "/policies/fig2/solve")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("saturated solve = %d: %s", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("shed response has no Retry-After")
	}
	if got := srv.reg.Snapshot().Counters["http.shed"]; got != 1 {
		t.Fatalf("http.shed = %d, want 1", got)
	}
	// The trace route runs behind the same gate.
	if rec := get(t, h, "/policies/fig2/trace"); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("saturated trace = %d", rec.Code)
	}
}

func TestSolveShedWhileDraining(t *testing.T) {
	srv, h, _ := newTestServer(t)
	putWarm(t, h, "fig2")
	srv.draining.Store(true)
	for _, path := range []string{"/policies/fig2/solve", "/policies/fig2/trace"} {
		rec := get(t, h, path)
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("draining %s = %d: %s", path, rec.Code, rec.Body.String())
		}
		if !strings.Contains(rec.Body.String(), "draining") {
			t.Fatalf("draining shed body %q", rec.Body.String())
		}
	}
}

// decodeDegraded asserts a 200 degraded response with the given reason and
// returns it after re-verifying the served assignment against the Figure
// 2(a) set.
func decodeDegraded(t *testing.T, rec *httptest.ResponseRecorder, reason string) policySolveResponse {
	t.Helper()
	out := decodeSolve(t, rec)
	if !out.Degraded || out.DegradeReason != reason {
		t.Fatalf("degraded=%v reason=%q, want degraded %q: %s", out.Degraded, out.DegradeReason, reason, rec.Body.String())
	}
	if out.CacheHit {
		t.Fatal("degraded answer claims a cache hit")
	}
	if out.UpgradedAttrs <= 0 {
		t.Fatalf("degraded response reports %d upgraded attrs", out.UpgradedAttrs)
	}
	// The degraded answer must still satisfy every constraint: parse the
	// served levels back and check.
	set := constraint.NewFigure2().Set
	lat := set.Lattice()
	m := make(constraint.Assignment, len(out.Assignment))
	for _, a := range set.Attrs() {
		lvl, err := lat.ParseLevel(out.Assignment[set.AttrName(a)])
		if err != nil {
			t.Fatalf("served level %q: %v", out.Assignment[set.AttrName(a)], err)
		}
		m[a] = lvl
	}
	if err := core.Verify(set, m); err != nil {
		t.Fatalf("degraded assignment does not verify: %v", err)
	}
	return out
}

func TestSolveDegradesOnDeadline(t *testing.T) {
	srv, h, _ := newTestServerCfg(t, slowCfg(t, 30*time.Millisecond, 10*time.Millisecond))
	putCold(t, srv, h, "fig2")
	decodeDegraded(t, get(t, h, "/policies/fig2/solve"), "deadline")
	snap := srv.reg.Snapshot()
	if snap.Counters["solve.degraded"] != 1 || snap.Counters["solve.degraded.deadline"] != 1 {
		t.Fatalf("degraded counters %v", snap.Counters)
	}
}

// TestSolveDegradesWhileVersionSolves: a read whose budget runs out while
// another caller holds the version's solve does not wait the solve out; it
// answers with the baseline, degraded for its deadline.
func TestSolveDegradesWhileVersionSolves(t *testing.T) {
	cfg := faultCfg(t, "catalog.compile:delay:2:300ms")
	srv, h, _ := newTestServerCfg(t, cfg)
	putCold(t, srv, h, "fig2")
	held := make(chan error, 1)
	go func() { _, err := srv.cat.Solve(context.Background(), "fig2"); held <- err }()
	for deadline := time.Now().Add(time.Minute); cfg.fault.Hits("catalog.compile") < 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the held solve never reached its compile")
		}
	}
	decodeDegraded(t, get(t, h, "/policies/fig2/solve?timeout_ms=20"), "deadline")
	if err := <-held; err != nil {
		t.Fatal(err)
	}
}

func TestSolveDegradesOnOverload(t *testing.T) {
	srv, h, _ := newTestServerCfg(t, faultCfg(t, ""))
	putCold(t, srv, h, "fig2")
	srv.gate.queued.Add(srv.gate.softQueue)
	defer srv.gate.queued.Add(-srv.gate.softQueue)
	decodeDegraded(t, get(t, h, "/policies/fig2/solve"), "overload")
	snap := srv.reg.Snapshot()
	if snap.Counters["solve.degraded"] != 1 || snap.Counters["solve.degraded.overload"] != 1 {
		t.Fatalf("degraded counters %v", snap.Counters)
	}
	// The baseline answered in place of Algorithm 3.1: no cold solve ran.
	if snap.Counters["solve.cold"] != 0 {
		t.Fatalf("solve.cold = %d under overload, want 0", snap.Counters["solve.cold"])
	}
}

// TestDegradedBaselineFailureIs503: Qian propagation does not support §6
// upper bounds, so an overloaded cold read of an upper-bounded policy has
// no safe answer to serve and sheds with 503 + Retry-After.
func TestDegradedBaselineFailureIs503(t *testing.T) {
	srv, h, _ := newTestServerCfg(t, faultCfg(t, ""))
	body := &policyRequest{Lattice: testPolicyLattice, Constraints: "attrs salary rank\nsalary >= rank\nS >= salary\n"}
	if rec := policyReq(t, h, http.MethodPut, "/policies/ub", body, nil); rec.Code != http.StatusCreated {
		t.Fatalf("PUT = %d: %s", rec.Code, rec.Body.String())
	}
	if err := srv.cat.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	srv.gate.queued.Add(srv.gate.softQueue)
	defer srv.gate.queued.Add(-srv.gate.softQueue)
	rec := get(t, h, "/policies/ub/solve")
	if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
		t.Fatalf("overloaded cold read of an upper-bounded policy = %d (Retry-After %q): %s",
			rec.Code, rec.Header().Get("Retry-After"), rec.Body.String())
	}
}

// TestWarmPolicyNotDegradedUnderOverload: a warm version costs no solve, so
// overload never degrades it — the memo answer is served byte for byte.
func TestWarmPolicyNotDegradedUnderOverload(t *testing.T) {
	srv, h, _ := newTestServer(t)
	putWarm(t, h, "fig2")
	calm := get(t, h, "/policies/fig2/solve")
	srv.gate.queued.Add(srv.gate.softQueue)
	defer srv.gate.queued.Add(-srv.gate.softQueue)
	busy := get(t, h, "/policies/fig2/solve")
	if out := decodeSolve(t, busy); out.Degraded || !out.CacheHit {
		t.Fatalf("warm policy under overload: degraded=%v hit=%v", out.Degraded, out.CacheHit)
	}
	if busy.Body.String() != calm.Body.String() {
		t.Fatalf("overloaded memo answer differs:\n%s\nvs\n%s", busy.Body.String(), calm.Body.String())
	}
	if got := srv.reg.Snapshot().Counters["solve.degraded"]; got != 0 {
		t.Fatalf("solve.degraded = %d, want 0", got)
	}
}

// TestDegradedAnswerNotMemoized: a baseline answer is never memoized, so the
// first read after the gate clears solves the version minimally.
func TestDegradedAnswerNotMemoized(t *testing.T) {
	srv, h, _ := newTestServerCfg(t, faultCfg(t, ""))
	putCold(t, srv, h, "fig2")
	srv.gate.queued.Add(srv.gate.softQueue)
	degraded := decodeDegraded(t, get(t, h, "/policies/fig2/solve"), "overload")
	srv.gate.queued.Add(-srv.gate.softQueue)

	minimal := decodeSolve(t, get(t, h, "/policies/fig2/solve"))
	if minimal.Degraded || minimal.CacheHit {
		t.Fatalf("first read after overload: degraded=%v hit=%v, want a fresh minimal solve", minimal.Degraded, minimal.CacheHit)
	}
	if minimal.Assignment["B"] != "L5" {
		t.Fatalf("λ(B) = %q, want L5", minimal.Assignment["B"])
	}
	if again := decodeSolve(t, get(t, h, "/policies/fig2/solve")); !again.CacheHit || again.Degraded {
		t.Fatalf("second read: hit=%v degraded=%v, want the memoized minimal answer", again.CacheHit, again.Degraded)
	}
	if fmt.Sprint(degraded.Assignment) == fmt.Sprint(minimal.Assignment) {
		t.Fatalf("Figure 2(a) baseline equals the minimal solution %v", minimal.Assignment)
	}
}

// TestTraceNeverDegradesOrMemoizes: the trace route runs the minimal solver
// even under overload, and leaves the memo as it found it — cold stays
// cold, warm keeps its answer.
func TestTraceNeverDegradesOrMemoizes(t *testing.T) {
	srv, h, _ := newTestServerCfg(t, faultCfg(t, ""))
	putCold(t, srv, h, "fig2")
	srv.gate.queued.Add(srv.gate.softQueue)
	if rec := get(t, h, "/policies/fig2/trace"); rec.Code != http.StatusOK {
		t.Fatalf("trace under overload = %d: %s", rec.Code, rec.Body.String())
	}
	srv.gate.queued.Add(-srv.gate.softQueue)
	if info, err := srv.cat.Get("fig2"); err != nil || info.Solved || !info.Compiled {
		t.Fatalf("after a cold trace: %+v, %v; want compiled but unsolved", info, err)
	}

	warm := get(t, h, "/policies/fig2/solve")
	if out := decodeSolve(t, warm); out.CacheHit {
		t.Fatal("the trace memoized a solve")
	}
	before := srv.reg.Snapshot().Counters
	if rec := get(t, h, "/policies/fig2/trace"); rec.Code != http.StatusOK {
		t.Fatalf("warm trace = %d", rec.Code)
	}
	after := srv.reg.Snapshot().Counters
	for _, c := range []string{"catalog.cache_hits", "catalog.cache_misses", "catalog.compiles", "solve.cold"} {
		if after[c] != before[c] {
			t.Fatalf("%s moved across a trace: %d -> %d", c, before[c], after[c])
		}
	}
	if again := get(t, h, "/policies/fig2/solve"); again.Body.String() != strings.Replace(warm.Body.String(), `"cache_hit": false`, `"cache_hit": true`, 1) {
		t.Fatalf("memo answer changed across a trace:\n%s\nvs\n%s", again.Body.String(), warm.Body.String())
	}
}

func TestSolveTimeoutQueryClamped(t *testing.T) {
	// ?timeout_ms may shrink the budget but never grow it past the flag.
	srv, _, _ := newTestServerCfg(t, slowCfg(t, time.Millisecond, 50*time.Millisecond))
	req := httptest.NewRequest(http.MethodGet, "/policies/p/solve?timeout_ms=999999", nil)
	if got := srv.solveBudget(req.URL.Query()); got != 50*time.Millisecond {
		t.Fatalf("budget = %s, want clamp to 50ms", got)
	}
	req = httptest.NewRequest(http.MethodGet, "/policies/p/solve?timeout_ms=0", nil)
	if got := srv.solveBudget(req.URL.Query()); got != time.Millisecond {
		t.Fatalf("budget = %s, want floor 1ms", got)
	}
	req = httptest.NewRequest(http.MethodGet, "/policies/p/solve?timeout_ms=7", nil)
	if got := srv.solveBudget(req.URL.Query()); got != 7*time.Millisecond {
		t.Fatalf("budget = %s, want 7ms", got)
	}
	// Counts whose duration overflows int64 nanoseconds clamp to the flag
	// too, instead of wrapping negative and flooring at 1ms.
	for _, q := range []string{"10000000000000", "9223372036854775807"} {
		req = httptest.NewRequest(http.MethodGet, "/policies/p/solve?timeout_ms="+q, nil)
		if got := srv.solveBudget(req.URL.Query()); got != 50*time.Millisecond {
			t.Fatalf("timeout_ms=%s: budget = %s, want clamp to 50ms", q, got)
		}
	}
}

func TestSolverPanicAnswers500(t *testing.T) {
	// A fault-injected solver panic must surface as an opaque 500 (the
	// recovery guard in core converts it to a typed internal error), never
	// crash the server, and leave the next solve working.
	srv, h, _ := newTestServerCfg(t, faultCfg(t, "solve.step:panic:1"))
	putCold(t, srv, h, "fig2")
	rec := get(t, h, "/policies/fig2/solve")
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking solve = %d: %s", rec.Code, rec.Body.String())
	}
	if strings.Contains(rec.Body.String(), "goroutine") {
		t.Fatal("500 body leaks a stack trace")
	}
	// The panic fired its once-only rule; the next solve must be clean.
	rec = get(t, h, "/policies/fig2/solve")
	if rec.Code != http.StatusOK {
		t.Fatalf("solve after panic = %d: %s", rec.Code, rec.Body.String())
	}
	if got := core.PanicsRecovered(); got < 1 {
		t.Fatalf("PanicsRecovered = %d, want >= 1", got)
	}
}

func TestMiddlewarePanicRecovery(t *testing.T) {
	reg := obs.NewRegistry()
	logBuf := &strings.Builder{}
	logger := slog.New(slog.NewJSONHandler(logBuf, nil))
	o := httpObs{reg: reg, logger: logger, flight: obs.NewFlightRecorder(obs.FlightOptions{})}
	h := instrument("boom", o, func(http.ResponseWriter, *http.Request) {
		panic("handler exploded")
	})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/boom", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking handler = %d", rec.Code)
	}
	snap := reg.Snapshot()
	if snap.Counters["http.panics"] != 1 {
		t.Fatalf("http.panics = %d, want 1", snap.Counters["http.panics"])
	}
	if snap.Counters["http.boom.status.5xx"] != 1 {
		t.Fatalf("5xx counter = %d, want 1 (bookkeeping must survive the panic)", snap.Counters["http.boom.status.5xx"])
	}
	if snap.Gauges["http.in_flight"] != 0 {
		t.Fatalf("in_flight = %d after panic", snap.Gauges["http.in_flight"])
	}
	log := logBuf.String()
	if !strings.Contains(log, "handler panic") || !strings.Contains(log, "handler exploded") {
		t.Fatalf("panic not logged:\n%s", log)
	}
	if recent := o.flight.Snapshot().Recent; len(recent) != 1 || !recent[0].Panicked || recent[0].Status != 500 {
		t.Fatalf("flight records = %+v, want one panicked 500", recent)
	}
}

// TestGracefulShutdownDrainsInFlight is the end-to-end drain scenario over
// a real listener: an in-flight slow cold solve must complete while the
// draining server refuses new work and reports not-ready.
func TestGracefulShutdownDrainsInFlight(t *testing.T) {
	srv, h, _ := newTestServerCfg(t, slowCfg(t, 20*time.Millisecond, 2*time.Second))
	putCold(t, srv, h, "fig2")
	ts := httptest.NewServer(h)
	defer ts.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	inflight := make(chan int, 1)
	go func() {
		defer wg.Done()
		resp, err := http.Get(ts.URL + "/policies/fig2/solve")
		if err != nil {
			t.Errorf("in-flight solve: %v", err)
			inflight <- 0
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		inflight <- resp.StatusCode
	}()

	// Give the slow solve time to pass admission and enter the solver,
	// then start draining, as the SIGTERM handler does.
	time.Sleep(30 * time.Millisecond)
	srv.draining.Store(true)

	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining /readyz = %d, want 503", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/policies/fig2/solve")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("new solve while draining = %d, want 503", resp.StatusCode)
	}

	wg.Wait()
	if code := <-inflight; code != http.StatusOK {
		t.Fatalf("in-flight solve finished %d, want 200 (drain must not kill it)", code)
	}
}
