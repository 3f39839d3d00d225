package main

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"minup"
)

// newTestServer builds a catalog server with the full middleware stack and
// default serving policy, mirroring main().
func newTestServer(t *testing.T) (*server, http.Handler, *strings.Builder) {
	t.Helper()
	return newTestServerCfg(t, defaultConfig())
}

// newTestServerCfg is newTestServer with an explicit serving policy, for
// the admission/degradation tests. Like main, it opens the catalog with the
// config's fault injector and flight recorder.
func newTestServerCfg(t *testing.T, cfg config) (*server, http.Handler, *strings.Builder) {
	t.Helper()
	reg := minup.NewMetricsRegistry()
	cat, err := minup.OpenCatalog(minup.CatalogOptions{Metrics: reg, Flight: cfg.flight, Fault: cfg.fault})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cat.Close() })
	srv := newServer(cat, reg, cfg)
	logBuf := &strings.Builder{}
	logger := slog.New(slog.NewJSONHandler(logBuf, nil))
	return srv, srv.routes(logger), logBuf
}

func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec
}

// fig2Policy is the Figure 2(a) constraint set over the Figure 1(b)
// lattice, from the checked-in fixtures.
func fig2Policy(t *testing.T) *policyRequest {
	t.Helper()
	lat, err := os.ReadFile("../../testdata/lattice_fig1b.txt")
	if err != nil {
		t.Fatal(err)
	}
	cons, err := os.ReadFile("../../testdata/constraints_fig2.txt")
	if err != nil {
		t.Fatal(err)
	}
	return &policyRequest{Lattice: string(lat), Constraints: string(cons)}
}

// putWarm creates the Figure 2(a) policy under name with ?wait=1, so its
// version is solved and memoized before the call returns.
func putWarm(t *testing.T, h http.Handler, name string) {
	t.Helper()
	if rec := policyReq(t, h, http.MethodPut, "/policies/"+name+"?wait=1", fig2Policy(t), nil); rec.Code != http.StatusCreated {
		t.Fatalf("PUT %s = %d: %s", name, rec.Code, rec.Body.String())
	}
}

// coldRule cancels the first catalog compile. Armed by faultCfg, it makes
// the refresh of putCold's policy fail, so that version is still cold when
// the next request reads it.
const coldRule = "catalog.compile:cancel:1"

// faultCfg is the default config with a fault injector armed with coldRule
// and the given extra rules.
func faultCfg(t *testing.T, rules string) config {
	t.Helper()
	inj, err := minup.ParseFaultSpec(coldRule+";"+rules, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := defaultConfig()
	cfg.fault = inj
	return cfg
}

// putCold creates the Figure 2(a) policy under name without waiting and
// drains the refresh pipeline, whose compile coldRule cancels: the version
// is left cold, so the next solve of it runs at request time.
func putCold(t *testing.T, srv *server, h http.Handler, name string) {
	t.Helper()
	if rec := policyReq(t, h, http.MethodPut, "/policies/"+name, fig2Policy(t), nil); rec.Code != http.StatusCreated {
		t.Fatalf("PUT %s = %d: %s", name, rec.Code, rec.Body.String())
	}
	if err := srv.cat.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if info, err := srv.cat.Get(name); err != nil || info.Solved {
		t.Fatalf("policy %s after its refresh: %+v, %v; want a cold version", name, info, err)
	}
}

// decodeSolve asserts a 200 solve answer and decodes it.
func decodeSolve(t *testing.T, rec *httptest.ResponseRecorder) policySolveResponse {
	t.Helper()
	if rec.Code != http.StatusOK {
		t.Fatalf("solve = %d: %s", rec.Code, rec.Body.String())
	}
	var out policySolveResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestSolveEndpoint(t *testing.T) {
	_, h, _ := newTestServer(t)
	putWarm(t, h, "fig2")
	rec := get(t, h, "/policies/fig2/solve")
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q", ct)
	}
	if rec.Header().Get("X-Request-Id") == "" {
		t.Fatal("no X-Request-Id header")
	}
	out := decodeSolve(t, rec)
	if out.Assignment["B"] != "L5" {
		t.Fatalf("λ(B) = %q, want L5", out.Assignment["B"])
	}
	if out.TraceID != "" {
		t.Fatalf("untraced solve reported trace id %q", out.TraceID)
	}
}

func TestSolveEndpointTraced(t *testing.T) {
	srv, h, logBuf := newTestServerCfg(t, faultCfg(t, ""))
	putCold(t, srv, h, "fig2")
	out := decodeSolve(t, get(t, h, "/policies/fig2/solve?trace=1"))
	if out.TraceID == "" {
		t.Fatal("traced solve did not report a trace id")
	}
	if out.CacheHit || out.Assignment["B"] != "L5" {
		t.Fatalf("traced cold solve: hit=%v λ(B)=%q", out.CacheHit, out.Assignment["B"])
	}
	if !strings.Contains(logBuf.String(), out.TraceID) {
		t.Fatalf("access log does not carry trace id %s:\n%s", out.TraceID, logBuf.String())
	}
	// A warm read traces too; it just has no solve to hang under the root.
	if warm := decodeSolve(t, get(t, h, "/policies/fig2/solve?trace=1")); warm.TraceID == "" || warm.TraceID == out.TraceID {
		t.Fatalf("warm traced solve reported trace id %q", warm.TraceID)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, h, _ := newTestServer(t)
	for _, path := range []string{"/metrics", "/healthz", "/readyz", "/policies/fig2/trace"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader("{}")))
		if rec.Code != http.StatusMethodNotAllowed {
			t.Errorf("POST %s = %d, want 405", path, rec.Code)
		}
		if allow := rec.Header().Get("Allow"); !strings.Contains(allow, http.MethodGet) {
			t.Errorf("POST %s Allow = %q, want GET listed", path, allow)
		}
	}
	// The mux serves HEAD wherever GET is registered.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodHead, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("HEAD /healthz = %d, want 200", rec.Code)
	}
}

func TestMetricsEndpointJSON(t *testing.T) {
	_, h, _ := newTestServer(t)
	putWarm(t, h, "fig2")
	get(t, h, "/policies/fig2/solve")
	rec := get(t, h, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var snap minup.MetricsSnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	// One solve: the waited PUT's; the read was a memo hit.
	if snap.Counters["solve.count"] != 1 {
		t.Fatalf("solve.count = %d, want 1", snap.Counters["solve.count"])
	}
	if _, ok := snap.Gauges["solve.pool.sessions"]; !ok {
		t.Fatalf("gauges %v missing solve.pool.sessions", snap.Gauges)
	}
	if _, ok := snap.Gauges["http.in_flight"]; !ok {
		t.Fatalf("gauges %v missing http.in_flight", snap.Gauges)
	}
}

func TestMetricsEndpointPrometheus(t *testing.T) {
	_, h, _ := newTestServer(t)
	putWarm(t, h, "fig2")
	get(t, h, "/policies/fig2/solve")
	rec := get(t, h, "/metrics?format=prometheus")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics?format=prometheus = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q", ct)
	}
	body := rec.Body.String()
	if body == "" {
		t.Fatal("empty Prometheus body")
	}
	for _, want := range []string{
		"# TYPE solve_count counter",
		"# TYPE http_in_flight gauge",
		"solve_duration_us_bucket{le=\"+Inf\"}",
		"http_policy_solve_duration_us_count",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("Prometheus body missing %q:\n%s", want, body)
		}
	}
}

func TestMetricsPreRegisteredBeforeTraffic(t *testing.T) {
	// A scrape before the first request must already see the per-route
	// series (the middleware registers them at wrap time).
	_, h, _ := newTestServer(t)
	rec := get(t, h, "/metrics?format=prometheus")
	body := rec.Body.String()
	for _, want := range []string{"http_policy_solve_duration_us", "http_policy_trace_duration_us"} {
		if !strings.Contains(body, want) {
			t.Errorf("pre-traffic scrape missing %q:\n%s", want, body)
		}
	}
}

// TestMetricsSamplesDerivedGauges: GET /metrics sets every derived gauge
// itself, with nothing sampling in the background. On a durable catalog,
// after one waited PUT, both formats carry the runtime, process, session
// pool, WAL fsync and SLO series.
func TestMetricsSamplesDerivedGauges(t *testing.T) {
	cfg := defaultConfig()
	reg := minup.NewMetricsRegistry()
	cat, err := minup.OpenCatalog(minup.CatalogOptions{Dir: t.TempDir(), Metrics: reg, Flight: cfg.flight})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cat.Close() })
	h := newServer(cat, reg, cfg).routes(slog.New(slog.NewJSONHandler(io.Discard, nil)))
	putWarm(t, h, "fig2")

	var snap minup.MetricsSnapshot
	if err := json.Unmarshal(get(t, h, "/metrics").Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	series := []string{
		"runtime.goroutines", "runtime.heap_alloc_bytes", "runtime.heap_sys_bytes",
		"runtime.gc_pause_total_us", "runtime.gc_cycles", "process.uptime_seconds",
		"solve.pool.sessions", "wal.fsync.p99_us", "slo.policy.solve.avail_burn_5m_milli",
	}
	for _, name := range series {
		if _, ok := snap.Gauges[name]; !ok {
			t.Errorf("GET /metrics did not sample gauge %s", name)
		}
	}
	if snap.Gauges["runtime.goroutines"] <= 0 || snap.Gauges["runtime.heap_alloc_bytes"] <= 0 {
		t.Errorf("runtime gauges not set: %v", snap.Gauges)
	}
	if got := snap.Gauges["wal.fsync.p99_us"]; got <= 0 {
		t.Errorf("wal.fsync.p99_us = %d after a durable PUT", got)
	}
	body := get(t, h, "/metrics?format=prometheus").Body.String()
	for _, name := range series {
		if prom := strings.ReplaceAll(name, ".", "_"); !strings.Contains(body, "\n"+prom+" ") {
			t.Errorf("?format=prometheus has no %s sample", prom)
		}
	}

	// An in-memory catalog records no fsync, so it gets no fsync p99.
	_, mem, _ := newTestServer(t)
	if body := get(t, mem, "/metrics").Body.String(); strings.Contains(body, "wal.fsync.p99_us") {
		t.Error("wal.fsync.p99_us published without a WAL")
	}
}

func TestTraceEndpointJSON(t *testing.T) {
	_, h, _ := newTestServer(t)
	putWarm(t, h, "fig2")
	rec := get(t, h, "/policies/fig2/trace")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /policies/fig2/trace = %d: %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q", ct)
	}
	if et := rec.Header().Get("ETag"); et != `"1"` {
		t.Fatalf("ETag = %q, want %q", et, `"1"`)
	}
	var out traceResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.TraceID == "" {
		t.Fatal("no trace id")
	}
	if out.Spans.Name != "request" || len(out.Spans.Children) == 0 {
		t.Fatalf("span tree root %+v", out.Spans)
	}
	if out.Spans.Children[0].Name != "solve" {
		t.Fatalf("first child %q, want solve", out.Spans.Children[0].Name)
	}
	if rec := get(t, h, "/policies/missing/trace"); rec.Code != http.StatusNotFound {
		t.Fatalf("trace of an unknown policy = %d, want 404", rec.Code)
	}
}

func TestTraceEndpointChromeAndFlame(t *testing.T) {
	_, h, _ := newTestServer(t)
	putWarm(t, h, "fig2")
	rec := get(t, h, "/policies/fig2/trace?format=chrome")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /policies/fig2/trace?format=chrome = %d", rec.Code)
	}
	var chrome struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &chrome); err != nil {
		t.Fatal(err)
	}
	if len(chrome.TraceEvents) < 3 {
		t.Fatalf("chrome trace has %d events", len(chrome.TraceEvents))
	}

	rec = get(t, h, "/policies/fig2/trace?format=flame")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /policies/fig2/trace?format=flame = %d", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "solve") {
		t.Fatalf("flame output missing solve:\n%s", rec.Body.String())
	}
}

func TestHealthzContentType(t *testing.T) {
	_, h, _ := newTestServer(t)
	rec := get(t, h, "/healthz")
	if rec.Code != http.StatusOK || !strings.HasPrefix(rec.Header().Get("Content-Type"), "text/plain") {
		t.Fatalf("GET /healthz = %d, Content-Type %q", rec.Code, rec.Header().Get("Content-Type"))
	}
}

func TestRequestIDEchoed(t *testing.T) {
	_, h, logBuf := newTestServer(t)
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	req.Header.Set("X-Request-Id", "my-req-42")
	h.ServeHTTP(rec, req)
	if got := rec.Header().Get("X-Request-Id"); got != "my-req-42" {
		t.Fatalf("X-Request-Id = %q, want echo", got)
	}
	if !strings.Contains(logBuf.String(), "my-req-42") {
		t.Fatalf("access log missing request id:\n%s", logBuf.String())
	}
}

func TestStatusClassCounters(t *testing.T) {
	srv, h, _ := newTestServer(t)
	putWarm(t, h, "fig2")
	get(t, h, "/policies/fig2/solve")
	if rec := get(t, h, "/policies/missing/solve"); rec.Code != http.StatusNotFound {
		t.Fatalf("solve of an unknown policy = %d, want 404", rec.Code)
	}
	snap := srv.reg.Snapshot()
	if snap.Counters["http.policy.solve.status.2xx"] != 1 {
		t.Fatalf("2xx counter = %d, want 1", snap.Counters["http.policy.solve.status.2xx"])
	}
	if snap.Counters["http.policy.solve.status.4xx"] != 1 {
		t.Fatalf("4xx counter = %d, want 1", snap.Counters["http.policy.solve.status.4xx"])
	}
	if snap.Gauges["http.in_flight"] != 0 {
		t.Fatalf("in_flight gauge = %d after requests drained", snap.Gauges["http.in_flight"])
	}
}

func TestAccessLogShape(t *testing.T) {
	_, h, logBuf := newTestServer(t)
	putWarm(t, h, "fig2")
	get(t, h, "/policies/fig2/solve")
	lines := strings.Split(strings.TrimSpace(logBuf.String()), "\n")
	var line map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("access log is not JSON: %v\n%s", err, logBuf.String())
	}
	for _, key := range []string{"method", "path", "status", "duration_us", "request_id"} {
		if _, ok := line[key]; !ok {
			t.Errorf("access log missing %q: %v", key, line)
		}
	}
	if line["path"] != "/policies/fig2/solve" || line["status"] != float64(200) {
		t.Fatalf("access log line %v", line)
	}
}
