// Command minupd serves minimal-classification solves of a catalog of
// named, versioned policies over HTTP, with a separate debug listener
// exposing the solver's cumulative telemetry — the ROADMAP's
// production-shape deployment of the compile-once / solve-many split.
//
// Usage:
//
//	minupd [-data-dir dir] [-fsync always|never] [-shards n] \
//	       [-addr :8080] [-debug-addr 127.0.0.1:6060] \
//	       [-max-inflight 64] [-max-queue 128] [-queue-wait 100ms] \
//	       [-solve-timeout 2s] [-fault spec] [-fault-seed n] \
//	       [-flight-size 256] [-flight-dump-dir auto] [-flight-dump-cap n] \
//	       [-flight-slow 1s] [-slo spec]
//
// # Policy catalog
//
// minupd manages a catalog of named, versioned policies (lattice +
// constraint set each), hashed across -shards independent shards (default
// GOMAXPROCS). The catalog is durable
// when -data-dir is set: every mutation is written to that shard's
// write-ahead log before it is applied (fsync per -fsync), each log is
// periodically compacted into an atomic snapshot, shards recover
// concurrently on startup, and a restart reproduces the catalog exactly —
// a torn final WAL frame is truncated, losing at most the interrupted
// mutation. The directory remembers its shard count, so a later -shards
// value never rehashes existing policies.
//
// Mutations return once durable; compiling and solving the new version
// happens on per-shard background workers unless the request carries
// ?wait=1 to run that same refresh inline (the response then shows a warm
// cache). A mutation's answer describes the new version without its
// source texts, which only GET /policies/{name} returns.
//
//	GET    /policies                    index: name, version, etag, shard,
//	                                    and cache state per policy
//	PUT    /policies/{name}             create/replace from JSON
//	                                    {"lattice": ..., "constraints": ...}
//	                                    (?wait=1 warms the cache inline)
//	GET    /policies/{name}             describe one policy (incl. texts)
//	DELETE /policies/{name}             remove it
//	POST   /policies/{name}/constraints append constraint text
//	                                    ({"constraints": ...}); with ?wait=1
//	                                    the new version is compiled and
//	                                    solved inline, otherwise it answers
//	                                    refresh_pending and the shard worker
//	                                    solves it in background
//	GET    /policies/{name}/solve       minimal classification, memoized:
//	                                    an unchanged policy is served with
//	                                    zero compiles and zero solves, and
//	                                    its answer is encoded once per
//	                                    version
//	                                    (POST works too; ?trace=1 runs the
//	                                    request under a tracer and reports
//	                                    its trace ID, ?timeout_ms=N tightens
//	                                    the solve deadline — clamped to
//	                                    [1ms, -solve-timeout])
//	GET    /policies/{name}/trace       run one fully instrumented solve of
//	                                    the current version and return its
//	                                    span tree (?format=json|chrome|
//	                                    flame); the memo is left untouched
//
// Source problems from the registered problem frontends enter through the
// /problems routes: the instance JSON is parsed and compiled to policy
// source texts, then stored with an ordinary catalog Put — sharding,
// replication, memoized solves, flight records, and SLO gates apply to
// compiled problems unchanged, and the result is served by the /policies
// routes under the instance's name (override with ?name=):
//
//	GET    /problems                    list the problem families
//	POST   /problems/{family}           parse + compile + store an instance
//	                                    (suppress cross-tab table, depinf
//	                                    relation; ?wait=1 and conditional
//	                                    headers as on policy PUT)
//
// Responses carry the policy version as a strong ETag; If-Match gives
// compare-and-swap writes (412 on a lost race) and If-None-Match: *
// create-only PUTs (409 if the name exists).
//
// The service listener also answers:
//
//	GET /metrics          the metrics registry snapshot as JSON; add
//	                      ?format=prometheus for text exposition format
//	GET /healthz          liveness check (process is up)
//	GET /readyz           readiness check: 503 while draining after
//	                      SIGTERM/SIGINT or while the admission queue is
//	                      past its soft overload threshold
//
// Every route is registered with its method, so the mux answers any other
// method with 405 and an Allow header.
//
// # Overload behavior
//
// Policy solves and traces, appends, and ?wait=1 writes run behind a
// bounded-concurrency admission gate: at most -max-inflight requests hold
// a slot at once, up to -max-queue more wait up to -queue-wait for a slot,
// and everything beyond that is shed with 503 + Retry-After (counted as
// http.shed). Every admitted solve runs under a deadline (-solve-timeout,
// tightened per request with ?timeout_ms=).
//
// A warm version costs no solve, so its memoized answer is served whatever
// the load. A cold version — the first read of a version no refresh has
// warmed yet — runs a solve, and when that minimal solve cannot be served
// — its deadline expired, or the gate is already past its soft overload
// threshold at admission — the server degrades instead of failing: it
// answers with the Qian-baseline least fixpoint (§4 of the paper), which
// satisfies every secrecy, inference, and association constraint by
// construction and merely over-classifies. Degraded responses carry
// "degraded": true, the reason, and the number of upgraded attributes;
// each is counted under solve.degraded and none is memoized.
//
// Solver panics never kill the process: the solver converts them to typed
// internal errors (returned as 500, counted as solve.panics), and a
// recovery middleware backstops the handlers themselves (http.panics).
//
// The -fault flag (chaos testing only; see internal/fault) arms a
// deterministic fault injector at the solver's and the catalog's named
// fault points, e.g. -fault 'solve.step:delay:%1:5ms' to slow every solver
// step.
//
// Every route runs behind a middleware stack: per-route latency histograms
// ("http.<route>.duration_us"), status-class counters, an in-flight gauge,
// request IDs (X-Request-Id echoed or generated), panic recovery, and one
// slog JSON access log line per request carrying the request ID, the
// shed/degraded disposition, and the queue wait (plus the trace ID for
// instrumented solves). Every solve records into a shared metrics registry
// under the "solve.*" names.
//
// # Flight recorder and SLOs
//
// An always-on flight recorder (DESIGN.md §8) keeps one compact record per
// request and per async catalog refresh in a bounded ring (-flight-size).
// Anomalous work — panicked, degraded, errored, or slower than -flight-slow
// — additionally dumps its span tree and the solver event log of the
// request's cold solve as a Perfetto-loadable JSON file under
// -flight-dump-dir ("auto" resolves to <data-dir>/anomalies or
// artifacts/anomalies; empty disables), rotated to stay under
// -flight-dump-cap bytes. A graceful shutdown writes a final recorder
// snapshot there too.
//
// The -slo flag ("route:p99=250ms,avail=99.9;...") arms per-route
// objectives. Every GET /metrics first samples the derived gauges into the
// registry: 5-minute and 1-hour burn rates ("slo.<route>.*_milli"), the Go
// runtime (goroutines, heap, GC pause), the WAL fsync p99, the solver
// session pool, recovered solver panics and uptime. Nothing samples them in
// the background, so /debug/vars shows them as of the last /metrics read.
// Degraded responses count against availability: the client got a safe
// answer, not the minimal one it asked for.
//
// The debug listener serves the live introspection view /debug/requests
// (active flights, SLO burn rates, per-route latency, recent anomalies
// with their dump files; HTML or ?format=json) alongside the standard
// runtime surface: /debug/vars (expvar, including the registry published
// as "minup") and /debug/pprof/* for CPU and heap profiles — see the
// "profiling a solve" recipe in EXPERIMENTS.md. Bind it to localhost (the
// default) in production-like settings. On SIGTERM the server flips
// /readyz to not-ready, then drains both listeners: in-flight requests
// complete, new ones are refused.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux
	"net/url"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	rtdebug "runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"minup/internal/catalog"
	"minup/internal/cluster"
	"minup/internal/core"
	"minup/internal/fault"
	"minup/internal/frontend"
	"minup/internal/obs"
)

// config carries the serving-policy knobs from flags to newServer, so
// tests construct servers with the same wiring main uses.
type config struct {
	maxInflight  int
	maxQueue     int
	queueWait    time.Duration
	solveTimeout time.Duration
	fault        *fault.Injector
	// flight and slo are the always-on observability layer: the flight
	// recorder behind /debug/requests and the per-route burn-rate tracker.
	// Either may be nil (single-handler unit tests), which just disables
	// that layer.
	flight *obs.FlightRecorder
	slo    *obs.SLOTracker
	// cluster is the replication wiring (-cluster-* flags): nil node when
	// minupd runs standalone.
	cluster clusterConfig
}

// defaultSLOSpec is the -slo default: the solve-serving route gets a p99
// latency target and three nines of availability.
const defaultSLOSpec = "policy.solve:p99=250ms,avail=99.9"

func defaultConfig() config {
	slo, err := obs.ParseSLOSpecs(defaultSLOSpec)
	if err != nil {
		panic("minupd: default SLO spec does not parse: " + err.Error())
	}
	tracker := obs.NewSLOTracker(slo...)
	return config{
		maxInflight:  64,
		maxQueue:     128,
		queueWait:    100 * time.Millisecond,
		solveTimeout: 2 * time.Second,
		slo:          tracker,
		flight:       obs.NewFlightRecorder(obs.FlightOptions{SLO: tracker}),
		cluster:      clusterConfig{maxReplicaLag: 1024},
	}
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "minupd:", err)
		os.Exit(2)
	}
	if o.faultSpec != "" {
		fmt.Fprintf(os.Stderr, "minupd: CHAOS fault injection armed: %s\n", o.faultSpec)
	}
	if o.faultAdmin {
		http.Handle("/debug/fault", faultAdminHandler(o.fault))
		fmt.Fprintf(os.Stderr, "minupd: CHAOS fault admin enabled on the debug listener (/debug/fault)\n")
	}
	reg := obs.NewRegistry()
	reg.Publish("minup")
	logger := slog.New(slog.NewJSONHandler(os.Stderr, nil))
	// /debug/requests lives on the loopback debug listener next to
	// /debug/vars and /debug/pprof: live + recent requests, per-route
	// latency, anomalies with their dump files, SLO burn rates.
	http.Handle("/debug/requests", o.flight)

	catOpts := catalog.Options{
		Dir:     o.dataDir,
		Sync:    o.walSync,
		Metrics: reg,
		Fault:   o.fault,
		Shards:  o.shards,
		Flight:  o.flight,
	}
	// Cluster mode: the record ring must observe every durable append, so
	// it is wired in before the catalog opens.
	var ring *cluster.RecordLog
	if o.peers.enabled() {
		ring = cluster.NewRecordLog(0)
		catOpts.OnRecord = ring.Append
	}
	cat, err := catalog.Open(catOpts)
	if err != nil {
		fatal(err)
	}
	if o.peers.enabled() {
		node, err := openCluster(cat, ring, o.peers, clusterDeps{dir: o.dataDir, reg: reg, logger: logger, fault: o.fault})
		if err != nil {
			fatal(err)
		}
		o.cluster.node = node
		fmt.Fprintf(os.Stderr, "minupd: cluster node %d replicating on %s (peers %s, advertised %s)\n",
			o.peers.nodeID, node.Addr(), o.peers.peers, o.peers.httpAddr)
	}
	if o.dataDir != "" {
		ri := cat.RecoveryInfo()
		fmt.Fprintf(os.Stderr, "minupd: catalog recovered from %s: %d policies over %d shards (snapshot %d, WAL records %d, torn tail %v) in %s\n",
			o.dataDir, cat.Len(), ri.Shards, ri.SnapshotPolicies, ri.WALRecords, ri.TornTail, ri.Duration)
	}

	// build_info is the constant-1 info gauge joins dashboards key on:
	// which build, which Go, how many catalog shards, started when.
	reg.Info("build_info", map[string]string{
		"version":    buildVersion(),
		"go_version": runtime.Version(),
		"shards":     strconv.Itoa(cat.RecoveryInfo().Shards),
		"start_time": time.Now().UTC().Format(time.RFC3339),
	})

	srv := newServer(cat, reg, o.config)
	mux := srv.routes(logger)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Both listeners get protocol-level timeouts so a stalled or malicious
	// peer cannot hold a connection goroutine forever. The debug listener's
	// write timeout is generous because /debug/pprof/profile streams for
	// ?seconds= (default 30).
	var dbg *http.Server
	if o.debugAddr != "" {
		// expvar and net/http/pprof register on the default mux; serving it
		// on a dedicated listener keeps the runtime surface off the service
		// port.
		dbg = &http.Server{
			Addr:              o.debugAddr,
			Handler:           http.DefaultServeMux,
			ReadHeaderTimeout: 5 * time.Second,
			ReadTimeout:       10 * time.Second,
			WriteTimeout:      2 * time.Minute,
			IdleTimeout:       2 * time.Minute,
		}
		go func() {
			fmt.Fprintf(os.Stderr, "minupd: debug listener on %s (/debug/vars, /debug/pprof)\n", o.debugAddr)
			if err := dbg.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintf(os.Stderr, "minupd: debug listener: %v\n", err)
			}
		}()
	}

	main := &http.Server{
		Addr:              o.addr,
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       10 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	// shutdownDone closes once the drain goroutine has finished draining
	// both listeners. main() must block on it after ListenAndServe returns:
	// Shutdown closes the listeners first, so ListenAndServe comes back with
	// ErrServerClosed while in-flight requests are still completing.
	shutdownDone := make(chan struct{})
	go func() {
		<-ctx.Done()
		// Flip readiness first: load balancers stop routing here while
		// in-flight solves finish, then both listeners drain on one clock.
		srv.draining.Store(true)
		logger.Info("draining", slog.String("reason", "signal"))
		shCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		// Drain concurrently: a long-running debug request (pprof profiles
		// stream for up to ?seconds=) must not consume the service
		// listener's share of the drain budget.
		var wg sync.WaitGroup
		if dbg != nil {
			wg.Add(1)
			go func() {
				defer wg.Done()
				dbg.Shutdown(shCtx)
			}()
		}
		main.Shutdown(shCtx)
		wg.Wait()
		close(shutdownDone)
	}()
	fmt.Fprintf(os.Stderr, "minupd: serving the policy catalog on %s (max-inflight=%d queue=%d solve-timeout=%s)\n",
		o.addr, o.maxInflight, o.maxQueue, o.solveTimeout)
	err = main.ListenAndServe()
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
	if errors.Is(err, http.ErrServerClosed) {
		// Only the drain goroutine calls Shutdown, so ErrServerClosed means
		// it is running; wait for in-flight requests to finish before exit.
		<-shutdownDone
	}
	// The cluster node goes first: its peer and server loops read the
	// catalog, so they must stop before the catalog releases its stores.
	if o.cluster.node != nil {
		if err := o.cluster.node.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "minupd: closing cluster node: %v\n", err)
		}
	}
	// Every catalog mutation is WAL-first, so nothing durable is left to
	// flush; Close still drains the shard workers' queued refreshes before
	// releasing the stores, so no background goroutine outlives the server.
	if err := cat.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "minupd: closing catalog: %v\n", err)
	}
	// Preserve the last moments before the shutdown on disk: the final dump
	// carries the recent ring, the anomaly ring, and per-route latency.
	if name, err := o.flight.FinalDump("shutdown"); err != nil {
		fmt.Fprintf(os.Stderr, "minupd: final flight dump: %v\n", err)
	} else if name != "" {
		fmt.Fprintf(os.Stderr, "minupd: final flight dump written: %s\n", filepath.Join(o.dumpDir, name))
	}
}

type server struct {
	cat      *catalog.Catalog
	reg      *obs.Registry
	cfg      config
	gate     *gate
	draining atomic.Bool
	// start anchors the process.uptime_seconds gauge.
	start time.Time
	// problemsCreated holds each problem family's
	// problems.<family>.created counter.
	problemsCreated map[string]*obs.Counter
}

// newServer wires a server the way main does, so tests share the exact
// production admission/degradation path.
func newServer(cat *catalog.Catalog, reg *obs.Registry, cfg config) *server {
	s := &server{cat: cat, reg: reg, cfg: cfg, start: time.Now()}
	s.gate = newGate(cfg.maxInflight, cfg.maxQueue, cfg.queueWait, &s.draining, reg)
	// Register the degradation counters eagerly so a scrape sees the
	// series before the first overload.
	reg.Counter("solve.degraded")
	s.reg.Counter("http.panics")
	s.problemsCreated = make(map[string]*obs.Counter)
	for _, family := range frontend.Families() {
		s.problemsCreated[family] = reg.Counter("problems." + family + ".created")
	}
	return s
}

// routes builds the service mux with the full middleware stack. Every route
// is a Go 1.22 method pattern, so the mux itself answers mismatched methods
// with 405 + Allow. Route names stay low-cardinality: the policy name never
// reaches a metric.
func (s *server) routes(logger *slog.Logger) http.Handler {
	o := httpObs{reg: s.reg, logger: logger, flight: s.cfg.flight, slo: s.cfg.slo}
	mux := http.NewServeMux()
	mux.Handle("GET /metrics", instrument("metrics", o, s.handleMetrics))
	mux.Handle("GET /healthz", instrument("healthz", o, func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	}))
	mux.Handle("GET /readyz", instrument("readyz", o, s.handleReady))
	mux.Handle("GET /cluster", instrument("cluster", o, s.handleClusterStatus))
	mux.Handle("GET /policies", instrument("policies", o, s.handlePolicyList))
	mux.Handle("PUT /policies/{name}", instrument("policy", o, s.handlePolicyPut))
	mux.Handle("GET /policies/{name}", instrument("policy", o, s.handlePolicyGet))
	mux.Handle("DELETE /policies/{name}", instrument("policy", o, s.handlePolicyDelete))
	mux.Handle("POST /policies/{name}/constraints", instrument("policy.constraints", o, s.handlePolicyAppend))
	mux.Handle("GET /policies/{name}/solve", instrument("policy.solve", o, s.handlePolicySolve))
	mux.Handle("POST /policies/{name}/solve", instrument("policy.solve", o, s.handlePolicySolve))
	mux.Handle("GET /policies/{name}/trace", instrument("policy.trace", o, s.handlePolicyTrace))
	// Problem-frontend routes: source problems compiled into ordinary
	// catalog policies. Route names stay low-cardinality — the family set
	// is small and fixed at build time.
	mux.Handle("GET /problems", instrument("problems", o, s.handleProblemList))
	mux.Handle("POST /problems/{family}", instrument("problem", o, s.handleProblemCreate))
	return mux
}

// handleReady is the readiness probe, distinct from /healthz liveness: a
// live process stops being ready while draining after a signal or while
// the admission queue is past its soft overload threshold, so load
// balancers route around it without restarting it.
func (s *server) handleReady(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if reason, ok := s.clusterReady(); !ok {
		// A replica that cannot vouch for its own freshness routes reads
		// elsewhere rather than serving arbitrarily stale answers.
		http.Error(w, reason, http.StatusServiceUnavailable)
		return
	}
	switch {
	case s.draining.Load():
		http.Error(w, "draining", http.StatusServiceUnavailable)
	case s.gate.overloaded():
		http.Error(w, "overloaded", http.StatusServiceUnavailable)
	default:
		fmt.Fprintf(w, "ready (inflight %d)\n", s.gate.inflight())
	}
}

// solveBudget resolves a request's solve deadline from its query: the
// -solve-timeout flag, tightened by ?timeout_ms= and clamped to [1ms, flag]
// so a client can only shrink its own budget, never grow it past the
// server's policy. The count is compared in milliseconds before it becomes
// a duration, so a huge one cannot overflow.
func (s *server) solveBudget(query url.Values) time.Duration {
	if q := query.Get("timeout_ms"); q != "" {
		ms, err := strconv.ParseInt(q, 10, 64)
		if ms = max(ms, 1); err == nil && ms <= int64(s.cfg.solveTimeout/time.Millisecond) {
			return time.Duration(ms) * time.Millisecond
		}
	}
	return s.cfg.solveTimeout
}

// flightStatsOf compresses the solver stats block into the flight record's
// compact shape.
func flightStatsOf(st core.Stats) obs.FlightStats {
	return obs.FlightStats{
		Tries:       st.Tries,
		FailedTries: st.FailedTries,
		Collapses:   st.Collapses,
		TrySteps:    st.TrySteps,
		SolveUS:     st.Duration.Microseconds(),
	}
}

// encodeJSON is the service's one JSON encoding: two-space indentation and
// a trailing newline. Every JSON body minupd builds from a value goes
// through it, so a memo hit's stored bytes are exactly what encoding the
// same answer per request would write.
func encodeJSON(v any) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		// Every response type is plain strings, numbers, bools and maps of
		// them, which always encode.
		panic("minupd: encoding response: " + err.Error())
	}
	return buf.Bytes()
}

func writeJSON(w http.ResponseWriter, v any) { writeBody(w, http.StatusOK, encodeJSON(v)) }

// writeBody writes an encoded JSON body with its length.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	w.Write(body)
}

// handleMetrics serves the registry as JSON or, with ?format=prometheus,
// as text exposition. It first sets every gauge derived from process state
// rather than recorded by traffic, so a read sees them as of itself.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	// Sessions are created on demand, so the pool gauge tracks peak solve
	// concurrency; the panic gauge counts sessions discarded by the
	// recovery guard.
	s.reg.Gauge("solve.pool.sessions").Set(core.SessionsAllocated())
	s.reg.Gauge("solve.panics_recovered").Set(core.PanicsRecovered())
	s.reg.Gauge("process.uptime_seconds").Set(int64(time.Since(s.start).Seconds()))
	s.reg.Gauge("runtime.goroutines").Set(int64(runtime.NumGoroutine()))
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.reg.Gauge("runtime.heap_alloc_bytes").Set(int64(ms.HeapAlloc))
	s.reg.Gauge("runtime.heap_sys_bytes").Set(int64(ms.HeapSys))
	s.reg.Gauge("runtime.gc_pause_total_us").Set(int64(ms.PauseTotalNs / 1000))
	s.reg.Gauge("runtime.gc_cycles").Set(int64(ms.NumGC))
	// Only a durable catalog records fsyncs.
	if h := s.reg.LookupHistogram("wal.fsync.duration_us"); h != nil {
		s.reg.Gauge("wal.fsync.p99_us").Set(int64(h.Snapshot().Quantile(0.99)))
	}
	s.cfg.slo.Publish(s.reg)
	if r.URL.Query().Get("format") == "prometheus" {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.reg.WritePrometheus(w)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	s.reg.WriteJSON(w)
}

// buildVersion reports the best version identifier the binary carries: the
// module version if stamped, else the VCS revision (dirty-suffixed), else
// "devel".
func buildVersion() string {
	bi, ok := rtdebug.ReadBuildInfo()
	if !ok {
		return "devel"
	}
	if v := bi.Main.Version; v != "" && v != "(devel)" {
		return v
	}
	var rev, dirty string
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "-dirty"
			}
		}
	}
	if rev != "" {
		if len(rev) > 12 {
			rev = rev[:12]
		}
		return rev + dirty
	}
	return "devel"
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "minupd:", err)
	os.Exit(1)
}
