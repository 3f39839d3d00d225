package main

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"log/slog"
	"net/http"
	"runtime/debug"
	"time"

	"minup"
)

// requestInfo is the per-request mutable record shared between the
// middleware and the handler through the request context: the middleware
// fills the request ID and opens the flight record before the handler runs;
// the handler annotates the record (trace ID, policy identity, shed /
// degraded disposition, solver stats, error text); and the middleware reads
// it all back when it completes the flight record and writes the structured
// access log line — so log lines and flight records always agree.
type requestInfo struct {
	id      string
	traceID string

	flight *minup.ActiveFlight

	queueWait     time.Duration
	shed          bool
	degraded      bool
	degradeReason string
	panicked      bool
	cacheHit      bool
	policy        string
	shard         int
	errText       string
	stats         minup.FlightStats
}

type requestInfoKey struct{}

// infoFrom returns the request's info record, or nil outside the
// middleware stack (tests calling handlers directly).
func infoFrom(ctx context.Context) *requestInfo {
	ri, _ := ctx.Value(requestInfoKey{}).(*requestInfo)
	return ri
}

// httpObs bundles the middleware's observability dependencies: the metrics
// registry (required), the structured logger (required), and the flight
// recorder and SLO tracker (both optional — nil just disables that layer,
// which is what unit tests exercising a single handler want).
type httpObs struct {
	reg    *minup.MetricsRegistry
	logger *slog.Logger
	flight *minup.FlightRecorder
	slo    *minup.SLOTracker
}

// statusWriter captures the status code a handler writes so the middleware
// can log it and bump the right status-class counter.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// newRequestID returns 8 random bytes in hex; on entropy failure a fixed
// marker, which only degrades log correlation.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// statusClass maps a status code to its counter suffix ("2xx", ...).
func statusClass(code int) string {
	switch {
	case code >= 500:
		return "5xx"
	case code >= 400:
		return "4xx"
	case code >= 300:
		return "3xx"
	default:
		return "2xx"
	}
}

// instrument wraps one route with the minupd middleware stack: request IDs
// (X-Request-Id echoed or generated), panic recovery (a panicking handler
// answers 500 and bumps http.panics instead of killing the connection
// goroutine unlogged), an in-flight gauge, a per-route latency histogram,
// per-route status-class counters, a flight record per request, SLO
// accounting, and one structured access-log line per request carrying the
// request ID, the shed/degraded disposition, the queue wait, and — when the
// handler ran an instrumented solve — the trace ID. Routes are registered
// with ServeMux method patterns ("PUT /policies/{name}"), so the mux itself
// answers mismatched methods with 405 and the right Allow set.
//
// The bookkeeping runs in a defer so a panicking request is still counted,
// timed, logged, and flight-recorded like any other before the recovery
// answers it.
//
// The histogram and the 2xx counter are registered eagerly at wrap time so
// a Prometheus scrape sees the route's series before its first request.
// Several method patterns may share one route name; the eager registration
// is get-or-create, so the series are shared too.
func instrument(route string, o httpObs, next http.HandlerFunc) http.Handler {
	hist := o.reg.Histogram("http."+route+".duration_us", minup.DurationBucketsUS)
	o.reg.Counter("http." + route + ".status.2xx")
	inFlight := o.reg.Gauge("http.in_flight")
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ri := &requestInfo{id: r.Header.Get("X-Request-Id")}
		if ri.id == "" {
			ri.id = newRequestID()
		}
		w.Header().Set("X-Request-Id", ri.id)
		if o.flight != nil {
			ri.flight = o.flight.Begin(route, r.Method, ri.id)
		}
		sw := &statusWriter{ResponseWriter: w}
		inFlight.Inc()
		start := time.Now()
		defer func() {
			rec := recover()
			if rec == http.ErrAbortHandler { //nolint:errorlint // net/http compares this sentinel by identity
				// net/http's sentinel for deliberately aborting a response:
				// not a bug, so skip the 500/counter/log handling and let the
				// server suppress it as designed. Keep the gauge and the
				// flight ring honest first, since re-panicking skips the rest
				// of this defer.
				inFlight.Dec()
				if ri.flight != nil {
					o.flight.End(ri.flight, minup.FlightRecord{
						Status: 499, Err: "response aborted",
					})
				}
				panic(rec)
			}
			if rec != nil {
				ri.panicked = true
				o.reg.Counter("http.panics").Inc()
				o.logger.Error("handler panic",
					slog.String("path", r.URL.Path),
					slog.String("request_id", ri.id),
					slog.Any("panic", rec),
					slog.String("stack", string(debug.Stack())),
				)
				if sw.status == 0 {
					// Nothing written yet; the client can still get a clean
					// 500. Otherwise the truncated response has to speak for
					// itself.
					http.Error(sw, "internal server error", http.StatusInternalServerError)
				}
			}
			dur := time.Since(start)
			inFlight.Dec()
			if sw.status == 0 {
				sw.status = http.StatusOK
			}
			hist.Observe(uint64(dur.Microseconds()))
			o.reg.Counter("http." + route + ".status." + statusClass(sw.status)).Inc()
			if ri.flight != nil {
				o.flight.End(ri.flight, minup.FlightRecord{
					Status:        sw.status,
					DurationUS:    dur.Microseconds(),
					QueueWaitUS:   ri.queueWait.Microseconds(),
					Shed:          ri.shed,
					Degraded:      ri.degraded,
					DegradeReason: ri.degradeReason,
					Panicked:      ri.panicked,
					CacheHit:      ri.cacheHit,
					Policy:        ri.policy,
					Shard:         ri.shard,
					TraceID:       ri.traceID,
					Err:           ri.errText,
					Stats:         ri.stats,
				})
			}
			if o.slo != nil {
				// Degraded answers return 200 but burn availability budget:
				// the client got a safe answer, not the minimal one it asked
				// for.
				o.slo.Record(route, dur, sw.status >= 500 || ri.degraded)
			}
			attrs := []any{
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.Int("status", sw.status),
				slog.Int64("duration_us", dur.Microseconds()),
				slog.String("request_id", ri.id),
				slog.Bool("shed", ri.shed),
				slog.Bool("degraded", ri.degraded),
				slog.Int64("queue_wait_us", ri.queueWait.Microseconds()),
			}
			if ri.traceID != "" {
				attrs = append(attrs, slog.String("trace_id", ri.traceID))
			}
			o.logger.Info("request", attrs...)
		}()
		next(sw, r.WithContext(context.WithValue(r.Context(), requestInfoKey{}, ri)))
	})
}
