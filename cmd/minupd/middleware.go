package main

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"log/slog"
	"net/http"
	"runtime/debug"
	"strconv"
	"time"

	"minup/internal/obs"
)

// flightKey is the request-context key of the request's flight.
type flightKey struct{}

// flightOf returns the flight the middleware opened for the request. Its
// record is the request's only record: the middleware names its policy
// from the route's {name}, handlers set its other fields (shard, trace ID,
// shed and degraded disposition, queue wait, solver stats, error text),
// and the middleware writes the access-log line, the status counter and
// the SLO outcome from it.
func flightOf(ctx context.Context) *obs.ActiveFlight {
	return ctx.Value(flightKey{}).(*obs.ActiveFlight)
}

// httpObs bundles the middleware's observability dependencies: the metrics
// registry, the structured logger, the flight recorder and the SLO tracker
// (nil tracks no objective).
type httpObs struct {
	reg    *obs.Registry
	logger *slog.Logger
	flight *obs.FlightRecorder
	slo    *obs.SLOTracker
}

// statusWriter records the status code a handler writes in the request's
// flight record.
type statusWriter struct {
	http.ResponseWriter
	rec *obs.FlightRecord
	// id backs the X-Request-Id header value, so that setting it allocates
	// no slice of its own.
	id [1]string
}

func (w *statusWriter) WriteHeader(code int) {
	w.rec.Status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.rec.Status == 0 {
		w.rec.Status = http.StatusOK
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
	var id [16]byte
	hex.Encode(id[:], b[:])
	return string(id[:])
}

// instrument wraps one route with the minupd middleware stack: request IDs
// (X-Request-Id echoed or generated), panic recovery (a panicking handler
// answers 500 and bumps http.panics instead of killing the connection
// goroutine unlogged), an in-flight gauge, a per-route latency histogram,
// per-route status-class counters, a flight record per request, SLO
// accounting, and one structured access-log line per request carrying the
// request ID, the shed/degraded disposition, the queue wait, and — when the
// handler ran an instrumented solve — the trace ID. The flight record is
// the one record of the request: the counter, the SLO outcome and the log
// line are all written from it. Routes are registered with ServeMux method
// patterns ("PUT /policies/{name}"), so the mux itself answers mismatched
// methods with 405 and the right Allow set.
//
// The bookkeeping runs in a defer so a panicking request is still counted,
// timed, logged, and flight-recorded like any other before the recovery
// answers it.
//
// The histogram, the four status-class counters, the in-flight gauge and
// the panic counter are resolved at wrap time, so a Prometheus scrape sees
// the route's series before its first request and a request looks none of
// them up. Several method patterns may share one route name; registration
// is get-or-create, so the series are shared too.
func instrument(route string, o httpObs, next http.HandlerFunc) http.Handler {
	hist := o.reg.Histogram("http."+route+".duration_us", obs.DurationBucketsUS)
	var byClass [4]*obs.Counter // 2xx, 3xx, 4xx, 5xx
	for i := range byClass {
		byClass[i] = o.reg.Counter("http." + route + ".status." + strconv.Itoa(i+2) + "xx")
	}
	inFlight := o.reg.Gauge("http.in_flight")
	panics := o.reg.Counter("http.panics")
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-Id")
		if id == "" {
			id = newRequestID()
		}
		fl := o.flight.Begin(route, r.Method, id)
		fl.Policy = r.PathValue("name") // empty on routes without {name}
		sw := &statusWriter{ResponseWriter: w, rec: &fl.FlightRecord, id: [1]string{id}}
		w.Header()["X-Request-Id"] = sw.id[:]
		inFlight.Inc()
		start := time.Now()
		defer func() {
			rec := recover()
			dur := time.Since(start)
			fl.DurationUS = dur.Microseconds()
			inFlight.Dec()
			if rec == http.ErrAbortHandler { //nolint:errorlint // net/http compares this sentinel by identity
				// net/http's sentinel for deliberately aborting a response:
				// not a bug, so skip the 500/counter/log handling and let the
				// server suppress it as designed. Keep the flight ring honest
				// first, since re-panicking skips the rest of this defer.
				fl.Status, fl.Err = 499, "response aborted"
				o.flight.End(fl)
				panic(rec)
			}
			if rec != nil {
				fl.Panicked = true
				panics.Inc()
				o.logger.Error("handler panic",
					slog.String("path", r.URL.Path),
					slog.String("request_id", id),
					slog.Any("panic", rec),
					slog.String("stack", string(debug.Stack())),
				)
				if fl.Status == 0 {
					// Nothing written yet; the client can still get a clean
					// 500. Otherwise the truncated response has to speak for
					// itself.
					http.Error(sw, "internal server error", http.StatusInternalServerError)
				}
			}
			if fl.Status == 0 {
				fl.Status = http.StatusOK
			}
			hist.Observe(uint64(fl.DurationUS))
			byClass[min(max(fl.Status/100, 2), 5)-2].Inc()
			o.flight.End(fl)
			// Degraded answers return 200 but burn availability budget: the
			// client got a safe answer, not the minimal one it asked for.
			o.slo.Record(route, dur, fl.Status >= 500 || fl.Degraded)
			attrs := [...]slog.Attr{
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.Int("status", fl.Status),
				slog.Int64("duration_us", fl.DurationUS),
				slog.String("request_id", id),
				slog.Bool("shed", fl.Shed),
				slog.Bool("degraded", fl.Degraded),
				slog.Int64("queue_wait_us", fl.QueueWaitUS),
				slog.String("trace_id", fl.TraceID),
			}
			n := len(attrs)
			if fl.TraceID == "" {
				n-- // only a traced request logs its trace ID
			}
			o.logger.LogAttrs(r.Context(), slog.LevelInfo, "request", attrs[:n]...)
		}()
		next(sw, r.WithContext(context.WithValue(r.Context(), flightKey{}, fl)))
	})
}
