package main

import (
	"context"
	"errors"
	"net/http"
	"sync/atomic"
	"time"

	"minup/internal/obs"
)

// Admission control for the solve-serving routes: a bounded-concurrency
// gate with a short bounded wait queue in front of it. At most maxInflight
// requests hold a slot at once; up to maxQueue more may wait up to
// queueWait for one. Anything beyond that — and everything once the server
// is draining — is shed immediately with 503 + Retry-After, which is the
// overload posture the ROADMAP's heavy-traffic target requires: reject
// fast and cheap instead of stacking goroutines until the deadline storm.
//
// The gate also reports a soft overload signal: when the wait queue is at
// least half full, an admitted read of a cold policy version skips the
// minimal solver and serves the Qian baseline directly (see
// handlePolicySolve), trading optimality for latency while staying secure
// by construction.

// Shed reasons, returned by gate.acquire and surfaced in the 503 body and
// the structured log.
var (
	errShedQueueFull = errors.New("wait queue full")
	errShedWait      = errors.New("timed out waiting for a slot")
	errShedDraining  = errors.New("server draining")
)

type gate struct {
	sem       chan struct{} // slot tokens; capacity = max in-flight
	maxQueue  int64
	softQueue int64 // queue depth at which admitted solves degrade
	queued    atomic.Int64
	wait      time.Duration
	draining  *atomic.Bool
	reg       *obs.Registry
}

// newGate sizes the admission gate. maxInflight is clamped to at least 1;
// maxQueue may be 0 (no waiting — excess load sheds instantly). The shed
// counter and queue gauge are registered eagerly so a scrape sees them
// before the first overload.
func newGate(maxInflight, maxQueue int, wait time.Duration, draining *atomic.Bool, reg *obs.Registry) *gate {
	if maxInflight < 1 {
		maxInflight = 1
	}
	if maxQueue < 0 {
		maxQueue = 0
	}
	reg.Counter("http.shed")
	reg.Gauge("http.queue_depth")
	return &gate{
		sem:       make(chan struct{}, maxInflight),
		maxQueue:  int64(maxQueue),
		softQueue: int64((maxQueue + 1) / 2),
		wait:      wait,
		draining:  draining,
		reg:       reg,
	}
}

// acquire admits the request or sheds it. On admission it returns a
// release function the caller must invoke exactly once (defer it). On shed
// it returns one of the errShed* reasons after bumping the http.shed
// counter; a nil release with a context error means the client went away
// while queued.
func (g *gate) acquire(ctx context.Context) (release func(), err error) {
	if g.draining.Load() {
		return nil, g.shed(errShedDraining)
	}
	select {
	case g.sem <- struct{}{}:
		return g.release, nil
	default:
	}
	if g.queued.Add(1) > g.maxQueue {
		g.queued.Add(-1)
		return nil, g.shed(errShedQueueFull)
	}
	g.reg.Gauge("http.queue_depth").Set(g.queued.Load())
	waitStart := time.Now()
	defer func() {
		// Report the time spent queued back to the request record, however
		// the wait ended — the access log and flight record carry it.
		if ri := infoFrom(ctx); ri != nil {
			ri.queueWait = time.Since(waitStart)
		}
		g.queued.Add(-1)
		g.reg.Gauge("http.queue_depth").Set(g.queued.Load())
	}()
	t := time.NewTimer(g.wait)
	defer t.Stop()
	select {
	case g.sem <- struct{}{}:
		return g.release, nil
	case <-t.C:
		return nil, g.shed(errShedWait)
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (g *gate) release() { <-g.sem }

// admit passes a request through the gate. When the request is shed, or its
// client went away while queued, admit answers it and returns ok false;
// otherwise the caller must invoke release exactly once.
func (s *server) admit(w http.ResponseWriter, r *http.Request) (release func(), ok bool) {
	release, err := s.gate.acquire(r.Context())
	switch {
	case err == nil:
		return release, true
	case r.Context().Err() != nil:
		http.Error(w, "client gone while queued", http.StatusRequestTimeout)
	default:
		writeShed(w, r, err)
	}
	return nil, false
}

// shed counts and passes the reason through.
func (g *gate) shed(reason error) error {
	g.reg.Counter("http.shed").Inc()
	return reason
}

// overloaded reports the soft overload signal: the wait queue is at or past
// half capacity, so freshly admitted solves should degrade to the baseline
// rather than contend for the full solve budget. Always false when the
// gate has no queue (maxQueue == 0).
func (g *gate) overloaded() bool {
	return g.maxQueue > 0 && g.queued.Load() >= g.softQueue
}

// inflight reports how many slots are currently held (for /readyz detail).
func (g *gate) inflight() int { return len(g.sem) }

// capacity reports the total in-flight slots, and queueDepth the waiters
// currently queued behind them — the /cluster load hints clients use to
// prefer lightly loaded nodes for reads.
func (g *gate) capacity() int { return cap(g.sem) }

func (g *gate) queueDepth() int64 { return g.queued.Load() }

// writeShed answers a shed request: 503 with Retry-After so well-behaved
// clients back off instead of hammering an overloaded server. The shed
// disposition is marked on the request record for the access log and the
// flight recorder (where a shed is an expected overload response, not an
// anomaly).
func writeShed(w http.ResponseWriter, r *http.Request, reason error) {
	if ri := infoFrom(r.Context()); ri != nil {
		ri.shed = true
		ri.errText = reason.Error()
	}
	w.Header().Set("Retry-After", "1")
	http.Error(w, "service unavailable: "+reason.Error(), http.StatusServiceUnavailable)
}
