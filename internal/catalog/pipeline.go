package catalog

import (
	"context"
	"fmt"
	"sync"
	"time"

	"minup/internal/constraint"
	"minup/internal/obs"
)

// MutateOptions tunes one mutation.
type MutateOptions struct {
	// Wait makes the mutation fully synchronous: instead of queueing the
	// policy for the shard's refresh worker, it runs the worker's refresh —
	// compile and cold solve of the new version — before the call returns,
	// so the result reflects a warm cache. Tests and the HTTP ?wait=1 knob
	// use it for determinism.
	Wait bool
	// SeqOut, when non-nil, receives the shard-local WAL sequence number
	// the mutation was logged at, assigned under the shard's write lock.
	// The cluster layer uses it to wait for quorum replication of exactly
	// this record before acknowledging the mutation.
	SeqOut *uint64
}

func mutateOpts(opts []MutateOptions) MutateOptions {
	if len(opts) == 0 {
		return MutateOptions{}
	}
	return opts[0]
}

// refreshJob is one refresh: the version of one policy it solves (pol is
// nil when the name was already gone).
type refreshJob struct {
	shard *shard
	name  string
	pol   *policy
}

// ---------------------------------------------------------------------------
// Mutations.

// Put creates or replaces a policy from lattice and constraint text,
// validating both (including §6 solvability, and that every attribute name
// can be written back as policy text) before anything is persisted.
// ifVersion carries the optimistic-concurrency precondition (Unconditional,
// MustNotExist, or an exact current version). A created policy starts at
// version 1; a replaced one continues its predecessor's version sequence,
// so ETags never repeat within a name's lifetime.
//
// Put returns once the mutation is durable and visible; compiling and
// solving the new version happens on the shard's refresh worker unless
// MutateOptions.Wait is set (see MutateOptions).
func (c *Catalog) Put(ctx context.Context, name, latticeText, constraintsText string, ifVersion int64, opts ...MutateOptions) (PolicyInfo, error) {
	rec := walRecord{Op: "put", Name: name, Lattice: latticeText, Constraints: constraintsText}
	set, err := parsePut(name, latticeText, constraintsText)
	if err != nil {
		return PolicyInfo{}, err
	}
	if err := checkLive(rec, set, 0); err != nil {
		return PolicyInfo{}, err
	}
	return c.mutate(ctx, rec, set, ifVersion, mutateOpts(opts))
}

// Append parses additional constraint text into the policy. The appended
// set is validated (§6 solvability, and the names the batch declares) and
// made durable synchronously — a failed append leaves the policy untouched
// — while computing the new version's memoized answer is left to the
// shard's refresh worker, or run inline with MutateOptions.Wait. ifVersion
// as in Put (MustNotExist is an error here).
func (c *Catalog) Append(ctx context.Context, name, constraintsText string, ifVersion int64, opts ...MutateOptions) (PolicyInfo, error) {
	return c.mutate(ctx, walRecord{Op: "append", Name: name, Constraints: constraintsText}, nil, ifVersion, mutateOpts(opts))
}

// Delete removes a policy. Always synchronous — there is nothing to
// refresh. ifVersion as in Put (MustNotExist is an error). Of the
// MutateOptions only SeqOut applies; Wait is meaningless here.
func (c *Catalog) Delete(ctx context.Context, name string, ifVersion int64, opts ...MutateOptions) error {
	_, err := c.mutate(ctx, walRecord{Op: "delete", Name: name}, nil, ifVersion, mutateOpts(opts))
	return err
}

// mutationCounters names the counter each live mutation op moves.
var mutationCounters = map[string]string{"put": "catalog.puts", "append": "catalog.appends", "delete": "catalog.deletes"}

// mutate is the body Put, Append and Delete share. Under the shard's write
// lock it checks that the catalog is open and the precondition holds,
// stages the version rec makes (an append's set must pass checkLive there;
// a put arrives parsed in set and checked), commits it and sets SeqOut.
// It then queues the version for the shard's worker or, with opt.Wait,
// refreshes it inline once the lock is released. It returns the committed
// version's description, which is empty for a delete.
func (c *Catalog) mutate(ctx context.Context, rec walRecord, set *constraint.Set, ifVersion int64, opt MutateOptions) (PolicyInfo, error) {
	if err := ctx.Err(); err != nil {
		return PolicyInfo{}, err
	}
	s := c.shardFor(rec.Name)
	// The record is encoded before the lock; only its sequence number is
	// written under it.
	buf := encodeRecord(rec)
	var p *policy
	var info PolicyInfo
	// The locked section runs in a closure with a deferred unlock so that
	// an injected panic (chaos tests crash mid-append) never leaves the
	// shard mutex held.
	err := func() error {
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.closed {
			return ErrClosed
		}
		if rec.Op != "put" && ifVersion == MustNotExist {
			return fmt.Errorf("%w: %s requires an existing policy", ErrVersionMismatch, rec.Op)
		}
		cur := s.pol[rec.Name]
		if err := checkVersion(cur, rec.Name, ifVersion, rec.Op != "put"); err != nil {
			return err
		}
		var err error
		if p, err = s.stage(cur, rec, set); err != nil {
			return err
		}
		if rec.Op == "append" {
			// Refuse the append now: once its record is durable there is no
			// caller left to refuse.
			if err := checkLive(rec, p.set, cur.set.NumAttrs()); err != nil {
				return err
			}
		}
		rec.Seq = s.seq + 1
		if err := c.commit(s, rec, sequenced(buf, rec.Seq), p); err != nil {
			return err
		}
		if opt.SeqOut != nil {
			*opt.SeqOut = s.seq
		}
		if p != nil {
			info = p.info()
			if !opt.Wait {
				c.enqueue(s, rec.Name)
			}
		}
		c.count(mutationCounters[rec.Op])
		return nil
	}()
	if err != nil || p == nil || !opt.Wait {
		return info, err
	}
	c.runRefresh(ctx, refreshJob{shard: s, name: rec.Name, pol: p})
	s.mu.RLock()
	defer s.mu.RUnlock()
	return p.info(), nil
}

// ---------------------------------------------------------------------------
// The refresh pipeline: per-shard queues of policy names, each drained by
// the shard's worker, which compiles and solves the name's current version.

// enqueue queues name for s's refresh worker ("catalog.refresh.enqueued").
// A name already in the queue is not queued again
// ("catalog.refresh.coalesced"): the worker refreshes whatever version is
// current when it reaches the name, so one entry serves every mutation
// made before then, and the queue never holds more names than the shard
// has policies. Caller holds s.mu for writing and has checked s is open.
func (c *Catalog) enqueue(s *shard, name string) {
	c.count("catalog.refresh.enqueued")
	if s.queued[name] {
		c.count("catalog.refresh.coalesced")
		return
	}
	s.queued[name] = true
	s.queue = append(s.queue, name)
	c.pending.add(1)
	s.signal()
}

// signal wakes s's worker without blocking; the one buffered token covers
// any number of signals sent before the worker looks.
func (s *shard) signal() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// next pops s's oldest queued name and returns the job for the version
// under that name now, blocking while the queue is empty; it reports false
// once s is closed and its queue drained. The name leaves the queue before
// its refresh runs, so a mutation made during the refresh queues it again.
func (s *shard) next() (refreshJob, bool) {
	for {
		s.mu.Lock()
		if len(s.queue) > 0 {
			name := s.queue[0]
			s.queue = s.queue[1:]
			delete(s.queued, name)
			job := refreshJob{shard: s, name: name, pol: s.pol[name]}
			s.mu.Unlock()
			return job, true
		}
		closed := s.closed
		s.mu.Unlock()
		if closed {
			return refreshJob{}, false
		}
		<-s.wake
	}
}

// refreshWorker drains one shard's queue until the shard closes and the
// queue is empty.
func (c *Catalog) refreshWorker(s *shard) {
	defer c.workers.Done()
	for {
		job, ok := s.next()
		if !ok {
			return
		}
		c.safeRefresh(job)
		c.pending.add(-1)
	}
}

// safeRefresh shields the worker goroutine from injected panics (fault
// points fire inside compile and solve): a crashed refresh counts as a
// failure and the worker lives on — the policy's cache simply stays cold.
// Wait-mode callers invoke runRefresh directly so a panic propagates to
// them.
func (c *Catalog) safeRefresh(job refreshJob) {
	start := time.Now()
	defer func() {
		if r := recover(); r != nil {
			c.count("catalog.refresh.panics")
			c.count("catalog.refresh.failures")
			c.recordRefresh(job, start, "panic", fmt.Sprintf("panic: %v", r))
		}
	}()
	c.runRefresh(context.Background(), job)
}

// runRefresh runs one refresh and files its flight record.
func (c *Catalog) runRefresh(ctx context.Context, job refreshJob) {
	start := time.Now()
	outcome, errText := c.doRefresh(ctx, job)
	c.recordRefresh(job, start, outcome, errText)
}

// recordRefresh files one refresh job's flight record. A failed or
// panicking refresh is an anomaly to the recorder, so it also lands in the
// dump directory (record-only: the solver event stream of a background job
// is not captured).
func (c *Catalog) recordRefresh(job refreshJob, start time.Time, outcome, errText string) {
	if c.opt.Flight == nil {
		return
	}
	var version uint64
	if job.pol != nil {
		version = job.pol.version
	}
	c.opt.Flight.Record(obs.FlightRecord{
		Kind:       "refresh",
		Route:      "catalog.refresh",
		Policy:     job.name,
		Shard:      job.shard.id,
		Version:    version,
		Outcome:    outcome,
		Err:        errText,
		Start:      start,
		DurationUS: time.Since(start).Microseconds(),
	})
}

// doRefresh solves the job's version through fill, the body cold reads
// use, unless the version is no longer its name's current one. It reports
// how the job ended for the flight record: "completed" when it solved a
// version that is still current, "stale" when the version was replaced or
// another caller had already solved it, and "failed".
func (c *Catalog) doRefresh(ctx context.Context, job refreshJob) (outcome, errText string) {
	if !job.shard.holds(job.name, job.pol) {
		c.count("catalog.refresh.stale")
		return "stale", ""
	}
	solved, err := c.fill(ctx, job.shard, job.pol, nil, false)
	switch {
	case err != nil:
		c.count("catalog.refresh.failures")
		return "failed", err.Error()
	case !solved || !job.shard.holds(job.name, job.pol):
		c.count("catalog.refresh.stale")
		return "stale", ""
	}
	c.count("catalog.refresh.completed")
	return "completed", ""
}

// holds reports whether p is the version now under name; a nil p never is.
func (s *shard) holds(name string, p *policy) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return p != nil && s.pol[name] == p
}

// Flush blocks until every refresh queued before the call has finished.
// Mutations racing the flush may queue more work; the returned state is
// "the pipeline was empty at some point after every prior mutation". Used
// by tests for determinism and by shutdown to drain.
func (c *Catalog) Flush(ctx context.Context) error {
	return c.pending.wait(ctx)
}

// pendingTracker counts queued and running refreshes and lets Flush wait
// for zero. Not a sync.WaitGroup: Add after Wait-at-zero is racy there,
// while here concurrent inc/dec/wait in any order are all well-defined.
type pendingTracker struct {
	mu sync.Mutex
	n  int
	// gauge, when non-nil, is "catalog.refresh.pending". It is set under
	// mu, before waiters are released, so it never lags the count a
	// returning Flush observed.
	gauge   *obs.Gauge
	waiters []chan struct{}
}

func (t *pendingTracker) add(d int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.n += d
	if t.gauge != nil {
		t.gauge.Set(int64(t.n))
	}
	if t.n == 0 {
		for _, w := range t.waiters {
			close(w)
		}
		t.waiters = nil
	}
}

func (t *pendingTracker) wait(ctx context.Context) error {
	t.mu.Lock()
	if t.n == 0 {
		t.mu.Unlock()
		return nil
	}
	w := make(chan struct{})
	t.waiters = append(t.waiters, w)
	t.mu.Unlock()
	select {
	case <-w:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
