package catalog

import (
	"context"
	"fmt"
	"sync"
	"time"

	"minup/internal/constraint"
	"minup/internal/core"
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

// refreshJob is one refresh: the version of one policy it rebuilds.
type refreshJob struct {
	shard *shard
	// pol is the *policy whose version the job rebuilds (nil when the name
	// was already gone). The install guard requires pointer identity in
	// addition to the version: versions restart at 1 after delete+recreate,
	// so (name, version) alone could match a different policy's lifetime
	// and install artifacts built from the old constraint set onto the new
	// policy.
	pol     *policy
	name    string
	version uint64
}

// current reports whether the job may still install its artifacts on p,
// the policy now under its name: p is the job's very *policy, still at the
// job's version, and no read has solved that version yet. Caller holds the
// shard lock.
func (j refreshJob) current(p *policy) bool {
	return p != nil && p == j.pol && p.version == j.version && p.memo == nil
}

// ---------------------------------------------------------------------------
// Mutations.

// Put creates or replaces a policy from lattice and constraint text,
// validating both (including §6 solvability) before anything is persisted.
// ifVersion carries the optimistic-concurrency precondition (Unconditional,
// MustNotExist, or an exact current version). A created policy starts at
// version 1; a replaced one continues its predecessor's version sequence,
// so ETags never repeat within a name's lifetime.
//
// Put returns once the mutation is durable and visible; compiling and
// solving the new version happens on the shard's refresh worker unless
// MutateOptions.Wait is set (see MutateOptions).
func (c *Catalog) Put(ctx context.Context, name, latticeText, constraintsText string, ifVersion int64, opts ...MutateOptions) (PolicyInfo, error) {
	opt := mutateOpts(opts)
	staged, err := buildPolicy(name, latticeText, constraintsText)
	if err != nil {
		return PolicyInfo{}, err
	}
	if err := core.CheckSolvable(staged.set); err != nil {
		return PolicyInfo{}, fmt.Errorf("catalog: policy %q is unsolvable: %w", name, err)
	}
	if err := ctx.Err(); err != nil {
		return PolicyInfo{}, err
	}

	s := c.shardFor(name)
	var info PolicyInfo
	// The locked section runs in a closure with a deferred unlock so that
	// an injected panic (chaos tests crash mid-append) never leaves the
	// shard mutex held.
	err = func() error {
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.closed {
			return ErrClosed
		}
		if err := checkVersion(s, name, ifVersion, false); err != nil {
			return err
		}
		if err := c.logRecord(s, walRecord{Op: "put", Name: name, Lattice: latticeText, Constraints: constraintsText}); err != nil {
			return err
		}
		if s.install(staged) {
			c.policies.Add(1)
		}
		info = staged.info()
		if opt.SeqOut != nil {
			*opt.SeqOut = s.seq
		}
		if !opt.Wait {
			c.enqueue(s, name)
		}
		c.count("catalog.puts")
		c.shardGauge(s)
		c.maybeCompact(s)
		return nil
	}()
	if err != nil {
		return PolicyInfo{}, err
	}
	if opt.Wait {
		info = c.refreshNow(ctx, refreshJob{shard: s, pol: staged, name: name, version: info.Version}, info)
	}
	return info, nil
}

// AppendResult reports what an Append did beyond the new PolicyInfo.
type AppendResult struct {
	Info PolicyInfo
	// Pending is true when the refresh (compile + solve) was left to the
	// shard's background worker: the mutation is durable and visible, but
	// the memoized answer is not warm yet. Call Flush — or just Solve — to
	// force it.
	Pending bool
}

// Append parses additional constraint text into the policy. The appended
// set is validated (§6 solvability) and made durable synchronously — a
// failed append leaves the policy untouched — while computing the new
// version's memoized answer is left to the shard's refresh worker, or run
// inline with MutateOptions.Wait. ifVersion as in Put (MustNotExist is an
// error here).
func (c *Catalog) Append(ctx context.Context, name, constraintsText string, ifVersion int64, opts ...MutateOptions) (AppendResult, error) {
	opt := mutateOpts(opts)
	s := c.shardFor(name)
	var res AppendResult
	var job refreshJob
	// Locked section in a closure with a deferred unlock: an injected panic
	// (chaos tests crash mid-append) must not leave the shard mutex held.
	err := func() error {
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.closed {
			return ErrClosed
		}
		if ifVersion == MustNotExist {
			return fmt.Errorf("%w: append requires an existing policy", ErrVersionMismatch)
		}
		if err := checkVersion(s, name, ifVersion, true); err != nil {
			return err
		}
		p := s.pol[name]
		ns := p.set.Clone()
		if err := ns.ParseString(constraintsText); err != nil {
			return fmt.Errorf("catalog: policy %q append: %w", name, err)
		}
		// Reject an append that makes the policy unsolvable now: once the
		// WAL record is durable there is no caller left to refuse.
		if err := core.CheckSolvable(ns); err != nil {
			return fmt.Errorf("catalog: policy %q append rejected: %w", name, err)
		}
		if err := c.logRecord(s, walRecord{Op: "append", Name: name, Constraints: constraintsText}); err != nil {
			return err
		}
		p.extend(ns, constraintsText)
		res.Info = p.info()
		if opt.SeqOut != nil {
			*opt.SeqOut = s.seq
		}
		if opt.Wait {
			job = refreshJob{shard: s, pol: p, name: name, version: p.version}
		} else {
			c.enqueue(s, name)
			res.Pending = true
		}
		c.count("catalog.appends")
		c.maybeCompact(s)
		return nil
	}()
	if err != nil {
		return AppendResult{}, err
	}
	if opt.Wait {
		res.Info = c.refreshNow(ctx, job, res.Info)
	}
	return res, nil
}

// Delete removes a policy. Always synchronous — there is nothing to
// refresh. ifVersion as in Put (MustNotExist is an error). Of the
// MutateOptions only SeqOut applies; Wait is meaningless here.
func (c *Catalog) Delete(ctx context.Context, name string, ifVersion int64, opts ...MutateOptions) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	opt := mutateOpts(opts)
	s := c.shardFor(name)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if ifVersion == MustNotExist {
		return fmt.Errorf("%w: delete requires an existing policy", ErrVersionMismatch)
	}
	if err := checkVersion(s, name, ifVersion, true); err != nil {
		return err
	}
	if err := c.logRecord(s, walRecord{Op: "delete", Name: name}); err != nil {
		return err
	}
	delete(s.pol, name)
	c.policies.Add(-1)
	if opt.SeqOut != nil {
		*opt.SeqOut = s.seq
	}
	c.count("catalog.deletes")
	c.shardGauge(s)
	c.maybeCompact(s)
	return nil
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
			job := refreshJob{shard: s, name: name}
			if p := s.pol[name]; p != nil {
				job.pol, job.version = p, p.version
			}
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

// refreshNow is the Wait path of a mutation: it runs job's refresh inline
// under the caller's ctx (so the solve honors cancellation and the HTTP
// solve budget) and returns the description of the job's version
// afterwards, or info when the policy has already moved past it. Like
// refreshJob.current it matches the *policy, not the name: after delete +
// recreate the name's version 1 is another policy, which the ack of this
// one must not describe.
func (c *Catalog) refreshNow(ctx context.Context, job refreshJob, info PolicyInfo) PolicyInfo {
	c.runRefresh(ctx, job)
	s := job.shard
	s.mu.RLock()
	defer s.mu.RUnlock()
	if p := s.pol[job.name]; p == job.pol && p.version == job.version {
		return p.info()
	}
	return info
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
	c.opt.Flight.Record(obs.FlightRecord{
		Kind:       "refresh",
		Route:      "catalog.refresh",
		Policy:     job.name,
		Shard:      job.shard.id,
		Version:    job.version,
		Outcome:    outcome,
		Err:        errText,
		Start:      start,
		DurationUS: time.Since(start).Microseconds(),
	})
}

// doRefresh compiles the job's version once and solves it cold, then
// installs the snapshot and the answer iff job.current still holds. All
// solver work happens outside the shard lock; only the install takes it.
// It reports how the job ended for the flight record: "stale", "failed"
// or "completed".
func (c *Catalog) doRefresh(ctx context.Context, job refreshJob) (outcome, errText string) {
	s := job.shard
	// Bail before any solver work if the version is gone or already solved:
	// a solved version's answer has been served, and replacing it would let
	// two reads of one ETag differ. The set is immutable once installed
	// (appends clone and swap), so it is safe to compile outside the lock.
	var set *constraint.Set
	s.mu.RLock()
	if p := s.pol[job.name]; job.current(p) {
		set = p.set
	}
	s.mu.RUnlock()
	if set == nil {
		c.count("catalog.refresh.stale")
		return "stale", ""
	}
	if err := c.opt.Fault.Hit("catalog.compile"); err != nil {
		c.count("catalog.refresh.failures")
		return "failed", err.Error()
	}
	compiled := set.Snapshot()
	c.count("catalog.compiles")
	res, err := core.SolveContext(ctx, compiled, core.Options{
		Metrics: c.opt.Metrics,
		Fault:   c.opt.Fault,
	})
	if err != nil {
		c.count("catalog.refresh.failures")
		return "failed", err.Error()
	}
	c.count("catalog.refresh.solves")

	s.mu.Lock()
	defer s.mu.Unlock()
	p := s.pol[job.name]
	if !job.current(p) {
		c.count("catalog.refresh.stale")
		return "stale", ""
	}
	p.compiled, p.memo = compiled, &memo{solved: res.Assignment, stats: res.Stats}
	c.count("catalog.refresh.completed")
	return "completed", ""
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
