package catalog

import (
	"context"
	"fmt"
	"sync"
	"time"

	"minup/internal/constraint"
	"minup/internal/core"
	"minup/internal/lattice"
	"minup/internal/obs"
)

// Bus topics the catalog publishes on. Subscribe via Catalog.Bus().
const (
	// TopicMutations carries one MutationEvent per durable mutation, after
	// the WAL append and the in-memory install. The future WAL-shipping
	// replicator (ROADMAP item 1) subscribes here.
	TopicMutations = "catalog.mutations"
	// TopicRefreshed carries one RefreshEvent per refresh-pipeline
	// completion or failure.
	TopicRefreshed = "catalog.refreshed"
)

// refreshTopic is shard i's private feed from mutations to its refresh
// worker.
func refreshTopic(i int) string { return fmt.Sprintf("catalog.shard.%d.refresh", i) }

// refreshBuffer is each shard worker's event buffer. A full buffer drops
// the refresh (counted "catalog.refresh.dropped") rather than stalling the
// mutation; the cache merely stays cold until the next read fills it.
const refreshBuffer = 256

// MutationEvent is the TopicMutations payload.
type MutationEvent struct {
	Op      string // "put" | "append" | "delete"
	Name    string
	Version uint64 // 0 for deletes
	Shard   int
	Seq     uint64 // the shard-local WAL sequence number
}

// RefreshEvent is the TopicRefreshed payload.
type RefreshEvent struct {
	Name    string
	Version uint64
	Shard   int
	// Repaired reports the refresh extended a memoized solution
	// incrementally instead of solving cold.
	Repaired bool
	// Err is non-empty when the refresh failed (the cache stays cold).
	Err string
}

// MutateOptions tunes one mutation.
type MutateOptions struct {
	// Wait makes the mutation fully synchronous: instead of handing the
	// compile/solve refresh to the shard's background worker, it runs
	// before the call returns — a Put comes back with its cache warm, an
	// Append with its repair performed (and reported in AppendResult).
	// This is the pre-pipeline behavior; tests and the HTTP ?wait=1 knob
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

// refreshJob is the unit of work flowing from a mutation to its shard's
// refresh worker: everything needed to rebuild the version's memoized
// artifacts without touching the shard (set and base are immutable once
// captured — mutations clone-and-swap).
type refreshJob struct {
	shard *shard
	// pol is the *policy the mutation installed (or mutated in place). The
	// install guard requires pointer identity in addition to the version:
	// versions restart at 1 after delete+recreate, so (name, version) alone
	// could match a different policy's lifetime and install artifacts built
	// from the old constraint set onto the new policy.
	pol     *policy
	name    string
	version uint64
	lat     lattice.Lattice
	set     *constraint.Set
	// base, when non-nil, is the previous version's memoized solution:
	// the worker repairs it incrementally (core.RepairContext) instead of
	// solving cold. baseCount is the constraint count the base satisfied.
	base      constraint.Assignment
	baseCount int
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
	var seq uint64
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
		staged.shard = s.id
		if old := s.pol[name]; old != nil {
			staged.version = old.version + 1
		} else {
			staged.version = 1
			c.policies.Add(1)
		}
		s.pol[name] = staged
		info = staged.fullInfo()
		seq = s.seq
		if opt.SeqOut != nil {
			*opt.SeqOut = seq
		}
		c.count("catalog.puts")
		c.shardGauge(s)
		c.maybeCompact(s)
		return nil
	}()
	if err != nil {
		return PolicyInfo{}, err
	}

	c.bus.Publish(TopicMutations, MutationEvent{Op: "put", Name: name, Version: info.Version, Shard: s.id, Seq: seq})
	job := refreshJob{shard: s, pol: staged, name: name, version: info.Version, lat: staged.lat, set: staged.set}
	if opt.Wait {
		c.runRefresh(ctx, job)
		if cur, err := c.Get(name); err == nil && cur.Version == info.Version {
			info = cur
		}
	} else {
		c.enqueueRefresh(job)
	}
	return info, nil
}

// AppendResult reports what an Append did beyond the new PolicyInfo.
type AppendResult struct {
	Info PolicyInfo
	// Repaired is true when the memoized solution was extended
	// incrementally via core.RepairContext before the call returned (i.e.
	// a Wait append against a warm cache); the new solution is memoized
	// either way it was computed.
	Repaired bool
	// Repair carries the repair's work counts when Repaired.
	Repair core.RepairStats
	// Pending is true when the refresh (compile + repair/solve) was handed
	// to the shard's background worker: the mutation is durable and
	// visible, but the memoized answer is not warm yet. Call Flush — or
	// just Solve — to force it.
	Pending bool
}

// Append parses additional constraint text into the policy. The appended
// set is validated (§6 solvability) and made durable synchronously — a
// failed append leaves the policy untouched — while recomputing the
// memoized answer is handed to the shard's refresh worker, which goes
// through core.RepairContext instead of a cold solve whenever the previous
// version's solution was memoized. With MutateOptions.Wait the repair runs
// inline under the shard lock and its stats are returned (the
// pre-pipeline behavior). ifVersion as in Put (MustNotExist is an error
// here).
func (c *Catalog) Append(ctx context.Context, name, constraintsText string, ifVersion int64, opts ...MutateOptions) (AppendResult, error) {
	opt := mutateOpts(opts)
	s := c.shardFor(name)
	res := AppendResult{}
	var (
		ns        *constraint.Set
		baseCount int
		base      constraint.Assignment
		pol       *policy
		lat       lattice.Lattice
		seq       uint64
		solved    constraint.Assignment
	)
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
		ns = p.set.Clone()
		baseCount = len(ns.Constraints())
		if err := ns.ParseString(constraintsText); err != nil {
			return fmt.Errorf("catalog: policy %q append: %w", name, err)
		}

		var solvedStats core.Stats
		base = p.solved
		switch {
		case opt.Wait && base != nil:
			// Synchronous incremental path: extend the memoized solution
			// under the lock, rejecting the append outright if the repair
			// fails. Attributes the appended text introduced start at ⊥ —
			// they carry no history, and the repair raises them exactly as
			// far as the new constraints force.
			seeded := base.Clone()
			for len(seeded) < ns.NumAttrs() {
				seeded = append(seeded, p.lat.Bottom())
			}
			repaired, rstats, err := core.RepairContext(ctx, ns, baseCount, seeded, core.RepairOptions{VerifyMinimal: true})
			if err != nil {
				return fmt.Errorf("catalog: policy %q append rejected: %w", name, err)
			}
			res.Repaired = true
			res.Repair = *rstats
			solved = repaired
			solvedStats = rstats.Solve
			c.countRepair(rstats)
		default:
			// Async (or cold) path: the append must still be rejected
			// synchronously if it makes the policy unsolvable — once the
			// WAL record is durable there is no caller left to refuse.
			if err := core.CheckSolvable(ns); err != nil {
				return fmt.Errorf("catalog: policy %q append rejected: %w", name, err)
			}
		}

		if err := c.logRecord(s, walRecord{Op: "append", Name: name, Constraints: constraintsText}); err != nil {
			return err
		}
		p.set = ns
		p.consTexts = append(p.consTexts, constraintsText)
		p.version++
		p.compiled = nil
		p.solved = solved
		p.solvedStats = solvedStats
		if res.Repaired {
			// The repair already warmed the solution inline; rebuild the
			// compiled snapshot too, so the version doesn't report
			// compiled:false forever (a solved cache never triggers the
			// lazy compile on reads). On injected failure the snapshot just
			// stays cold.
			_ = c.compile(p)
		}
		res.Info = p.fullInfo()
		pol = p
		seq = s.seq
		if opt.SeqOut != nil {
			*opt.SeqOut = seq
		}
		lat = p.lat
		c.count("catalog.appends")
		c.maybeCompact(s)
		return nil
	}()
	if err != nil {
		return AppendResult{}, err
	}

	c.bus.Publish(TopicMutations, MutationEvent{Op: "append", Name: name, Version: res.Info.Version, Shard: s.id, Seq: seq})
	job := refreshJob{shard: s, pol: pol, name: name, version: res.Info.Version, lat: lat, set: ns, base: base, baseCount: baseCount}
	switch {
	case opt.Wait && solved == nil:
		// Wait append against a cold cache: warm it before returning.
		c.runRefresh(ctx, job)
		if cur, err := c.Get(name); err == nil && cur.Version == res.Info.Version {
			res.Info = cur
		}
	case !opt.Wait:
		res.Pending = true
		c.enqueueRefresh(job)
	}
	return res, nil
}

// countRepair records one incremental repair's counters and histogram.
func (c *Catalog) countRepair(rstats *core.RepairStats) {
	c.count("catalog.repairs")
	if rstats.FellBack {
		c.count("catalog.repair_fallbacks")
	}
	if c.opt.Metrics != nil {
		c.opt.Metrics.Histogram("catalog.repair.duration_us", obs.DurationBucketsUS).
			Observe(uint64(rstats.Duration.Microseconds()))
	}
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
	var seq uint64
	err := func() error {
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
		seq = s.seq
		if opt.SeqOut != nil {
			*opt.SeqOut = seq
		}
		c.count("catalog.deletes")
		c.shardGauge(s)
		c.maybeCompact(s)
		return nil
	}()
	if err != nil {
		return err
	}

	c.bus.Publish(TopicMutations, MutationEvent{Op: "delete", Name: name, Shard: s.id, Seq: seq})
	return nil
}

// ---------------------------------------------------------------------------
// The refresh pipeline: per-shard background workers that rebuild a
// version's memoized artifacts after an async mutation.

// enqueueRefresh hands a job to its shard's worker over the bus. A dropped
// publish (full buffer, or the pipeline already shut down) just leaves the
// cache cold for the next read to fill.
func (c *Catalog) enqueueRefresh(job refreshJob) {
	c.pendingAdd(1)
	c.count("catalog.refresh.enqueued")
	if c.bus.Publish(refreshTopic(job.shard.id), job) == 0 {
		c.count("catalog.refresh.dropped")
		c.pendingAdd(-1)
	}
}

// refreshWorker drains one shard's refresh feed until the subscription
// closes (catalog Close). Buffered jobs are still processed after close —
// bus subscriptions drain before their channel reports closed.
func (c *Catalog) refreshWorker(s *shard) {
	defer c.workers.Done()
	for ev := range s.sub.C {
		if job, ok := ev.Payload.(refreshJob); ok {
			c.safeRefresh(job)
			c.pendingAdd(-1)
		}
	}
}

// safeRefresh shields the worker goroutine from injected panics (fault
// points fire inside compile and solve): a crashed refresh is recorded and
// the worker lives on — the policy's cache simply stays cold. Wait-mode
// callers invoke runRefresh directly so a panic propagates to them, exactly
// like the pre-pipeline synchronous path did.
func (c *Catalog) safeRefresh(job refreshJob) {
	start := time.Now()
	defer func() {
		if r := recover(); r != nil {
			c.count("catalog.refresh.panics")
			c.recordRefresh(job, start, "panic", fmt.Sprintf("panic: %v", r))
			c.bus.Publish(TopicRefreshed, RefreshEvent{
				Name: job.name, Version: job.version, Shard: job.shard.id,
				Err: fmt.Sprintf("panic: %v", r),
			})
		}
	}()
	c.runRefresh(context.Background(), job)
}

// runRefresh rebuilds one version's compiled snapshot and memoized
// solution, then installs them iff the policy is still the very *policy
// the mutation touched, at that version — pointer identity guards against
// delete+recreate, which restarts the version sequence at 1 and would
// otherwise let a stale job install artifacts built from the old
// constraint set onto the new policy. All solver work happens outside the
// shard lock; only the install takes it. Also the synchronous body of
// MutateOptions.Wait, which passes the caller's ctx so the inline
// repair/solve honors cancellation and the HTTP solve budget; workers
// pass context.Background().
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

// doRefresh is runRefresh's body; it reports how the job ended for the
// flight record ("stale", "failed", "completed", or "repaired").
func (c *Catalog) doRefresh(ctx context.Context, job refreshJob) (outcome, errText string) {
	s := job.shard
	// Bail before doing any solver work if the policy already moved past
	// this job's version — under a rapid mutation stream most queued
	// refreshes are stale by the time a worker picks them up, and
	// compiling them first would burn the cores the mutators need.
	s.mu.RLock()
	cur := s.pol[job.name]
	stale := cur != job.pol || cur.version != job.version
	s.mu.RUnlock()
	if stale {
		c.count("catalog.refresh.stale")
		return "stale", ""
	}
	if err := c.opt.Fault.Hit("catalog.compile"); err != nil {
		c.count("catalog.refresh.failures")
		c.bus.Publish(TopicRefreshed, RefreshEvent{Name: job.name, Version: job.version, Shard: s.id, Err: err.Error()})
		return "failed", err.Error()
	}
	compiled := job.set.Snapshot()
	c.count("catalog.compiles")

	var solved constraint.Assignment
	var stats core.Stats
	repaired := false
	if job.base != nil {
		seeded := job.base.Clone()
		for len(seeded) < job.set.NumAttrs() {
			seeded = append(seeded, job.lat.Bottom())
		}
		fixed, rstats, err := core.RepairContext(ctx, job.set, job.baseCount, seeded, core.RepairOptions{VerifyMinimal: true})
		if err == nil {
			repaired = true
			solved = fixed
			stats = rstats.Solve
			c.countRepair(rstats)
		}
		// A failed repair falls through to the cold solve: the mutation
		// was already validated solvable, so the answer exists.
	}
	if solved == nil {
		res, err := core.SolveContext(ctx, compiled, core.Options{
			Metrics: c.opt.Metrics,
			Fault:   c.opt.Fault,
		})
		if err != nil {
			c.count("catalog.refresh.failures")
			c.bus.Publish(TopicRefreshed, RefreshEvent{Name: job.name, Version: job.version, Shard: s.id, Err: err.Error()})
			return "failed", err.Error()
		}
		c.count("catalog.refresh.solves")
		solved = res.Assignment
		stats = res.Stats
	}

	s.mu.Lock()
	p := s.pol[job.name]
	if p != job.pol || p.version != job.version {
		s.mu.Unlock()
		c.count("catalog.refresh.stale")
		return "stale", ""
	}
	p.compiled = compiled
	p.solved = solved
	p.solvedStats = stats
	s.mu.Unlock()
	c.count("catalog.refresh.completed")
	c.bus.Publish(TopicRefreshed, RefreshEvent{Name: job.name, Version: job.version, Shard: s.id, Repaired: repaired})
	if repaired {
		return "repaired", ""
	}
	return "completed", ""
}

// Flush blocks until every refresh enqueued before the call has completed
// (or been dropped). Mutations racing the flush may enqueue more work; the
// returned state is "the pipeline was empty at some point after every
// prior mutation". Used by tests for determinism and by shutdown to drain.
func (c *Catalog) Flush(ctx context.Context) error {
	return c.pending.wait(ctx)
}

// pendingAdd moves the in-flight refresh count and its gauge.
func (c *Catalog) pendingAdd(d int) {
	n := c.pending.add(d)
	if c.opt.Metrics != nil {
		c.opt.Metrics.Gauge("catalog.refresh.pending").Set(int64(n))
	}
}

// pendingTracker counts in-flight refreshes and lets Flush wait for zero.
// Not a sync.WaitGroup: Add after Wait-at-zero is racy there, while here
// concurrent inc/dec/wait in any order are all well-defined.
type pendingTracker struct {
	mu      sync.Mutex
	n       int
	waiters []chan struct{}
}

func (t *pendingTracker) add(d int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.n += d
	if t.n == 0 {
		for _, w := range t.waiters {
			close(w)
		}
		t.waiters = nil
	}
	return t.n
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
