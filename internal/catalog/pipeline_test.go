package catalog

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"minup/internal/fault"
	"minup/internal/obs"
	"minup/internal/wal"
)

// TestCloseIdempotentAndConcurrent hammers Close from several goroutines
// while mutations are still arriving: no panic, no deadlock, every Close
// returns, and once closed every mutation reports ErrClosed. Run under
// -race this is the Close-safety satellite.
func TestCloseIdempotentAndConcurrent(t *testing.T) {
	ctx := context.Background()
	c, err := Open(Options{Dir: t.TempDir(), Sync: wal.SyncNever, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; i < 50; i++ {
				name := fmt.Sprintf("w%d-%03d", g, i)
				if _, err := c.Put(ctx, name, testLattice, testCons, Unconditional); err != nil {
					if !errors.Is(err, ErrClosed) {
						t.Errorf("mutation during close: %v", err)
					}
					return
				}
			}
		}(g)
	}
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			time.Sleep(time.Millisecond)
			if err := c.Close(); err != nil {
				t.Errorf("concurrent Close: %v", err)
			}
		}()
	}
	close(start)
	wg.Wait()

	if err := c.Close(); err != nil {
		t.Fatalf("Close after Close: %v", err)
	}
	if _, err := c.Put(ctx, "late", testLattice, testCons, Unconditional); !errors.Is(err, ErrClosed) {
		t.Fatalf("Put after Close: err = %v, want ErrClosed", err)
	}
	if _, err := c.Append(ctx, "late", "rank >= TS\n", Unconditional); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append after Close: err = %v, want ErrClosed", err)
	}
	if err := c.Delete(ctx, "late", Unconditional); !errors.Is(err, ErrClosed) {
		t.Fatalf("Delete after Close: err = %v, want ErrClosed", err)
	}
}

// TestFlushContext: Flush honors context cancellation while refreshes are
// still pending (a saturated pipeline must not wedge a shutdown that set a
// deadline).
func TestFlushContext(t *testing.T) {
	c := mustOpen(t, Options{Shards: 1})
	// Hold the pending count up artificially: Flush must give up when its
	// context does, then return promptly once the count drains.
	c.pendingAdd(1)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := c.Flush(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Flush under stuck pipeline: err = %v, want deadline exceeded", err)
	}
	c.pendingAdd(-1)
	if err := c.Flush(context.Background()); err != nil {
		t.Fatalf("Flush after drain: %v", err)
	}
}

// TestBusEvents subscribes to the public topics and asserts the pipeline
// publishes a mutation event per durable mutation and a refreshed event per
// completed refresh, with consistent shard routing.
func TestBusEvents(t *testing.T) {
	c := mustOpen(t, Options{Shards: 2})
	ctx := context.Background()
	muts := c.Bus().Subscribe(TopicMutations, 16)
	refs := c.Bus().Subscribe(TopicRefreshed, 16)

	if _, err := c.Put(ctx, "ev", testLattice, testCons, MustNotExist); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Append(ctx, "ev", "rank >= TS\n", Unconditional); err != nil {
		t.Fatal(err)
	}
	mustFlush(t, c)
	if err := c.Delete(ctx, "ev", Unconditional); err != nil {
		t.Fatal(err)
	}
	muts.Close()
	refs.Close()

	wantShard := c.shardFor("ev").id
	var ops []string
	for ev := range muts.C {
		me, ok := ev.Payload.(MutationEvent)
		if !ok {
			t.Fatalf("mutation payload %T", ev.Payload)
		}
		if me.Name != "ev" || me.Shard != wantShard {
			t.Fatalf("mutation event %+v, want name ev on shard %d", me, wantShard)
		}
		ops = append(ops, me.Op)
	}
	if fmt.Sprint(ops) != "[put append delete]" {
		t.Fatalf("mutation ops = %v", ops)
	}

	completed := 0
	for ev := range refs.C {
		re, ok := ev.Payload.(RefreshEvent)
		if !ok {
			t.Fatalf("refresh payload %T", ev.Payload)
		}
		if re.Err != "" {
			t.Fatalf("refresh failed: %+v", re)
		}
		if re.Name == "ev" {
			completed++
		}
	}
	// Put and append each enqueue one refresh. The append's always
	// completes; the put's completes too unless the append had already
	// bumped the version by the time the worker got to it (then it is
	// discarded as stale and publishes nothing).
	if completed < 1 || completed > 2 {
		t.Fatalf("refresh completions = %d, want 1 or 2", completed)
	}
}

// TestRefreshStaleAcrossRecreate: a queued refresh for a deleted policy's
// version must not install its artifacts onto a recreated policy of the
// same name — versions restart at 1 after delete+recreate, so a
// (name, version) check alone would match; the guard requires pointer
// identity with the policy the mutation touched.
func TestRefreshStaleAcrossRecreate(t *testing.T) {
	reg := obs.NewRegistry()
	c := mustOpen(t, Options{Shards: 1, Metrics: reg})
	ctx := context.Background()

	if _, err := c.Put(ctx, "re", testLattice, testCons, MustNotExist); err != nil {
		t.Fatal(err)
	}
	mustFlush(t, c)
	s := c.shardFor("re")
	s.mu.RLock()
	old := s.pol["re"]
	s.mu.RUnlock()
	// The job Put enqueued for version 1 of the first incarnation, held
	// back as it would be on a worker behind a deep queue.
	job := refreshJob{shard: s, pol: old, name: "re", version: 1, lat: old.lat, set: old.set}

	if err := c.Delete(ctx, "re", Unconditional); err != nil {
		t.Fatal(err)
	}
	// Recreate under the same name — version 1 again — with a different
	// attribute universe: installing the old job's artifacts here would
	// serve a solution for constraints this policy never had.
	if _, err := c.Put(ctx, "re", testLattice, "attrs x\nx >= TS\n", MustNotExist); err != nil {
		t.Fatal(err)
	}
	mustFlush(t, c)

	before := reg.Snapshot().Counters["catalog.refresh.stale"]
	c.runRefresh(ctx, job)
	if got := reg.Snapshot().Counters["catalog.refresh.stale"]; got != before+1 {
		t.Fatalf("catalog.refresh.stale = %d, want %d (old-incarnation job must be discarded)", got, before+1)
	}
	res, err := c.Solve(ctx, "re")
	if err != nil || res.Info.Version != 1 || res.Assignment["x"] != "TS" {
		t.Fatalf("solve after recreate = %+v, %v (want version 1, x=TS)", res, err)
	}
	if _, leaked := res.Assignment["salary"]; leaked {
		t.Fatalf("recreated policy serves the deleted incarnation's attributes: %v", res.Assignment)
	}
}

// TestFingerprintConcurrentMutation: Fingerprint copies policy state under
// the shard read locks before marshaling, so it is safe against appends
// mutating the same policies in place. Meaningful under -race.
func TestFingerprintConcurrentMutation(t *testing.T) {
	c := mustOpen(t, Options{Shards: 2})
	ctx := context.Background()
	for i := 0; i < 4; i++ {
		if _, err := c.Put(ctx, fmt.Sprintf("fp-%d", i), testLattice, testCons, MustNotExist); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := c.Append(ctx, fmt.Sprintf("fp-%d", i%4), "rank >= TS\n", Unconditional); err != nil {
				t.Errorf("Append during Fingerprint: %v", err)
				return
			}
		}
	}()
	for i := 0; i < 50; i++ {
		if len(c.Fingerprint()) == 0 {
			t.Error("empty fingerprint")
			break
		}
	}
	close(stop)
	wg.Wait()
}

// TestRefreshStaleVersion: a refresh whose policy moved on (rapid
// back-to-back mutations) must not install an outdated answer.
func TestRefreshStaleVersion(t *testing.T) {
	reg := obs.NewRegistry()
	c := mustOpen(t, Options{Shards: 1, Metrics: reg})
	ctx := context.Background()

	// Rapid-fire put + append: the put's refresh (version 1) very likely
	// lands after the append bumped to version 2 and must be discarded
	// then. Whatever the interleaving, the final answer must reflect
	// version 2.
	if _, err := c.Put(ctx, "fast", testLattice, testCons, MustNotExist); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Append(ctx, "fast", "rank >= TS\n", Unconditional); err != nil {
		t.Fatal(err)
	}
	mustFlush(t, c)
	res, err := c.Solve(ctx, "fast")
	if err != nil || res.Assignment["rank"] != "TS" || res.Info.Version != 2 {
		t.Fatalf("post-flush solve = %+v, %v (want version 2, rank TS)", res, err)
	}
	snap := reg.Snapshot()
	total := snap.Counters["catalog.refresh.completed"] + snap.Counters["catalog.refresh.stale"] +
		snap.Counters["catalog.refresh.dropped"] + snap.Counters["catalog.refresh.failures"]
	if want := snap.Counters["catalog.refresh.enqueued"]; total != want {
		t.Fatalf("refresh accounting leak: enqueued %d, accounted %d", want, total)
	}
	if g := reg.Snapshot().Gauges["catalog.refresh.pending"]; g != 0 {
		t.Fatalf("catalog.refresh.pending = %d after Flush, want 0", g)
	}
}

// TestRefreshKeepsServedAnswer: a read that finds a version cold solves and
// memoizes it; the refresh of that version, finishing later, must leave
// that answer alone, so two reads of one version return the same
// assignment and the same stats. The repair the refresh runs settles on a
// different stats record than the cold solve, so an overwrite shows.
func TestRefreshKeepsServedAnswer(t *testing.T) {
	reg := obs.NewRegistry()
	inj := fault.New(1)
	c := mustOpen(t, Options{Shards: 1, Metrics: reg, Fault: inj})
	ctx := context.Background()
	const cons = "attrs a b c d\nlub(a, b) >= TS\nc >= a\nd >= c\nlub(c, d) >= S\n"
	if _, err := c.Put(ctx, "p", testLattice, cons, MustNotExist); err != nil {
		t.Fatal(err)
	}
	mustFlush(t, c)
	// Whichever compiles first, the refresh or the read's cold fill, is
	// held back, so the read's cold solve is memoized before the refresh
	// could install.
	inj.MustAdd(fault.Rule{Point: "catalog.compile", Act: fault.Delay, Nth: 1, Dur: 200 * time.Millisecond})
	if _, err := c.Append(ctx, "p", "b >= S\na >= C\n", Unconditional); err != nil {
		t.Fatal(err)
	}
	first, err := c.Solve(ctx, "p")
	if err != nil {
		t.Fatal(err)
	}
	mustFlush(t, c)
	second, err := c.Solve(ctx, "p")
	if err != nil {
		t.Fatal(err)
	}
	if first.Info.Version != 2 || second.Info.Version != 2 {
		t.Fatalf("versions %d, %d; want 2, 2", first.Info.Version, second.Info.Version)
	}
	if !reflect.DeepEqual(first.Assignment, second.Assignment) || first.Stats != second.Stats {
		t.Fatalf("one version, two answers:\n first  %v %+v\n second %v %+v",
			first.Assignment, first.Stats, second.Assignment, second.Stats)
	}
	snap := reg.Snapshot()
	total := snap.Counters["catalog.refresh.completed"] + snap.Counters["catalog.refresh.stale"] +
		snap.Counters["catalog.refresh.dropped"] + snap.Counters["catalog.refresh.failures"]
	if want := snap.Counters["catalog.refresh.enqueued"]; total != want {
		t.Fatalf("refresh accounting leak: enqueued %d, accounted %d", want, total)
	}
}
