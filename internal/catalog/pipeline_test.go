package catalog

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"minup/internal/constraint"
	"minup/internal/core"
	"minup/internal/fault"
	"minup/internal/lattice"
	"minup/internal/obs"
	"minup/internal/wal"
	"minup/internal/workload"
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
	// Close drained every queued refresh, and a mutation that lost the
	// race queued nothing, so nothing is left for Flush to wait on.
	mustFlush(t, c)
}

// TestFlushContext: Flush honors context cancellation while refreshes are
// still pending (a saturated pipeline must not wedge a shutdown that set a
// deadline).
func TestFlushContext(t *testing.T) {
	c := mustOpen(t, Options{Shards: 1})
	// Hold the pending count up artificially: Flush must give up when its
	// context does, then return promptly once the count drains.
	c.pending.add(1)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := c.Flush(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Flush under stuck pipeline: err = %v, want deadline exceeded", err)
	}
	c.pending.add(-1)
	if err := c.Flush(context.Background()); err != nil {
		t.Fatalf("Flush after drain: %v", err)
	}
}

// TestBusEvents checks the two notices the catalog gives observers: one
// OnRecord call per durable mutation, in order and on the name's shard,
// and one flight record per refresh job with its outcome.
func TestBusEvents(t *testing.T) {
	var (
		mu   sync.Mutex
		recs []RecordEvent
	)
	flight := obs.NewFlightRecorder(obs.FlightOptions{})
	c := mustOpen(t, Options{Shards: 2, Flight: flight, OnRecord: func(ev RecordEvent) {
		mu.Lock()
		recs = append(recs, ev)
		mu.Unlock()
	}})
	ctx := context.Background()

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

	wantShard := c.ShardOf("ev")
	var ops []string
	mu.Lock()
	for i, ev := range recs {
		var rec walRecord
		if err := json.Unmarshal(ev.Payload, &rec); err != nil {
			t.Fatalf("record %d payload: %v", i, err)
		}
		if rec.Name != "ev" || ev.Shard != wantShard || ev.Seq != rec.Seq || ev.Seq != uint64(i+1) {
			t.Fatalf("record %d = %+v (seq %d), want name ev on shard %d at seq %d", i, rec, ev.Seq, wantShard, i+1)
		}
		ops = append(ops, rec.Op)
	}
	mu.Unlock()
	if fmt.Sprint(ops) != "[put append delete]" {
		t.Fatalf("mutation ops = %v", ops)
	}

	completed := 0
	for _, r := range flight.Snapshot().Recent {
		if r.Kind != "refresh" || r.Policy != "ev" {
			continue
		}
		if r.Err != "" || r.Shard != wantShard {
			t.Fatalf("refresh record %+v, want no error on shard %d", r, wantShard)
		}
		if r.Outcome == "completed" {
			completed++
		}
	}
	// Put and append each queue "ev". The append's refresh always
	// completes; the put's completes too unless the append coalesced into
	// it, or bumped the version before it could install (then it is
	// stale).
	if completed < 1 || completed > 2 {
		t.Fatalf("refresh completions = %d, want 1 or 2", completed)
	}
}

// TestRefreshStaleAcrossRecreate: a refresh of a deleted policy's version
// must not install its artifacts onto a recreated policy of the same name
// — versions restart at 1 after delete+recreate, so a (name, version)
// check alone would match; the guard requires pointer identity with the
// policy the refresh read.
func TestRefreshStaleAcrossRecreate(t *testing.T) {
	reg := obs.NewRegistry()
	inj := fault.New(1)
	// Hold the first incarnation's refresh in its compile, after it has
	// read the policy and its set.
	inj.MustAdd(fault.Rule{Point: "catalog.compile", Act: fault.Delay, Nth: 1, Dur: 500 * time.Millisecond})
	c := mustOpen(t, Options{Shards: 1, Metrics: reg, Fault: inj})
	ctx := context.Background()

	if _, err := c.Put(ctx, "re", testLattice, testCons, MustNotExist); err != nil {
		t.Fatal(err)
	}
	waitHits(t, inj, "catalog.compile", 1)
	if err := c.Delete(ctx, "re", Unconditional); err != nil {
		t.Fatal(err)
	}
	// Recreate under the same name — version 1 again — with a different
	// attribute universe: installing the old refresh's artifacts here would
	// serve a solution for constraints this policy never had.
	if _, err := c.Put(ctx, "re", testLattice, "attrs x\nx >= TS\n", MustNotExist); err != nil {
		t.Fatal(err)
	}
	mustFlush(t, c)

	if got := reg.Counter("catalog.refresh.stale").Value(); got != 1 {
		t.Fatalf("catalog.refresh.stale = %d, want 1 (the old incarnation's refresh must be discarded)", got)
	}
	res, err := c.Solve(ctx, "re")
	if err != nil || res.Info.Version != 1 || res.Assignment["x"] != "TS" {
		t.Fatalf("solve after recreate = %+v, %v (want version 1, x=TS)", res, err)
	}
	if _, leaked := res.Assignment["salary"]; leaked {
		t.Fatalf("recreated policy serves the deleted incarnation's attributes: %v", res.Assignment)
	}
}

// TestWaitedAckAcrossRecreate: a waited Put's ack describes the policy it
// put, even when a delete + recreate replaced it while its refresh ran.
// The recreated policy is at version 1 too, so matching the name and the
// version alone would answer with the other policy's description.
func TestWaitedAckAcrossRecreate(t *testing.T) {
	inj := fault.New(1)
	// Hold the waited Put's inline refresh in its compile.
	inj.MustAdd(fault.Rule{Point: "catalog.compile", Act: fault.Delay, Nth: 1, Dur: 200 * time.Millisecond})
	c := mustOpen(t, Options{Shards: 1, Fault: inj})
	ctx := context.Background()

	type ack struct {
		info PolicyInfo
		err  error
	}
	first := make(chan ack, 1)
	go func() {
		info, err := c.Put(ctx, "re", testLattice, "attrs a b c\na >= b\nb >= c\nc >= S\n", MustNotExist, MutateOptions{Wait: true})
		first <- ack{info, err}
	}()
	waitHits(t, inj, "catalog.compile", 1)
	if err := c.Delete(ctx, "re", Unconditional); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Put(ctx, "re", testLattice, "attrs x\nx >= TS\n", MustNotExist, MutateOptions{Wait: true}); err != nil {
		t.Fatal(err)
	}
	got := <-first
	if got.err != nil {
		t.Fatal(got.err)
	}
	if got.info.Version != 1 || got.info.Attrs != 3 {
		t.Fatalf("first Put acked %+v; want its own 3-attribute version 1", got.info)
	}
}

// waitHits polls until the injector has counted n hits of point. A Delay
// rule counts its hit before it sleeps, so this returns while the delayed
// caller is held.
func waitHits(t *testing.T, inj *fault.Injector, point string, n uint64) {
	t.Helper()
	deadline := time.Now().Add(time.Minute)
	for inj.Hits(point) < n {
		if time.Now().After(deadline) {
			t.Fatalf("%s reached %d hits, want %d", point, inj.Hits(point), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// refreshAccounting returns catalog.refresh.enqueued and the sum of the
// ends a queued refresh comes to: coalesced into an entry already queued,
// completed, stale, or failed.
func refreshAccounting(reg *obs.Registry) (enqueued, accounted uint64) {
	snap := reg.Snapshot()
	return snap.Counters["catalog.refresh.enqueued"],
		snap.Counters["catalog.refresh.coalesced"] + snap.Counters["catalog.refresh.completed"] +
			snap.Counters["catalog.refresh.stale"] + snap.Counters["catalog.refresh.failures"]
}

// TestRefreshPanicCountsAsFailure: a refresh that panics on its shard
// worker is recovered, and it still ends in the refresh accounting, as a
// failure.
func TestRefreshPanicCountsAsFailure(t *testing.T) {
	reg := obs.NewRegistry()
	inj := fault.New(1)
	inj.MustAdd(fault.Rule{Point: "catalog.compile", Act: fault.Panic, Nth: 1})
	c := mustOpen(t, Options{Shards: 1, Metrics: reg, Fault: inj})
	ctx := context.Background()
	if _, err := c.Put(ctx, "boom", testLattice, testCons, MustNotExist); err != nil {
		t.Fatal(err)
	}
	mustFlush(t, c)
	if enq, acc := refreshAccounting(reg); enq != 1 || acc != enq {
		t.Fatalf("refresh accounting after a panicked refresh: enqueued %d, accounted %d (want 1, 1)", enq, acc)
	}
	if got := reg.Counter("catalog.refresh.panics").Value(); got != 1 {
		t.Fatalf("catalog.refresh.panics = %d, want 1", got)
	}
	// The worker survived: the next refresh on the shard completes.
	if _, err := c.Append(ctx, "boom", "rank >= TS\n", Unconditional); err != nil {
		t.Fatal(err)
	}
	mustFlush(t, c)
	if info, err := c.Get("boom"); err != nil || !info.Solved || info.Version != 2 {
		t.Fatalf("after the panicked refresh: %+v, %v (want version 2 solved)", info, err)
	}
}

// TestCompileHistogram: every compile the catalog counts in
// "catalog.compiles" is observed once in "catalog.compile.duration_us",
// whichever caller ran it: the refresh worker, a read, or Compiled.
func TestCompileHistogram(t *testing.T) {
	reg := obs.NewRegistry()
	c := mustOpen(t, Options{Shards: 2, Metrics: reg})
	ctx := context.Background()
	for _, name := range []string{"h1", "h2"} {
		if _, err := c.Put(ctx, name, testLattice, "attrs a b c\nlub(a, b) >= TS\nc >= a\n", MustNotExist); err != nil {
			t.Fatal(err)
		}
		for _, b := range []string{"b >= S\n", "d >= c\n", "lub(c, d) >= TS\n"} {
			if _, err := c.Append(ctx, name, b, Unconditional); err != nil {
				t.Fatal(err)
			}
			if _, err := c.Solve(ctx, name); err != nil {
				t.Fatal(err)
			}
		}
		if _, _, err := c.Compiled(name); err != nil {
			t.Fatal(err)
		}
	}
	mustFlush(t, c)
	snap := reg.Snapshot()
	compiles := snap.Counters["catalog.compiles"]
	if compiles == 0 {
		t.Fatal("no compiles counted")
	}
	if got := snap.Histograms["catalog.compile.duration_us"].Count; got != compiles {
		t.Fatalf("catalog.compile.duration_us counts %d compiles, catalog.compiles %d", got, compiles)
	}
}

// TestRefreshCoalesces: while a policy's refresh runs, k more mutations of
// it leave one entry in the queue, so the burst costs one more compile and
// one more solve, of the newest version.
func TestRefreshCoalesces(t *testing.T) {
	const k = 5
	reg := obs.NewRegistry()
	inj := fault.New(1)
	inj.MustAdd(fault.Rule{Point: "catalog.compile", Act: fault.Delay, Nth: 1, Dur: 300 * time.Millisecond})
	c := mustOpen(t, Options{Shards: 1, Metrics: reg, Fault: inj})
	ctx := context.Background()

	const cons = "attrs a b c d\nlub(a, b) >= TS\nc >= a\nd >= c\n"
	if _, err := c.Put(ctx, "co", testLattice, cons, MustNotExist); err != nil {
		t.Fatal(err)
	}
	waitHits(t, inj, "catalog.compile", 1) // the put's refresh is held
	compiles := reg.Counter("catalog.compiles").Value()
	batches := []string{"b >= S\n", "e >= c\n", "lub(d, e) >= TS\n", "a >= C\n", "f >= b\n"}
	for _, b := range batches[:k] {
		if _, err := c.Append(ctx, "co", b, Unconditional); err != nil {
			t.Fatal(err)
		}
	}
	mustFlush(t, c)

	if got := reg.Counter("catalog.refresh.coalesced").Value(); got != k-1 {
		t.Fatalf("catalog.refresh.coalesced = %d, want %d", got, k-1)
	}
	if got := reg.Counter("catalog.compiles").Value(); got > compiles+2 {
		t.Fatalf("catalog.compiles grew %d -> %d, want at most 2 more", compiles, got)
	}
	if enq, acc := refreshAccounting(reg); enq != acc {
		t.Fatalf("refresh accounting leak: enqueued %d, accounted %d", enq, acc)
	}
	res, err := c.Solve(ctx, "co")
	if err != nil || !res.CacheHit || res.Info.Version != k+1 {
		t.Fatalf("solve after the burst = %+v, %v (want a hit at version %d)", res, err, k+1)
	}
	if want := coldAnswer(t, c, "co"); !bytes.Equal(answerJSON(t, res.Assignment), want) {
		t.Fatalf("served %s, cold solve of the version gives %s", answerJSON(t, res.Assignment), want)
	}
}

// coldAnswer rebuilds name's current version from its stored texts,
// compiles it and solves it with core.SolveContext, and returns the
// answer as JSON.
func coldAnswer(t *testing.T, c *Catalog, name string) []byte {
	t.Helper()
	full, err := c.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	lat, err := lattice.ParseString(full.Lattice)
	if err != nil {
		t.Fatal(err)
	}
	set := constraint.NewSet(lat)
	if err := set.ParseString(full.ConstraintText); err != nil {
		t.Fatalf("rebuilding %s from stored text: %v", name, err)
	}
	res, err := core.SolveContext(context.Background(), set.Snapshot(), core.Options{})
	if err != nil {
		t.Fatalf("cold solve of %s: %v", name, err)
	}
	return answerJSON(t, formatAssignment(set, lat, res.Assignment))
}

// answerJSON encodes a served assignment with sorted keys.
func answerJSON(t *testing.T, a map[string]string) []byte {
	t.Helper()
	out, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestOneAnswerPerVersion: a version's answer does not depend on which
// path produced it or when. After a seeded stream of puts, async and
// waited appends, deletes and interleaved reads, every policy serves
// exactly core.SolveContext's answer for its version, and a version read
// before the refresh workers drained serves the same answer after.
func TestOneAnswerPerVersion(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			muts, err := workload.MutationStream(workload.MutationSpec{
				Seed:             seed,
				NumPolicies:      6,
				NumMutations:     200,
				PutFraction:      0.1,
				DeleteFraction:   0.05,
				AttrsPerPolicy:   16,
				ConsPerPut:       40,
				ConsPerAppend:    3,
				LevelRHSFraction: 0.35,
				NewAttrFraction:  0.1,
			})
			if err != nil {
				t.Fatal(err)
			}
			reg := obs.NewRegistry()
			c := mustOpen(t, Options{Metrics: reg})
			ctx := context.Background()
			rng := rand.New(rand.NewSource(seed))
			type read struct {
				version uint64
				answer  []byte
			}
			seen := map[string]read{} // the last answer read per live name
			waited := uint64(0)
			for i, m := range muts {
				opt := MutateOptions{Wait: m.Op != workload.OpDelete && rng.Intn(2) == 0}
				var err error
				switch m.Op {
				case workload.OpPut:
					_, err = c.Put(ctx, m.Name, m.Lattice, m.Constraints, Unconditional, opt)
				case workload.OpAppend:
					_, err = c.Append(ctx, m.Name, m.Constraints, Unconditional, opt)
				case workload.OpDelete:
					err = c.Delete(ctx, m.Name, Unconditional)
				}
				if err != nil {
					t.Fatalf("mutation %d (%s %s): %v", i, m.Op, m.Name, err)
				}
				if opt.Wait {
					waited++
				}
				delete(seen, m.Name)
				if m.Op == workload.OpDelete || rng.Intn(4) == 0 {
					continue
				}
				first, err := c.Solve(ctx, m.Name)
				if err != nil {
					t.Fatalf("solve %s after mutation %d: %v", m.Name, i, err)
				}
				second, err := c.Solve(ctx, m.Name)
				if err != nil {
					t.Fatal(err)
				}
				a, b := answerJSON(t, first.Assignment), answerJSON(t, second.Assignment)
				if first.Info.Version == second.Info.Version && !bytes.Equal(a, b) {
					t.Fatalf("%s version %d read twice: %s then %s", m.Name, first.Info.Version, a, b)
				}
				if want := coldAnswer(t, c, m.Name); !bytes.Equal(b, want) {
					t.Fatalf("%s version %d after mutation %d serves %s, core.SolveContext of it gives %s",
						m.Name, second.Info.Version, i, b, want)
				}
				seen[m.Name] = read{second.Info.Version, b}
			}
			mustFlush(t, c)

			for _, info := range c.List() {
				res, err := c.Solve(ctx, info.Name)
				if err != nil {
					t.Fatalf("final solve %s: %v", info.Name, err)
				}
				got := answerJSON(t, res.Assignment)
				if want := coldAnswer(t, c, info.Name); !bytes.Equal(got, want) {
					t.Errorf("%s version %d serves %s, core.SolveContext of it gives %s", info.Name, res.Info.Version, got, want)
				}
				if r, ok := seen[info.Name]; ok && r.version == res.Info.Version && !bytes.Equal(r.answer, got) {
					t.Errorf("%s version %d: read %s before the flush, %s after", info.Name, r.version, r.answer, got)
				}
			}
			// Every queued refresh comes to one end; a waited one runs
			// inline and ends the same ways without being queued.
			if enq, acc := refreshAccounting(reg); enq+waited != acc {
				t.Errorf("refresh accounting: enqueued %d + waited %d != accounted %d", enq, waited, acc)
			}
		})
	}
}

// TestFingerprintConcurrentMutation: Fingerprint collects policy state under
// the shard read locks before marshaling, so it is safe against appends
// swapping in new versions of the same policies. Meaningful under -race.
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

	// Rapid-fire put + append: the append either coalesces into the put's
	// queued refresh or, if the worker already took it, makes it stale and
	// queues the name again. Whatever the interleaving, the final answer
	// must reflect version 2.
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
	if enq, acc := refreshAccounting(reg); enq != acc {
		t.Fatalf("refresh accounting leak: enqueued %d, accounted %d", enq, acc)
	}
	if g := reg.Snapshot().Gauges["catalog.refresh.pending"]; g != 0 {
		t.Fatalf("catalog.refresh.pending = %d after Flush, want 0", g)
	}
}

// TestRefreshKeepsServedAnswer: a read that finds a version cold solves and
// memoizes it; the refresh of that version, finishing later, must leave
// that answer alone, so two reads of one version return the same
// assignment and the same stats. The refresh's solve records its own
// duration, so an overwrite shows in the stats.
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
	if enq, acc := refreshAccounting(reg); enq != acc {
		t.Fatalf("refresh accounting leak: enqueued %d, accounted %d", enq, acc)
	}
}

// coldPolicy puts name without waiting and drains the pipeline; the caller
// has armed a rule that cancels the refresh's compile, so the version stays
// cold for the next reader.
func coldPolicy(t *testing.T, c *Catalog, name, cons string) {
	t.Helper()
	if _, err := c.Put(context.Background(), name, testLattice, cons, MustNotExist); err != nil {
		t.Fatal(err)
	}
	mustFlush(t, c)
	if info, err := c.Get(name); err != nil || info.Solved || info.Compiled {
		t.Fatalf("%s after its canceled refresh: %+v, %v; want a cold version", name, info, err)
	}
}

// timedHit returns how long a memo hit of name took.
func timedHit(t *testing.T, c *Catalog, name string) time.Duration {
	t.Helper()
	start := time.Now()
	res, err := c.Solve(context.Background(), name)
	if err != nil || !res.CacheHit {
		t.Fatalf("Solve %s: hit=%v err=%v", name, res.CacheHit, err)
	}
	return time.Since(start)
}

// TestFaultColdWorkLeavesHitsAlone: on a one-shard catalog, a memo hit of
// a warm policy does not wait for another policy's cold read or Compiled,
// each held 200 ms in its compile: no compile or solve holds the shard
// lock.
func TestFaultColdWorkLeavesHitsAlone(t *testing.T) {
	inj := fault.New(1)
	c := mustOpen(t, Options{Shards: 1, Fault: inj})
	if _, err := c.Put(context.Background(), "warm", testLattice, testCons, MustNotExist, MutateOptions{Wait: true}); err != nil {
		t.Fatal(err)
	}
	// Compiles from here on: each cold policy's refresh (canceled), then
	// the cold work under test (held).
	inj.MustAdd(fault.Rule{Point: "catalog.compile", Act: fault.Cancel, Nth: 1})
	inj.MustAdd(fault.Rule{Point: "catalog.compile", Act: fault.Delay, Nth: 2, Dur: 200 * time.Millisecond})
	inj.MustAdd(fault.Rule{Point: "catalog.compile", Act: fault.Cancel, Nth: 3})
	inj.MustAdd(fault.Rule{Point: "catalog.compile", Act: fault.Delay, Nth: 4, Dur: 200 * time.Millisecond})
	for i, cold := range []struct {
		name string
		work func(name string) error
	}{
		{"cold-read", func(name string) error { _, err := c.Solve(context.Background(), name); return err }},
		{"cold-compiled", func(name string) error { _, _, err := c.Compiled(name); return err }},
	} {
		coldPolicy(t, c, cold.name, testCons)
		done := make(chan error, 1)
		go func() { done <- cold.work(cold.name) }()
		waitHits(t, inj, "catalog.compile", uint64(2*i+2))
		if d := timedHit(t, c, "warm"); d > 50*time.Millisecond {
			t.Errorf("a hit of warm took %v behind %s's held compile", d, cold.name)
		}
		if err := <-done; err != nil {
			t.Fatalf("%s: %v", cold.name, err)
		}
	}
}

// TestFaultBudgetWhileVersionSolves: a read whose 20 ms budget runs out
// while another caller holds the version's solve gives up with the
// solver's cancellation error instead of waiting the solve out; the held
// solve still memoizes its answer.
func TestFaultBudgetWhileVersionSolves(t *testing.T) {
	inj := fault.New(1)
	inj.MustAdd(fault.Rule{Point: "catalog.compile", Act: fault.Cancel, Nth: 1})
	inj.MustAdd(fault.Rule{Point: "catalog.compile", Act: fault.Delay, Nth: 2, Dur: 300 * time.Millisecond})
	c := mustOpen(t, Options{Shards: 1, Fault: inj})
	coldPolicy(t, c, "p", testCons)
	held := make(chan error, 1)
	go func() { _, err := c.Solve(context.Background(), "p"); held <- err }()
	waitHits(t, inj, "catalog.compile", 2)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Solve(ctx, "p")
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Errorf("the 20 ms read returned after %v", d)
	}
	if !errors.Is(err, core.ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("the 20 ms read: %v, want core.ErrCanceled and context.DeadlineExceeded", err)
	}
	if err := <-held; err != nil {
		t.Fatal(err)
	}
	if res, err := c.Solve(context.Background(), "p"); err != nil || !res.CacheHit {
		t.Fatalf("after the held solve: hit=%v err=%v", res.CacheHit, err)
	}
}

// TestFaultConcurrentColdReadsSolveOnce: eight first reads of a cold
// version run one solve between them and serve one answer.
func TestFaultConcurrentColdReadsSolveOnce(t *testing.T) {
	const readers = 8
	reg := obs.NewRegistry()
	inj := fault.New(1)
	inj.MustAdd(fault.Rule{Point: "catalog.compile", Act: fault.Cancel, Nth: 1})
	// Hold the first reader's compile so the others arrive while it runs.
	inj.MustAdd(fault.Rule{Point: "catalog.compile", Act: fault.Delay, Nth: 2, Dur: 100 * time.Millisecond})
	c := mustOpen(t, Options{Shards: 1, Metrics: reg, Fault: inj})
	coldPolicy(t, c, "p", "attrs a b c d\nlub(a, b) >= TS\nc >= a\nd >= c\nlub(c, d) >= S\n")

	answers := make([]map[string]string, readers)
	var wg sync.WaitGroup
	for i := range answers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := c.Solve(context.Background(), "p")
			if err != nil {
				t.Errorf("reader %d: %v", i, err)
				return
			}
			answers[i] = res.Assignment
		}(i)
	}
	wg.Wait()
	snap := reg.Snapshot()
	if snap.Counters["solve.cold"] != 1 || snap.Counters["catalog.compiles"] != 1 {
		t.Fatalf("%d first reads ran %d cold solves and %d compiles, want 1 and 1",
			readers, snap.Counters["solve.cold"], snap.Counters["catalog.compiles"])
	}
	if hits := snap.Counters["catalog.cache_hits"]; hits != readers-1 {
		t.Fatalf("catalog.cache_hits = %d, want %d", hits, readers-1)
	}
	for i := range answers {
		if !reflect.DeepEqual(answers[i], answers[0]) {
			t.Fatalf("reader %d got %v, reader 0 got %v", i, answers[i], answers[0])
		}
	}
}

// TestChaosOneAnswerPerVersion is TestOneAnswerPerVersion with readers
// racing the mutation stream: goroutines read random names while one
// mutator applies the stream, and randomly delayed compiles widen the
// windows between lookup, solve and store. Every version read more than
// once serves one answer. Versions restart at 1 when a name is deleted and
// put again, so a read counts only when the name's incarnation is known:
// the mutator bumps it after each delete, and a read that saw it change is
// dropped.
func TestChaosOneAnswerPerVersion(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			muts, err := workload.MutationStream(workload.MutationSpec{
				Seed:             seed,
				NumPolicies:      4,
				NumMutations:     150,
				PutFraction:      0.1,
				DeleteFraction:   0.05,
				AttrsPerPolicy:   12,
				ConsPerPut:       24,
				ConsPerAppend:    3,
				LevelRHSFraction: 0.35,
				NewAttrFraction:  0.1,
			})
			if err != nil {
				t.Fatal(err)
			}
			inj := fault.New(seed)
			inj.MustAdd(fault.Rule{Point: "catalog.compile", Act: fault.Delay, Prob: 0.3, Dur: time.Millisecond})
			reg := obs.NewRegistry()
			c := mustOpen(t, Options{Metrics: reg, Fault: inj})
			ctx := context.Background()
			incarnation := map[string]*atomic.Int64{}
			var names []string
			for _, m := range muts {
				if incarnation[m.Name] == nil {
					incarnation[m.Name] = new(atomic.Int64)
					names = append(names, m.Name)
				}
			}
			type key struct {
				name        string
				incarnation int64
				version     uint64
			}
			var mu sync.Mutex
			seen := map[key]map[string]string{}
			reads := 0
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for r := 0; r < 4; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed*10 + int64(r)))
					for {
						select {
						case <-stop:
							return
						default:
						}
						name := names[rng.Intn(len(names))]
						before := incarnation[name].Load()
						res, err := c.Solve(ctx, name)
						if errors.Is(err, ErrNotFound) {
							continue
						}
						if err != nil {
							t.Errorf("read %s: %v", name, err)
							return
						}
						if incarnation[name].Load() != before {
							continue
						}
						k := key{name, before, res.Info.Version}
						mu.Lock()
						reads++
						if prev, ok := seen[k]; ok && !reflect.DeepEqual(prev, res.Assignment) {
							t.Errorf("%s incarnation %d version %d read as %v and as %v", name, before, k.version, prev, res.Assignment)
						}
						seen[k] = res.Assignment
						mu.Unlock()
					}
				}(r)
			}
			rng := rand.New(rand.NewSource(seed))
			waited := uint64(0)
			for i, m := range muts {
				opt := MutateOptions{Wait: m.Op != workload.OpDelete && rng.Intn(2) == 0}
				if opt.Wait {
					waited++
				}
				if err := func() error {
					switch m.Op {
					case workload.OpPut:
						_, err := c.Put(ctx, m.Name, m.Lattice, m.Constraints, Unconditional, opt)
						return err
					case workload.OpAppend:
						_, err := c.Append(ctx, m.Name, m.Constraints, Unconditional, opt)
						return err
					}
					err := c.Delete(ctx, m.Name, Unconditional)
					incarnation[m.Name].Add(1)
					return err
				}(); err != nil {
					t.Fatalf("mutation %d (%s %s): %v", i, m.Op, m.Name, err)
				}
			}
			close(stop)
			wg.Wait()
			mustFlush(t, c)
			if reads == 0 {
				t.Fatal("no read completed during the stream")
			}
			for _, info := range c.List() {
				res, err := c.Solve(ctx, info.Name)
				if err != nil {
					t.Fatal(err)
				}
				got := answerJSON(t, res.Assignment)
				if want := coldAnswer(t, c, info.Name); !bytes.Equal(got, want) {
					t.Errorf("%s version %d serves %s, core.SolveContext of it gives %s", info.Name, res.Info.Version, got, want)
				}
				k := key{info.Name, incarnation[info.Name].Load(), res.Info.Version}
				if prev, ok := seen[k]; ok && !reflect.DeepEqual(prev, res.Assignment) {
					t.Errorf("%s version %d: read %v during the stream, %v after", info.Name, k.version, prev, res.Assignment)
				}
			}
			if enq, acc := refreshAccounting(reg); enq+waited != acc {
				t.Errorf("refresh accounting: enqueued %d + waited %d != accounted %d", enq, waited, acc)
			}
		})
	}
}
