package catalog

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"minup/internal/fault"
	"minup/internal/obs"
	"minup/internal/wal"
)

const (
	testLattice = "chain mil\nlevels U C S TS\n"
	testCons    = "attrs salary rank\nsalary >= rank\nrank >= S\n"
)

func mustOpen(t *testing.T, opt Options) *Catalog {
	t.Helper()
	if opt.Shards == 0 {
		// CI runs the suite across a shard matrix: tests that don't pin a
		// count (and so assert shard-count-independent behavior) pick it
		// up from the environment instead of GOMAXPROCS.
		if env := os.Getenv("CATALOG_TEST_SHARDS"); env != "" {
			n, err := strconv.Atoi(env)
			if err != nil || n < 1 {
				t.Fatalf("bad CATALOG_TEST_SHARDS %q", env)
			}
			opt.Shards = n
		}
	}
	c, err := Open(opt)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// mustFlush drains the refresh pipeline so async mutations become
// deterministic for the assertions that follow. The timeout is far beyond
// any real drain (the heaviest soak flushes in well under a second even
// with -race): its job is turning a pending-count accounting bug into an
// immediate failure with a message, not a silent test-binary timeout.
func mustFlush(t *testing.T, c *Catalog) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := c.Flush(ctx); err != nil {
		t.Fatalf("Flush: %v (a timeout here means the pipeline leaked a pending refresh)", err)
	}
}

func TestPutGetSolveLifecycle(t *testing.T) {
	reg := obs.NewRegistry()
	c := mustOpen(t, Options{Metrics: reg})
	ctx := context.Background()

	info, err := c.Put(ctx, "hr", testLattice, testCons, MustNotExist)
	if err != nil {
		t.Fatalf("Put: %v", err)
	}
	if info.Version != 1 || info.Attrs != 2 || info.Constraints != 2 {
		t.Fatalf("Put info = %+v", info)
	}
	// The mutation is visible immediately; the memoized artifacts arrive
	// asynchronously, so drain the pipeline before asserting on them.
	mustFlush(t, c)
	got, err := c.Get("hr")
	if err != nil || got.Version != 1 || got.Lattice != testLattice {
		t.Fatalf("Get = %+v, %v", got, err)
	}
	if !got.Compiled || !got.Solved {
		t.Fatalf("refresh pipeline left the cache cold after Flush: %+v", got)
	}

	// The refresh worker warmed the cache, so every solve is a hit: zero
	// compiles and zero solves on the read path.
	res, err := c.Solve(ctx, "hr")
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !res.CacheHit {
		t.Fatal("solve after Flush was not served from the refreshed cache")
	}
	want := map[string]string{"salary": "S", "rank": "S"}
	for a, l := range want {
		if res.Assignment[a] != l {
			t.Fatalf("Assignment[%s] = %q, want %q (full %v)", a, res.Assignment[a], l, res.Assignment)
		}
	}
	res2, err := c.Solve(ctx, "hr")
	if err != nil || !res2.CacheHit {
		t.Fatalf("second Solve: hit=%v err=%v", res2.CacheHit, err)
	}
	if res2.Assignment["salary"] != "S" {
		t.Fatalf("cached Assignment = %v", res2.Assignment)
	}
	snap := reg.Snapshot()
	for name, want := range map[string]uint64{
		"catalog.compiles":          1,
		"catalog.cache_misses":      0,
		"catalog.cache_hits":        2,
		"solve.cold":                0,
		"catalog.refresh.enqueued":  1,
		"catalog.refresh.completed": 1,
		"catalog.refresh.solves":    1,
	} {
		if snap.Counters[name] != want {
			t.Errorf("counter %s = %d, want %d", name, snap.Counters[name], want)
		}
	}
	if g := snap.Gauges["catalog.policies"]; g != 1 {
		t.Errorf("catalog.policies gauge = %d, want 1", g)
	}

	if list := c.List(); len(list) != 1 || list[0].Name != "hr" || list[0].Lattice != "" {
		t.Fatalf("List = %+v", list)
	}
}

// TestPutParseErrorsNameTheText pins the error of a put whose source does
// not parse: it names the policy and the text at fault, and stores
// nothing.
func TestPutParseErrorsNameTheText(t *testing.T) {
	c := mustOpen(t, Options{})
	ctx := context.Background()
	for _, tc := range []struct{ lattice, cons, want string }{
		{"nonsense", testCons, `catalog: policy "hr" lattice: line 1: unknown directive "nonsense"`},
		{testLattice, "salary >=", `catalog: policy "hr" constraints: line 1: constraint "salary >=" has an empty side`},
	} {
		_, err := c.Put(ctx, "hr", tc.lattice, tc.cons, Unconditional)
		if err == nil || err.Error() != tc.want {
			t.Errorf("Put error = %v, want %s", err, tc.want)
		}
	}
	if _, err := c.Get("hr"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after failed puts = %v, want ErrNotFound", err)
	}
}

// TestSolveWithBaseline: the baseline answers only cold versions, is never
// memoized, and fails honestly where Qian propagation cannot run (upper
// bounds). Every compile is canceled here, so versions stay cold.
func TestSolveWithBaseline(t *testing.T) {
	reg := obs.NewRegistry()
	inj := fault.New(1)
	inj.MustAdd(fault.Rule{Point: "catalog.compile", Act: fault.Cancel, Every: 1})
	c := mustOpen(t, Options{Metrics: reg, Fault: inj})
	ctx := context.Background()
	if _, err := c.Put(ctx, "hr", testLattice, testCons, MustNotExist); err != nil {
		t.Fatal(err)
	}
	mustFlush(t, c)

	res, err := c.Serve(ctx, "hr", SolveOptions{Baseline: true})
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	if !res.Baseline || res.CacheHit || res.UpgradedAttrs != 2 || formatAssignment(res.set, res.set.Lattice(), res.levels)["salary"] != "S" {
		t.Fatalf("baseline result = %+v", res)
	}
	if info, _ := c.Get("hr"); info.Solved {
		t.Fatal("baseline answer was memoized")
	}
	if reg.Counter("solve.cold").Value() != 0 {
		t.Fatal("baseline ran the minimal solver")
	}
	// The cold solve and the trace accessor share the failing compile.
	if _, err := c.Solve(ctx, "hr"); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("cold solve with a canceled compile: %v", err)
	}
	if _, _, err := c.Compiled("hr"); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("Compiled with a canceled compile: %v", err)
	}

	if _, err := c.Put(ctx, "ub", testLattice, "attrs salary\nS >= salary\n", MustNotExist); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Serve(ctx, "ub", SolveOptions{Baseline: true}); err == nil {
		t.Fatal("baseline of an upper-bounded policy succeeded")
	}
	if _, err := c.Serve(ctx, "nope", SolveOptions{Baseline: true}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("baseline of an unknown policy: %v", err)
	}
}

// TestCompiledLeavesMemo: the compiled-snapshot accessor compiles a cold
// version once — the later cold solve reuses it — and never fills or
// changes the memo; a warm version's answer survives it.
func TestCompiledLeavesMemo(t *testing.T) {
	reg := obs.NewRegistry()
	inj := fault.New(1)
	inj.MustAdd(fault.Rule{Point: "catalog.compile", Act: fault.Cancel, Nth: 1})
	c := mustOpen(t, Options{Metrics: reg, Fault: inj})
	ctx := context.Background()
	if _, err := c.Put(ctx, "hr", testLattice, testCons, MustNotExist); err != nil {
		t.Fatal(err)
	}
	mustFlush(t, c) // the refresh's compile is canceled: the version stays cold

	info, compiled, err := c.Compiled("hr")
	if err != nil || compiled == nil {
		t.Fatalf("Compiled: %v", err)
	}
	if !info.Compiled || info.Solved || info.Version != 1 {
		t.Fatalf("Compiled info = %+v", info)
	}
	compiles := reg.Counter("catalog.compiles").Value()
	res, err := c.Solve(ctx, "hr")
	if err != nil || res.CacheHit {
		t.Fatalf("first solve after Compiled: hit=%v err=%v", res.CacheHit, err)
	}
	if got := reg.Counter("catalog.compiles").Value(); got != compiles {
		t.Fatalf("the cold solve compiled again: %d -> %d", compiles, got)
	}
	if _, again, err := c.Compiled("hr"); err != nil || again != compiled {
		t.Fatalf("Compiled of the same version returned a different snapshot (%v)", err)
	}
	if warm, err := c.Solve(ctx, "hr"); err != nil || !warm.CacheHit || warm.Assignment["rank"] != res.Assignment["rank"] {
		t.Fatalf("memo after Compiled: %+v, %v", warm, err)
	}
}

func TestVersionPreconditions(t *testing.T) {
	c := mustOpen(t, Options{})
	ctx := context.Background()

	if _, err := c.Put(ctx, "p", testLattice, testCons, MustNotExist); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Put(ctx, "p", testLattice, testCons, MustNotExist); !errors.Is(err, ErrExists) {
		t.Fatalf("create-only Put over existing: err = %v, want ErrExists", err)
	}
	info, err := c.Put(ctx, "p", testLattice, testCons, 1)
	if err != nil || info.Version != 2 {
		t.Fatalf("conditional replace: %+v, %v", info, err)
	}
	if _, err := c.Put(ctx, "p", testLattice, testCons, 1); !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("stale Put: err = %v, want ErrVersionMismatch", err)
	}
	if _, err := c.Append(ctx, "p", "rank >= TS\n", 1); !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("stale Append: err = %v, want ErrVersionMismatch", err)
	}
	if _, err := c.Append(ctx, "ghost", "rank >= TS\n", Unconditional); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Append to missing: err = %v, want ErrNotFound", err)
	}
	if err := c.Delete(ctx, "p", 1); !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("stale Delete: err = %v, want ErrVersionMismatch", err)
	}
	if err := c.Delete(ctx, "p", 2); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := c.Get("p"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after delete: err = %v, want ErrNotFound", err)
	}
	if err := c.Delete(ctx, "p", Unconditional); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Delete missing: err = %v, want ErrNotFound", err)
	}

	if _, err := c.Put(ctx, "bad/name", testLattice, testCons, Unconditional); err == nil {
		t.Fatal("Put accepted a name with '/'")
	}
	if _, err := c.Put(ctx, "q", testLattice, "salary >=\n", Unconditional); err == nil {
		t.Fatal("Put accepted unparseable constraints")
	}
	if _, err := c.Put(ctx, "q", testLattice, "U >= salary\nsalary >= S\n", Unconditional); err == nil {
		t.Fatal("Put accepted an unsolvable policy")
	}
}

func TestAppendRepairsAndMemoizes(t *testing.T) {
	reg := obs.NewRegistry()
	c := mustOpen(t, Options{Metrics: reg})
	ctx := context.Background()

	// Wait-mode Put: the refresh runs before the call returns, so the
	// cache is warm without any reader.
	pinfo, err := c.Put(ctx, "hr", testLattice, testCons, MustNotExist, MutateOptions{Wait: true})
	if err != nil {
		t.Fatal(err)
	}
	if !pinfo.Solved || !pinfo.Compiled {
		t.Fatalf("wait-mode Put returned a cold policy: %+v", pinfo)
	}

	// Wait-mode append: runs the worker's refresh inline, so it returns
	// warm at the new version with nothing pending.
	ar, err := c.Append(ctx, "hr", "rank >= TS\n", 1, MutateOptions{Wait: true})
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	if ar.Version != 2 {
		t.Fatalf("Append = %+v, want version 2", ar)
	}
	if !ar.Solved || !ar.Compiled {
		t.Fatalf("wait-mode append left cache flags cold: %+v", ar)
	}
	res, err := c.Solve(ctx, "hr")
	if err != nil || !res.CacheHit {
		t.Fatalf("Solve after append: hit=%v err=%v", res.CacheHit, err)
	}
	if res.Assignment["rank"] != "TS" || res.Assignment["salary"] != "TS" {
		t.Fatalf("appended Assignment = %v, want both TS", res.Assignment)
	}
	snap := reg.Snapshot()
	if snap.Counters["solve.cold"] != 0 {
		t.Fatalf("solve.cold = %d after waited append, want 0 (the refresh warmed it)", snap.Counters["solve.cold"])
	}
	if snap.Counters["catalog.refresh.solves"] != 2 {
		t.Fatalf("catalog.refresh.solves = %d, want 2", snap.Counters["catalog.refresh.solves"])
	}

	// Append introducing a brand-new attribute: the new version's solve
	// classifies it.
	if _, err := c.Append(ctx, "hr", "bonus >= salary\n", 2, MutateOptions{Wait: true}); err != nil {
		t.Fatal(err)
	}
	res, err = c.Solve(ctx, "hr")
	if err != nil || !res.CacheHit || res.Assignment["bonus"] != "TS" {
		t.Fatalf("Solve with new attr: hit=%v res=%v err=%v", res.CacheHit, res.Assignment, err)
	}

	// A failed append (parse error, then unsolvable §6 bound) must leave
	// the policy byte-identical and the cache warm.
	before := c.Fingerprint()
	if _, err := c.Append(ctx, "hr", "lub( >= oops\n", Unconditional); err == nil {
		t.Fatal("Append accepted garbage")
	}
	if _, err := c.Append(ctx, "hr", "U >= rank\n", Unconditional); err == nil {
		t.Fatal("Append accepted an unsolvable upper bound")
	}
	if !bytes.Equal(before, c.Fingerprint()) {
		t.Fatal("failed append mutated the policy")
	}
	if res, err := c.Solve(ctx, "hr"); err != nil || !res.CacheHit {
		t.Fatalf("cache lost after failed append: hit=%v err=%v", res.CacheHit, err)
	}

	// Async append: returns immediately; the shard worker solves the new
	// version in the background.
	ar, err = c.Append(ctx, "hr", "salary >= TS\n", Unconditional)
	if err != nil || ar.Version != 4 {
		t.Fatalf("async Append = %+v, %v (want version 4)", ar, err)
	}
	mustFlush(t, c)
	res, err = c.Solve(ctx, "hr")
	if err != nil || !res.CacheHit || res.Assignment["salary"] != "TS" {
		t.Fatalf("solve after flushed async append: hit=%v res=%v err=%v", res.CacheHit, res.Assignment, err)
	}
	snap = reg.Snapshot()
	if snap.Counters["catalog.refresh.solves"] != 4 {
		t.Fatalf("catalog.refresh.solves = %d, want 4 (the async refresh must solve on the worker)", snap.Counters["catalog.refresh.solves"])
	}
	if snap.Counters["solve.cold"] != 0 {
		t.Fatalf("solve.cold = %d, want 0", snap.Counters["solve.cold"])
	}
}

func TestDurabilityRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	c := mustOpen(t, Options{Dir: dir, Sync: wal.SyncAlways})
	if _, err := c.Put(ctx, "a", testLattice, testCons, MustNotExist); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Put(ctx, "b", testLattice, testCons, MustNotExist); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Append(ctx, "a", "rank >= TS\n", Unconditional); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete(ctx, "b", Unconditional); err != nil {
		t.Fatal(err)
	}
	want := c.Fingerprint()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	c2 := mustOpen(t, Options{Dir: dir, Sync: wal.SyncAlways})
	if got := c2.Fingerprint(); !bytes.Equal(got, want) {
		t.Fatalf("reopened state differs:\n%s\nwant:\n%s", got, want)
	}
	ri := c2.RecoveryInfo()
	if ri.WALRecords != 4 || ri.TornTail {
		t.Fatalf("RecoveryInfo = %+v, want 4 WAL records, no torn tail", ri)
	}
	info, err := c2.Get("a")
	if err != nil || info.Version != 2 {
		t.Fatalf("recovered policy a = %+v, %v (want version 2)", info, err)
	}
	// Versions keep climbing from the recovered point.
	if inf, err := c2.Put(ctx, "a", testLattice, testCons, 2); err != nil || inf.Version != 3 {
		t.Fatalf("post-recovery Put = %+v, %v", inf, err)
	}
}

func TestSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	c := mustOpen(t, Options{Dir: dir, Sync: wal.SyncAlways, SnapshotEvery: 4, Shards: 1})
	for _, name := range []string{"a", "b", "c"} {
		if _, err := c.Put(ctx, name, testLattice, testCons, MustNotExist); err != nil {
			t.Fatal(err)
		}
	}
	// Save the pre-compaction WAL (records 1..3): restoring it later
	// simulates a crash in the window between "snapshot written" and "WAL
	// reset".
	oldWAL, err := os.ReadFile(filepath.Join(dir, "catalog-0.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Append(ctx, "a", "rank >= TS\n", Unconditional); err != nil { // 4th record: compacts
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "catalog-0.snap")); err != nil {
		t.Fatalf("no snapshot after compaction threshold: %v", err)
	}
	if fi, _ := os.Stat(filepath.Join(dir, "catalog-0.wal")); fi.Size() != 0 {
		t.Fatalf("WAL not reset after compaction: %d bytes", fi.Size())
	}
	want := c.Fingerprint()
	c.Close()

	// Clean reopen from snapshot only.
	c2 := mustOpen(t, Options{Dir: dir, Sync: wal.SyncAlways, SnapshotEvery: 4, Shards: 1})
	if got := c2.Fingerprint(); !bytes.Equal(got, want) {
		t.Fatalf("snapshot-only recovery differs:\n%s\nwant:\n%s", got, want)
	}
	if ri := c2.RecoveryInfo(); ri.SnapshotPolicies != 3 || ri.WALRecords != 0 {
		t.Fatalf("RecoveryInfo = %+v", ri)
	}
	c2.Close()

	// Crash-window replay: stale WAL records whose mutations the snapshot
	// already contains must be skipped by sequence number, not re-applied.
	if err := os.WriteFile(filepath.Join(dir, "catalog-0.wal"), oldWAL, 0o644); err != nil {
		t.Fatal(err)
	}
	c3 := mustOpen(t, Options{Dir: dir, Sync: wal.SyncAlways, SnapshotEvery: 4, Shards: 1})
	if got := c3.Fingerprint(); !bytes.Equal(got, want) {
		t.Fatalf("crash-window recovery differs:\n%s\nwant:\n%s", got, want)
	}
	if ri := c3.RecoveryInfo(); ri.WALRecords != 0 {
		t.Fatalf("stale records were replayed: %+v", ri)
	}
	// And the catalog must still append correctly past the stale tail.
	if inf, err := c3.Put(ctx, "d", testLattice, testCons, MustNotExist); err != nil || inf.Version != 1 {
		t.Fatalf("post-crash-window Put = %+v, %v", inf, err)
	}
}

// TestMutationAcksCarryNoSourceText: what Put and Append return describes
// the version without its source texts, waited or not; Get still serves
// them.
func TestMutationAcksCarryNoSourceText(t *testing.T) {
	c := mustOpen(t, Options{})
	ctx := context.Background()
	noTexts := func(what string, info PolicyInfo) {
		t.Helper()
		if info.Lattice != "" || info.ConstraintText != "" {
			t.Fatalf("%s ack carries source texts: %+v", what, info)
		}
	}
	info, err := c.Put(ctx, "a", testLattice, testCons, MustNotExist)
	if err != nil {
		t.Fatal(err)
	}
	noTexts("Put", info)
	info, err = c.Put(ctx, "b", testLattice, testCons, MustNotExist, MutateOptions{Wait: true})
	if err != nil {
		t.Fatal(err)
	}
	noTexts("waited Put", info)
	if !info.Solved || info.Attrs != 2 {
		t.Fatalf("waited Put ack = %+v, want a solved 2-attribute version", info)
	}
	ar, err := c.Append(ctx, "a", "rank >= TS\n", Unconditional)
	if err != nil {
		t.Fatal(err)
	}
	noTexts("Append", ar)
	ar, err = c.Append(ctx, "b", "rank >= TS\n", Unconditional, MutateOptions{Wait: true})
	if err != nil {
		t.Fatal(err)
	}
	noTexts("waited Append", ar)
	full, err := c.Get("b")
	if err != nil || full.Lattice != testLattice || full.ConstraintText != testCons+"\nrank >= TS\n" {
		t.Fatalf("Get = %+v, %v; want both source texts", full, err)
	}
}

// TestEncodeOnceFirstHitsConcurrent: concurrent first hits of one version
// run enc once between them and all get the same bytes; a hit of the next
// version encodes again, and results that are not hits never store.
func TestEncodeOnceFirstHitsConcurrent(t *testing.T) {
	c := mustOpen(t, Options{})
	ctx := context.Background()
	if _, err := c.Put(ctx, "p", testLattice, testCons, MustNotExist, MutateOptions{Wait: true}); err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	enc := func(res SolveResult) func() []byte {
		return func() []byte {
			calls.Add(1)
			return []byte(fmt.Sprintf("v%d %v", res.Info.Version, res.Assignment))
		}
	}
	const readers = 16
	bodies := make([][]byte, readers)
	var wg sync.WaitGroup
	for i := range bodies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := c.Solve(ctx, "p")
			if err != nil || !res.CacheHit {
				t.Errorf("Solve: hit=%v err=%v", res.CacheHit, err)
				return
			}
			bodies[i] = EncodeOnce(res, enc(res))
		}(i)
	}
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Fatalf("%d first hits ran enc %d times, want once", readers, n)
	}
	for i := range bodies {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("hit %d got %q, hit 0 got %q", i, bodies[i], bodies[0])
		}
	}

	if _, err := c.Append(ctx, "p", "rank >= TS\n", Unconditional, MutateOptions{Wait: true}); err != nil {
		t.Fatal(err)
	}
	res, err := c.Solve(ctx, "p")
	if err != nil {
		t.Fatal(err)
	}
	if got := EncodeOnce(res, enc(res)); calls.Load() != 2 || bytes.Equal(got, bodies[0]) {
		t.Fatalf("hit of version 2 served %q after %d encodes; version 1 was %q", got, calls.Load(), bodies[0])
	}

	// A baseline answer of a cold version is not a hit: it encodes on
	// every call.
	inj := fault.New(1)
	inj.MustAdd(fault.Rule{Point: "catalog.compile", Act: fault.Cancel, Every: 1})
	cold := mustOpen(t, Options{Fault: inj})
	if _, err := cold.Put(ctx, "p", testLattice, testCons, MustNotExist); err != nil {
		t.Fatal(err)
	}
	mustFlush(t, cold)
	calls.Store(0)
	for i := 0; i < 2; i++ {
		res, err := cold.Serve(ctx, "p", SolveOptions{Baseline: true})
		if err != nil || !res.Baseline {
			t.Fatalf("baseline solve = %+v, %v", res, err)
		}
		EncodeOnce(res, enc(res))
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("two baseline answers ran enc %d times, want 2", n)
	}
}

// TestSolveNeverEncodes: the catalog encodes nothing by itself. After cold
// solves and hits through Solve alone, the version's memo holds no bytes,
// and the first EncodeOnce is what fills it.
func TestSolveNeverEncodes(t *testing.T) {
	c := mustOpen(t, Options{})
	ctx := context.Background()
	if _, err := c.Put(ctx, "p", testLattice, testCons, MustNotExist); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := c.Solve(ctx, "p"); err != nil {
			t.Fatal(err)
		}
	}
	mustFlush(t, c)
	memoBody := func() []byte {
		s := c.shardFor("p")
		s.mu.RLock()
		defer s.mu.RUnlock()
		b, _ := s.pol["p"].memo.encoded.([]byte)
		return b
	}
	if b := memoBody(); b != nil {
		t.Fatalf("Solve alone stored %q", b)
	}
	res, err := c.Solve(ctx, "p")
	if err != nil || !res.CacheHit {
		t.Fatalf("Solve: hit=%v err=%v", res.CacheHit, err)
	}
	EncodeOnce(res, func() []byte { return []byte("answer") })
	if b := memoBody(); string(b) != "answer" {
		t.Fatalf("memo after the first EncodeOnce holds %q", b)
	}
}

// unwritableCons are policy texts that declare an attribute whose name the
// policy text form cannot carry: an NBSP, an EM SPACE or a vertical tab
// inside it, a leading '#', or the keyword attrs.
var unwritableCons = []string{
	"attrs a\na >= x\u00a0y\n",
	"attrs a\nlub(a, x\u2003y) >= S\n",
	"attrs a\na >= x\vy\n",
	"lub(#x) >= S\n",
	"lub(attrs) >= S\n",
}

// TestLiveMutationsRefuseUnwritableNames: a put or append that declares a
// name the policy text form cannot carry is refused and stores nothing.
func TestLiveMutationsRefuseUnwritableNames(t *testing.T) {
	c := mustOpen(t, Options{})
	ctx := context.Background()
	if _, err := c.Put(ctx, "p", testLattice, testCons, MustNotExist); err != nil {
		t.Fatal(err)
	}
	before := c.Fingerprint()
	for _, cons := range unwritableCons {
		if _, err := c.Put(ctx, "q", testLattice, cons, Unconditional); err == nil {
			t.Errorf("Put accepted %q", cons)
		}
		if _, err := c.Append(ctx, "p", cons, Unconditional, MutateOptions{Wait: true}); err == nil {
			t.Errorf("Append accepted %q", cons)
		}
	}
	if !bytes.Equal(before, c.Fingerprint()) {
		t.Fatalf("refused mutations changed the catalog:\n%s", c.Fingerprint())
	}
}
