package catalog

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"minup/internal/obs"
	"minup/internal/wal"
)

// TestSnapshotCorruption bit-flips and truncates a shard snapshot and
// asserts Open fails with the typed ErrSnapshotCorrupt (not a raw JSON
// error) and counts it, instead of silently recovering wrong state.
func TestSnapshotCorruption(t *testing.T) {
	ctx := context.Background()
	build := func(t *testing.T) string {
		dir := t.TempDir()
		c, err := Open(Options{Dir: dir, Sync: wal.SyncAlways, SnapshotEvery: 1, Shards: 1})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Put(ctx, "hr", testLattice, testCons, MustNotExist); err != nil {
			t.Fatal(err)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(filepath.Join(dir, "catalog-0.snap")); err != nil {
			t.Fatalf("no snapshot to corrupt: %v", err)
		}
		return dir
	}

	corruptions := map[string]func([]byte) []byte{
		"bitflip": func(b []byte) []byte {
			out := append([]byte(nil), b...)
			out[0] ^= 0x40
			return out
		},
		"truncated": func(b []byte) []byte { return b[:len(b)/2] },
		"valid-json-bad-content": func([]byte) []byte {
			return []byte(`{"last_seq":1,"policies":[{"name":"hr","version":1,"lattice":"chain mil\nlevels U C\n","constraints":[]}]}`)
		},
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			dir := build(t)
			path := filepath.Join(dir, "catalog-0.snap")
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, corrupt(data), 0o644); err != nil {
				t.Fatal(err)
			}
			reg := obs.NewRegistry()
			c, err := Open(Options{Dir: dir, Sync: wal.SyncAlways, Metrics: reg, Shards: 1})
			if err == nil {
				c.Close()
				t.Fatal("Open accepted a corrupt snapshot")
			}
			if !errors.Is(err, ErrSnapshotCorrupt) {
				t.Fatalf("Open error = %v, want ErrSnapshotCorrupt", err)
			}
			if n := reg.Snapshot().Counters["catalog.snapshot_corrupt"]; n != 1 {
				t.Fatalf("catalog.snapshot_corrupt = %d, want 1", n)
			}
		})
	}

	// Control: the uncorrupted directory still opens.
	dir := build(t)
	c, err := Open(Options{Dir: dir, Sync: wal.SyncAlways, Shards: 1})
	if err != nil {
		t.Fatalf("pristine reopen: %v", err)
	}
	defer c.Close()
	if info, err := c.Get("hr"); err != nil || info.Version != 1 {
		t.Fatalf("pristine recovery = %+v, %v", info, err)
	}
}

// TestMemStoreReopen drives a full catalog generation on shared MemStores,
// "restarts" onto the same stores, and asserts recovery semantics match the
// durable path: identical fingerprint, cold caches that solve correctly,
// and unsolvable appends still rejected against a cold policy.
func TestMemStoreReopen(t *testing.T) {
	ctx := context.Background()
	stores := make(map[int]*MemStore)
	opt := Options{
		Shards:        2,
		SnapshotEvery: -1,
		OpenStore: func(i int) (Store, error) {
			if stores[i] == nil {
				stores[i] = NewMemStore()
			}
			return stores[i], nil
		},
	}
	c, err := Open(opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Put(ctx, "a", testLattice, testCons, MustNotExist, MutateOptions{Wait: true}); err != nil {
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
	mustFlush(t, c)
	want := c.Fingerprint()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(opt)
	if err != nil {
		t.Fatalf("reopen on retained MemStores: %v", err)
	}
	defer re.Close()
	if ri := re.RecoveryInfo(); ri.WALRecords != 4 || ri.Shards != 2 {
		t.Fatalf("RecoveryInfo = %+v, want 4 records over 2 shards", ri)
	}
	if got := re.Fingerprint(); !bytes.Equal(got, want) {
		t.Fatalf("reopened state differs:\n%s\nwant:\n%s", got, want)
	}

	// Recovered policies come back cold: the first read cold-solves.
	info, err := re.Get("a")
	if err != nil || info.Version != 2 || info.Solved || info.Compiled {
		t.Fatalf("recovered policy = %+v, %v (want cold at version 2)", info, err)
	}
	res, err := re.Solve(ctx, "a")
	if err != nil || res.CacheHit || res.Assignment["rank"] != "TS" {
		t.Fatalf("cold recovery solve: hit=%v res=%v err=%v", res.CacheHit, res.Assignment, err)
	}
	if res, err := re.Solve(ctx, "a"); err != nil || !res.CacheHit {
		t.Fatalf("re-solve after cold fill: hit=%v err=%v", res.CacheHit, err)
	}

	// An unsolvable append is still rejected synchronously, and a solvable
	// one lands with its refresh handled on the worker.
	if _, err := re.Append(ctx, "a", "C >= rank\n", Unconditional, MutateOptions{Wait: true}); err == nil {
		t.Fatal("cold Append accepted an unsolvable upper bound")
	}
	ar, err := re.Append(ctx, "a", "salary >= TS\n", Unconditional)
	if err != nil || ar.Version != 3 {
		t.Fatalf("cold async Append = %+v, %v (want version 3)", ar, err)
	}
	mustFlush(t, re)
	if res, err := re.Solve(ctx, "a"); err != nil || !res.CacheHit || res.Assignment["salary"] != "TS" {
		t.Fatalf("solve after cold async append: hit=%v res=%v err=%v", res.CacheHit, res.Assignment, err)
	}
}

// TestMemStoreCompaction checks MemStore honors the Compact contract: the
// log is truncated into the snapshot and a reload sees snapshot-only state.
func TestMemStoreCompaction(t *testing.T) {
	ctx := context.Background()
	stores := make(map[int]*MemStore)
	opt := Options{
		Shards:        1,
		SnapshotEvery: 3,
		OpenStore: func(i int) (Store, error) {
			if stores[i] == nil {
				stores[i] = NewMemStore()
			}
			return stores[i], nil
		},
	}
	c, err := Open(opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "b", "c"} {
		if _, err := c.Put(ctx, name, testLattice, testCons, MustNotExist); err != nil {
			t.Fatal(err)
		}
	}
	if n := stores[0].Records(); n != 0 {
		t.Fatalf("store retains %d records after compaction threshold", n)
	}
	want := c.Fingerprint()
	c.Close()

	re, err := Open(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	ri := re.RecoveryInfo()
	if ri.SnapshotPolicies != 3 || ri.WALRecords != 0 {
		t.Fatalf("RecoveryInfo = %+v, want snapshot-only recovery of 3 policies", ri)
	}
	if got := re.Fingerprint(); !bytes.Equal(got, want) {
		t.Fatal("snapshot-only MemStore recovery differs")
	}
}

// TestMetaPinsShardCount: an existing data directory's shard count wins
// over the Options value — rehashing policies under a different N would
// orphan them.
func TestMetaPinsShardCount(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	c := mustOpen(t, Options{Dir: dir, Shards: 4})
	if _, err := c.Put(ctx, "pinned", testLattice, testCons, MustNotExist); err != nil {
		t.Fatal(err)
	}
	want := c.Fingerprint()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	re := mustOpen(t, Options{Dir: dir, Shards: 1}) // asks for 1, gets 4
	if ri := re.RecoveryInfo(); ri.Shards != 4 {
		t.Fatalf("reopen honored Options.Shards over the meta file: %+v", ri)
	}
	if got := re.Fingerprint(); !bytes.Equal(got, want) {
		t.Fatal("reopen under pinned shard count lost state")
	}
}

// TestReplayKeepsUnwritableNames: a put record logged before live
// mutations checked names still replays, applies on a follower and
// serves, and a live append may use the name it declared; only names an
// append adds are checked.
func TestReplayKeepsUnwritableNames(t *testing.T) {
	ctx := context.Background()
	const cons = "attrs a\na >= x\u00a0y\nx\u00a0y >= C\n"
	payload, err := json.Marshal(walRecord{Seq: 1, Op: "put", Name: "old", Lattice: testLattice, Constraints: cons})
	if err != nil {
		t.Fatal(err)
	}
	store := NewMemStore()
	if err := store.Append(payload); err != nil {
		t.Fatal(err)
	}
	c := mustOpen(t, Options{Shards: 1, OpenStore: func(int) (Store, error) { return store, nil }})
	follower := mustOpen(t, Options{Shards: 1})
	if _, err := follower.ApplyRecord(0, payload); err != nil {
		t.Fatalf("ApplyRecord: %v", err)
	}
	for _, cat := range []*Catalog{c, follower} {
		res, err := cat.Solve(ctx, "old")
		if err != nil || res.Assignment["x\u00a0y"] != "C" || res.Assignment["a"] != "C" {
			t.Fatalf("serving the replayed policy: %+v, %v", res, err)
		}
	}
	if _, err := c.Append(ctx, "old", "x\u00a0y >= S\n", Unconditional); err != nil {
		t.Fatalf("append naming the stored attribute: %v", err)
	}
	if _, err := c.Append(ctx, "old", "a >= z\u00a0w\n", Unconditional); err == nil {
		t.Fatal("append adding a new unwritable name was accepted")
	}
}
