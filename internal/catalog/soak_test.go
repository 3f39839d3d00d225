package catalog

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"

	"minup/internal/constraint"
	"minup/internal/core"
	"minup/internal/lattice"
	"minup/internal/obs"
	"minup/internal/wal"
	"minup/internal/workload"
)

// TestCatalogSoak drives a durable catalog with a long generated mutation
// stream, interleaving solves so reads race the refresh workers and hit
// the cache at scale, then checks three properties: every surviving
// policy's served solution satisfies its constraint set AND is minimal,
// the counters prove both the refresh and cache paths actually ran, and a
// reopen of the data directory reproduces the state byte-exactly through
// snapshot + WAL recovery.
func TestCatalogSoak(t *testing.T) {
	n := 300
	if testing.Short() {
		n = 60
	}
	muts, err := workload.MutationStream(workload.MutationSpec{
		Seed:             7,
		NumPolicies:      6,
		NumMutations:     n,
		PutFraction:      0.15,
		DeleteFraction:   0.08,
		AttrsPerPolicy:   10,
		ConsPerPut:       14,
		ConsPerAppend:    3,
		LevelRHSFraction: 0.35,
		NewAttrFraction:  0.15,
	})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	reg := obs.NewRegistry()
	ctx := context.Background()
	c := mustOpen(t, Options{Dir: dir, Sync: wal.SyncNever, Metrics: reg, SnapshotEvery: 16, Shards: 2})
	for i, m := range muts {
		if err := applyMutation(ctx, c, m); err != nil {
			t.Fatalf("mutation %d (%s %s): %v", i, m.Op, m.Name, err)
		}
		// Solve the policy just touched (and again, for a guaranteed cache
		// hit) every few mutations, so reads race the refresh of the
		// version they find.
		if i%3 == 0 && m.Op != workload.OpDelete {
			if _, err := c.Solve(ctx, m.Name); err != nil {
				t.Fatalf("solve %s after mutation %d: %v", m.Name, i, err)
			}
			if res, err := c.Solve(ctx, m.Name); err != nil || !res.CacheHit {
				t.Fatalf("re-solve %s: hit=%v err=%v", m.Name, res.CacheHit, err)
			}
		}
	}

	// Drain the refresh pipeline so the memoized answers below are stable.
	mustFlush(t, c)

	// Every live policy: the served solution must satisfy the policy's
	// constraints and match an independent cold solve of a set rebuilt
	// from the stored source texts.
	live := c.List()
	if len(live) == 0 {
		t.Fatal("soak stream left no live policies")
	}
	for _, info := range live {
		res, err := c.Solve(ctx, info.Name)
		if err != nil {
			t.Fatalf("final solve %s: %v", info.Name, err)
		}
		full, err := c.Get(info.Name)
		if err != nil {
			t.Fatal(err)
		}
		lat, err := lattice.ParseString(full.Lattice)
		if err != nil {
			t.Fatal(err)
		}
		set := constraint.NewSet(lat)
		if err := set.ParseString(full.ConstraintText); err != nil {
			t.Fatalf("rebuilding %s from stored text: %v", info.Name, err)
		}
		if set.NumAttrs() != len(res.Assignment) {
			t.Fatalf("%s: served %d attrs, set has %d", info.Name, len(res.Assignment), set.NumAttrs())
		}
		asn := make(constraint.Assignment, set.NumAttrs())
		for _, a := range set.Attrs() {
			lvl, err := lat.ParseLevel(res.Assignment[set.AttrName(a)])
			if err != nil {
				t.Fatalf("%s: unparseable served level %q: %v", info.Name, res.Assignment[set.AttrName(a)], err)
			}
			asn[a] = lvl
		}
		if !set.Satisfies(asn) {
			t.Fatalf("%s: served solution violates constraints: %v", info.Name, set.Violations(asn))
		}
		// Complex constraints admit multiple incomparable minimal
		// solutions, so the check is minimality itself; equality with an
		// independent solve is TestOneAnswerPerVersion's.
		minimal, w, err := core.ProbeMinimality(set, asn)
		if err != nil {
			t.Fatalf("probing %s: %v", info.Name, err)
		}
		if !minimal {
			t.Fatalf("%s: served solution is not minimal (witness %v)\nserved: %s",
				info.Name, w, set.FormatAssignment(asn))
		}
	}

	snap := reg.Snapshot()
	for _, name := range []string{
		"catalog.refresh.solves", "catalog.cache_hits", "catalog.snapshots",
		"catalog.refresh.enqueued", "catalog.refresh.completed",
	} {
		if snap.Counters[name] == 0 {
			t.Errorf("soak never exercised %s", name)
		}
	}
	if g := snap.Gauges["catalog.policies"]; g != int64(len(live)) {
		t.Errorf("catalog.policies gauge = %d, want %d", g, len(live))
	}

	want := c.Fingerprint()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	re := mustOpen(t, Options{Dir: dir, Sync: wal.SyncNever, SnapshotEvery: 16, Shards: 2})
	if got := re.Fingerprint(); !bytes.Equal(got, want) {
		t.Fatal("reopened soak state differs from the live catalog")
	}
}

// TestCrossShardConcurrentSoak runs disjoint generated mutation streams
// from several goroutines against a 4-shard durable catalog (each
// goroutine's policy names carry its own prefix, so optimistic concurrency
// never fires and every mutation must succeed), then checks the combined
// properties: every surviving policy's served solution is minimal, and a
// reopen reproduces the merged state byte-exactly. Run under -race this is
// also the shard-locking and pipeline concurrency test.
func TestCrossShardConcurrentSoak(t *testing.T) {
	const writers = 4
	n := 120
	if testing.Short() {
		n = 40
	}
	dir := t.TempDir()
	reg := obs.NewRegistry()
	ctx := context.Background()
	c := mustOpen(t, Options{Dir: dir, Sync: wal.SyncNever, Metrics: reg, SnapshotEvery: 16, Shards: 4})

	var wg sync.WaitGroup
	errs := make([]error, writers)
	for g := 0; g < writers; g++ {
		muts, err := workload.MutationStream(workload.MutationSpec{
			Seed:             100 + int64(g),
			NumPolicies:      4,
			NumMutations:     n,
			PutFraction:      0.2,
			DeleteFraction:   0.08,
			AttrsPerPolicy:   8,
			ConsPerPut:       10,
			ConsPerAppend:    3,
			LevelRHSFraction: 0.35,
			NewAttrFraction:  0.15,
		})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(g int, muts []workload.Mutation) {
			defer wg.Done()
			for i, m := range muts {
				name := fmt.Sprintf("g%d-%s", g, m.Name)
				var err error
				switch m.Op {
				case workload.OpPut:
					_, err = c.Put(ctx, name, m.Lattice, m.Constraints, Unconditional)
				case workload.OpAppend:
					_, err = c.Append(ctx, name, m.Constraints, Unconditional)
				case workload.OpDelete:
					err = c.Delete(ctx, name, Unconditional)
				}
				if err != nil {
					errs[g] = fmt.Errorf("writer %d mutation %d (%s %s): %w", g, i, m.Op, name, err)
					return
				}
				// Interleave reads so they race the refresh workers.
				if i%5 == 0 && m.Op != workload.OpDelete {
					if _, err := c.Solve(ctx, name); err != nil {
						errs[g] = fmt.Errorf("writer %d solve %s: %w", g, name, err)
						return
					}
				}
			}
		}(g, muts)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	mustFlush(t, c)

	live := c.List()
	if len(live) == 0 {
		t.Fatal("concurrent soak left no live policies")
	}
	seenShards := map[int]bool{}
	for _, info := range live {
		seenShards[info.Shard] = true
		res, err := c.Solve(ctx, info.Name)
		if err != nil {
			t.Fatalf("final solve %s: %v", info.Name, err)
		}
		full, err := c.Get(info.Name)
		if err != nil {
			t.Fatal(err)
		}
		lat, err := lattice.ParseString(full.Lattice)
		if err != nil {
			t.Fatal(err)
		}
		set := constraint.NewSet(lat)
		if err := set.ParseString(full.ConstraintText); err != nil {
			t.Fatalf("rebuilding %s from stored text: %v", info.Name, err)
		}
		asn := make(constraint.Assignment, set.NumAttrs())
		for _, a := range set.Attrs() {
			lvl, err := lat.ParseLevel(res.Assignment[set.AttrName(a)])
			if err != nil {
				t.Fatalf("%s: unparseable served level %q: %v", info.Name, res.Assignment[set.AttrName(a)], err)
			}
			asn[a] = lvl
		}
		minimal, w, err := core.ProbeMinimality(set, asn)
		if err != nil {
			t.Fatalf("probing %s: %v", info.Name, err)
		}
		if !minimal {
			t.Fatalf("%s: served solution is not minimal (witness %v)", info.Name, w)
		}
	}
	if len(seenShards) < 2 {
		t.Fatalf("soak exercised only shards %v; want spread across several", seenShards)
	}

	want := c.Fingerprint()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	re := mustOpen(t, Options{Dir: dir, Sync: wal.SyncNever, SnapshotEvery: 16, Shards: 4})
	if got := re.Fingerprint(); !bytes.Equal(got, want) {
		t.Fatal("reopened concurrent-soak state differs from the live catalog")
	}
}
