package cluster

import (
	"context"
	"fmt"
	"testing"
	"time"
)

// TestSnapshotCatchup: a node that was down while the ring window rolled
// past it must catch up by shipped shard snapshot, not frame replay.
func TestSnapshotCatchup(t *testing.T) {
	ctx := context.Background()
	// Ring of 4: the 24 writes below far outrun it.
	tc := newTestCluster(t, 3, 2, 4)
	leader := tc.waitLeader(5 * time.Second)

	var straggler *testNode
	for _, tn := range tc.nodes {
		if tn != leader {
			straggler = tn
			break
		}
	}
	tc.stop(straggler)

	for i := 0; i < 24; i++ {
		if err := leader.put(ctx, fmt.Sprintf("snap-%d", i)); err != nil {
			t.Fatalf("put %d (majority of 2/3 live): %v", i, err)
		}
	}

	tc.restart(straggler)
	tc.waitConverged(leader, 10*time.Second)

	if got := straggler.reg.Counter("cluster.catchups_installed").Value(); got == 0 {
		t.Fatalf("straggler caught up without installing a snapshot")
	}
	if got := leader.reg.Counter("cluster.catchups_sent").Value(); got == 0 {
		t.Fatalf("leader reports no catch-up snapshots sent")
	}
	res, err := straggler.cat.Solve(ctx, "snap-0")
	if err != nil {
		t.Fatalf("straggler solve after catch-up: %v", err)
	}
	_ = res
}

// TestSnapshotCatchupCorrupt: a corrupted or truncated shipped snapshot is
// detected by the follower, rejected, retried with clean bytes, and still
// converges — the network-level half of the ErrSnapshotCorrupt matrix.
// The straggler's restart may pass leadership on: a vote request with a
// higher term deposes a leader, and the restarted node's election timer
// can fire before the leader's first heartbeat reaches it. So every node
// carries the fault rules, and the counts are summed over the nodes.
func TestSnapshotCatchupCorrupt(t *testing.T) {
	ctx := context.Background()
	tc := newTestCluster(t, 3, 1, 4)
	leader := tc.waitLeader(5 * time.Second)

	var straggler *testNode
	for _, tn := range tc.nodes {
		if tn != leader {
			straggler = tn
			break
		}
	}
	tc.stop(straggler)
	for i := 0; i < 16; i++ {
		if err := leader.put(ctx, fmt.Sprintf("cpt-%d", i)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}

	// Each node's first snapshot send is bit-flipped, its second truncated;
	// its third goes out clean. Whichever node leads, the follower's
	// checksum verification must reject both damaged copies and the retry
	// loop must still converge.
	rearm := func(spec string) {
		for _, tn := range tc.nodes {
			if err := tn.inj.Rearm(spec); err != nil {
				t.Fatalf("node %d: rearm %q: %v", tn.id, spec, err)
			}
		}
	}
	rearm("cluster.snap.corrupt:cancel:1;cluster.snap.truncate:cancel:2")
	tc.restart(straggler)
	tc.waitConverged(leader, 10*time.Second)

	sum := func(counter string) uint64 {
		var n uint64
		for _, tn := range tc.nodes {
			n += tn.reg.Counter(counter).Value()
		}
		return n
	}
	if got := sum("cluster.catchup_retries"); got < 2 {
		t.Fatalf("leaders retried %d damaged snapshots, want >= 2", got)
	}
	if got := sum("cluster.catchup_rejected"); got < 2 {
		t.Fatalf("followers rejected %d damaged snapshots, want >= 2", got)
	}
	if got := straggler.reg.Counter("cluster.catchups_installed").Value(); got == 0 {
		t.Fatalf("straggler never installed the clean retry")
	}
	rearm("")
	// The recovered replica serves reads.
	if err := straggler.cat.Flush(ctx); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if _, err := straggler.cat.Solve(ctx, "cpt-3"); err != nil {
		t.Fatalf("straggler solve: %v", err)
	}
}

// TestRestartedLeaderResyncsDirty: a node that goes down while leading
// restarts with every shard marked dirty and is resynced by snapshot even
// if its log looks aligned — its tail may contain unacknowledged records
// the new leader never saw.
func TestRestartedLeaderResyncsDirty(t *testing.T) {
	ctx := context.Background()
	tc := newTestCluster(t, 3, 2, 0)
	leader := tc.waitLeader(5 * time.Second)
	for i := 0; i < 6; i++ {
		if err := leader.put(ctx, fmt.Sprintf("dl-%d", i)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	tc.waitConverged(leader, 5*time.Second)

	old := leader
	tc.stop(old)
	next := tc.waitLeader(5 * time.Second)
	if next.id == old.id {
		t.Fatalf("dead node still counted as leader")
	}
	if err := tc.ackedPut(ctx, "dl-after", 5*time.Second); err != nil {
		t.Fatalf("post-failover put: %v", err)
	}

	tc.restart(old)
	tc.waitConverged(next, 10*time.Second)
	// The restarted ex-leader must have been brought back via snapshot: its
	// persisted WasLeader flag marks every shard dirty on boot.
	if got := old.reg.Counter("cluster.catchups_installed").Value(); got == 0 {
		t.Fatalf("restarted ex-leader converged without a dirty-shard snapshot resync")
	}
	if _, err := old.cat.Solve(ctx, "dl-after"); err != nil {
		t.Fatalf("ex-leader missing post-failover write: %v", err)
	}
}
