package cluster

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"minup/internal/catalog"
)

// TestRecordLogGap: a ring holding non-contiguous seqs (the state a
// snapshot install used to leave behind) must refuse gapped reads instead
// of indexing out of range and crashing the process.
func TestRecordLogGap(t *testing.T) {
	r := NewRecordLog(8)
	r.Append(catalog.RecordEvent{Shard: 0, Seq: 1, Payload: []byte("a")})
	r.Append(catalog.RecordEvent{Shard: 0, Seq: 5, Payload: []byte("e")})
	// seq 3 is inside [first, last] but past the slice end: the old direct
	// index entries[3-1] panicked here.
	if _, ok := r.get(0, 3); ok {
		t.Fatalf("get across a ring gap returned ok")
	}
	if _, ok := r.get(0, 5); ok {
		t.Fatalf("get of a gapped tail entry returned ok; gapped rings must force snapshot catch-up")
	}
	if got, ok := r.get(0, 1); !ok || string(got) != "a" {
		t.Fatalf("get(0,1) = (%q, %v), want (a, true)", got, ok)
	}
}

// TestRecordLogResetAfterSnapshot: installing a snapshot resets the shard's
// ring, so appends resume contiguously from the post-snapshot seq.
func TestRecordLogResetAfterSnapshot(t *testing.T) {
	r := NewRecordLog(8)
	r.Append(catalog.RecordEvent{Shard: 0, Seq: 1, Payload: []byte("a")})
	r.Append(catalog.RecordEvent{Shard: 0, Seq: 2, Payload: []byte("b")})
	r.reset(0) // snapshot install jumped the shard to seq 10
	r.Append(catalog.RecordEvent{Shard: 0, Seq: 11, Payload: []byte("k")})
	if _, ok := r.get(0, 2); ok {
		t.Fatalf("pre-snapshot record survived the reset")
	}
	if got, ok := r.get(0, 11); !ok || string(got) != "k" {
		t.Fatalf("get(0,11) = (%q, %v), want (k, true)", got, ok)
	}
}

// TestCommitCountsOnlyConfirmed: the commit quorum must ignore positions a
// follower merely reported in a heartbeat — a dirty/divergent node (a
// deposed leader's unacknowledged tail) reports same-numbered records that
// differ from the acknowledged history. Only append/snapshot-confirmed
// positions count, and a shard awaiting a snapshot resync counts as empty.
func TestCommitCountsOnlyConfirmed(t *testing.T) {
	n := &Node{
		ownSeq: []uint64{7},
		commit: make([]uint64, 1),
		peers: map[int]*peer{
			1: {known: true, match: []uint64{7}},
			2: {known: true, match: []uint64{0}},
		},
	}
	n.recomputeCommitLocked(-1)
	if n.commit[0] != 0 {
		t.Fatalf("commit = %d counting heartbeat-reported seqs, want 0", n.commit[0])
	}
	// A confirmed position on a shard still awaiting a snapshot must not
	// count either.
	n.peers[1].confirmed = []uint64{7}
	n.peers[1].needSnap = map[int]bool{0: true}
	n.recomputeCommitLocked(-1)
	if n.commit[0] != 0 {
		t.Fatalf("commit = %d counting a needSnap shard, want 0", n.commit[0])
	}
	n.peers[1].needSnap = nil
	n.recomputeCommitLocked(-1)
	if n.commit[0] != 7 {
		t.Fatalf("commit = %d with one confirmed peer, want 7", n.commit[0])
	}
	// The commit index never regresses, even if confirmations reset.
	n.peers[1].confirmed = nil
	n.recomputeCommitLocked(-1)
	if n.commit[0] != 7 {
		t.Fatalf("commit regressed to %d, want 7", n.commit[0])
	}
}

// TestNewLeaderCommitsPreviousTermRecords: after a failover with no new
// mutations, a Barrier on a record from the previous reign must still
// commit — the new leader's empty-append probes confirm caught-up
// followers for the current term (the stand-in for Raft's no-op entry).
func TestNewLeaderCommitsPreviousTermRecords(t *testing.T) {
	ctx := context.Background()
	tc := newTestCluster(t, 3, 1, 0)
	first := tc.waitLeader(5 * time.Second)
	for i := 0; i < 4; i++ {
		if err := first.put(ctx, fmt.Sprintf("prev-%d", i)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	tc.waitConverged(first, 5*time.Second)

	tc.stop(first)
	second := tc.waitLeader(5 * time.Second)
	if second.id == first.id {
		t.Fatalf("failover elected the dead node")
	}
	// No new writes: the barrier seq predates second's term.
	bctx, cancel := context.WithTimeout(ctx, 4*time.Second)
	defer cancel()
	if err := second.node.Barrier(bctx, 0, second.cat.ShardSeq(0)); err != nil {
		t.Fatalf("barrier on previous-term record never committed: %v", err)
	}
}

// TestVoteRefusedWhenPersistFails: a vote that cannot be made durable must
// not be granted — an unpersisted vote can be re-cast after a restart,
// electing two leaders in one term.
func TestVoteRefusedWhenPersistFails(t *testing.T) {
	dir := t.TempDir()
	cat, err := catalog.Open(catalog.Options{
		Shards:    1,
		OpenStore: func(int) (catalog.Store, error) { return catalog.NewMemStore(), nil },
	})
	if err != nil {
		t.Fatalf("catalog open: %v", err)
	}
	defer cat.Close()
	n, err := Open(Options{
		ID:      0,
		Addr:    "127.0.0.1:0",
		Peers:   map[int]string{1: "127.0.0.1:1"},
		Catalog: cat,
		Dir:     dir,
		Lease:   time.Hour, // no campaigns during the test
	})
	if err != nil {
		t.Fatalf("cluster open: %v", err)
	}
	defer n.Close()

	// Block persistence: WriteAtomic cannot rename over a directory.
	blocker := filepath.Join(dir, "cluster.state.json")
	if err := os.Mkdir(blocker, 0o755); err != nil {
		t.Fatalf("mkdir blocker: %v", err)
	}
	msg := message{Kind: msgVote, From: 1, Term: 5, LastLogTerm: 0, Seqs: []uint64{0}}
	var rep reply
	if n.handleVote(&msg, &rep); rep.Granted {
		t.Fatalf("vote granted without durable state")
	}
	// Same candidate retries once persistence works again: the in-memory
	// vote (already for it) grants and now persists.
	if err := os.Remove(blocker); err != nil {
		t.Fatalf("remove blocker: %v", err)
	}
	rep = reply{}
	if n.handleVote(&msg, &rep); !rep.Granted {
		t.Fatalf("retry after persistence recovered was refused")
	}
	data, err := os.ReadFile(blocker)
	if err != nil {
		t.Fatalf("state file missing after granted vote: %v", err)
	}
	if len(data) == 0 {
		t.Fatalf("state file empty after granted vote")
	}
}

// TestCampaignAbortsWhenPersistFails: an unpersisted self-vote must not be
// used to solicit votes.
func TestCampaignAbortsWhenPersistFails(t *testing.T) {
	dir := t.TempDir()
	cat, err := catalog.Open(catalog.Options{
		Shards:    1,
		OpenStore: func(int) (catalog.Store, error) { return catalog.NewMemStore(), nil },
	})
	if err != nil {
		t.Fatalf("catalog open: %v", err)
	}
	defer cat.Close()
	n, err := Open(Options{
		ID:      0,
		Addr:    "127.0.0.1:0",
		Peers:   map[int]string{1: "127.0.0.1:1"},
		Catalog: cat,
		Dir:     dir,
		Lease:   time.Hour,
	})
	if err != nil {
		t.Fatalf("cluster open: %v", err)
	}
	defer n.Close()
	blocker := filepath.Join(dir, "cluster.state.json")
	if err := os.Mkdir(blocker, 0o755); err != nil {
		t.Fatalf("mkdir blocker: %v", err)
	}
	n.campaign()
	n.mu.Lock()
	role := n.role
	n.mu.Unlock()
	if role != RoleFollower {
		t.Fatalf("campaign with failed persist left role %s, want follower", role)
	}
	if n.IsLeader() {
		t.Fatalf("campaign with failed persist won leadership")
	}
}

// TestSnapshotDeadlineScales: snapshot RPCs get a payload-scaled deadline
// instead of the tick-scaled CallTimeout, so multi-MB catch-ups are not
// re-shipped forever on timeout.
func TestSnapshotDeadlineScales(t *testing.T) {
	c := &rpcClient{timeout: 200 * time.Millisecond}
	if d := c.deadlineFor(message{Kind: msgHeartbeat}); d != 200*time.Millisecond {
		t.Fatalf("heartbeat deadline = %s, want CallTimeout", d)
	}
	if d := c.deadlineFor(message{Kind: msgSnapshot}); d != 2*time.Second {
		t.Fatalf("small snapshot deadline = %s, want the 2s floor", d)
	}
	big := message{Kind: msgSnapshot, Payload: make([]byte, 8<<20)}
	if d := c.deadlineFor(big); d != 10*time.Second {
		t.Fatalf("8MiB snapshot deadline = %s, want 10s", d)
	}
	slow := &rpcClient{timeout: time.Minute}
	if d := slow.deadlineFor(message{Kind: msgSnapshot}); d != time.Minute {
		t.Fatalf("snapshot deadline = %s, must never undercut CallTimeout", d)
	}
}

// TestBarrierUnconfirmedDirtyPeer: the review's headline scenario, in
// miniature — a leader whose only live peer keeps answering appends with
// NeedSync (divergent tail) but reporting matching seqs must NOT ack.
// Constructed white-box: the peer's match says "caught up", nothing is
// confirmed.
func TestBarrierUnconfirmedDirtyPeer(t *testing.T) {
	n := &Node{
		ownSeq: []uint64{3, 9},
		commit: make([]uint64, 2),
		peers: map[int]*peer{
			1: {known: true, match: []uint64{3, 9}, needSnap: map[int]bool{0: true, 1: true}},
		},
	}
	n.recomputeCommitLocked(-1)
	if n.commit[0] != 0 || n.commit[1] != 0 {
		t.Fatalf("commit = %v counting a dirty peer's reported seqs, want zeros", n.commit)
	}
	// Snapshot confirmation repairs it.
	n.peers[1].needSnap = nil
	n.peers[1].confirm(2, 0, 3)
	n.peers[1].confirm(2, 1, 9)
	n.recomputeCommitLocked(-1)
	if n.commit[0] != 3 || n.commit[1] != 9 {
		t.Fatalf("commit = %v after snapshot confirmation, want [3 9]", n.commit)
	}
	w := &commitWaiter{shard: 1, seq: 9, ch: make(chan error, 1)}
	n.waiters = append(n.waiters, w)
	n.recomputeCommitLocked(1)
	select {
	case err := <-w.ch:
		if err != nil {
			t.Fatalf("waiter released with %v", err)
		}
	default:
		t.Fatalf("waiter not released at confirmed commit")
	}
}
