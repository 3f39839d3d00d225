package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"minup/internal/catalog"
	"minup/internal/fault"
	"minup/internal/obs"
)

const (
	testLattice = "chain mil\nlevels U C S TS\n"
	testCons    = "attrs salary rank\nsalary >= rank\nrank >= S\n"
)

// Timings for the in-process clusters: fast enough that elections settle in
// tens of milliseconds, slow enough for -race on a single core.
const (
	testTick  = 10 * time.Millisecond
	testLease = 80 * time.Millisecond
)

// testNode is one cluster member plus everything needed to kill and
// restart it: the MemStores survive a catalog Close, the state dir
// survives a node Close.
type testNode struct {
	id     int
	addr   string
	dir    string
	stores []*catalog.MemStore
	inj    *fault.Injector
	reg    *obs.Registry
	ring   *RecordLog
	cat    *catalog.Catalog
	node   *Node
	down   bool
}

type testCluster struct {
	t        *testing.T
	shards   int
	ringSize int
	peers    map[int]string
	nodes    []*testNode
}

// reserveAddrs picks n distinct loopback ports by binding and releasing
// them, so every node can know the full peer map before any node starts.
func reserveAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("reserve port: %v", err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs
}

// newTestCluster boots n nodes with a pinned shard count and replication
// ring size, all started and racing to elect a leader.
func newTestCluster(t *testing.T, n, shards, ringSize int) *testCluster {
	t.Helper()
	tc := &testCluster{t: t, shards: shards, ringSize: ringSize, peers: map[int]string{}}
	addrs := reserveAddrs(t, n)
	for i, addr := range addrs {
		tc.peers[i] = addr
	}
	for i, addr := range addrs {
		tn := &testNode{id: i, addr: addr, dir: t.TempDir(), inj: fault.New(int64(i) + 1)}
		tn.stores = make([]*catalog.MemStore, shards)
		for j := range tn.stores {
			tn.stores[j] = catalog.NewMemStore()
		}
		tc.nodes = append(tc.nodes, tn)
		tc.start(tn)
	}
	t.Cleanup(func() {
		for _, tn := range tc.nodes {
			tc.stop(tn)
		}
	})
	return tc
}

// start (re)opens a node's catalog over its retained MemStores and boots
// the cluster node. Fresh registry and ring; injector and state dir are
// kept across restarts.
func (tc *testCluster) start(tn *testNode) {
	tc.t.Helper()
	tn.reg = obs.NewRegistry()
	tn.ring = NewRecordLog(tc.ringSize)
	stores := tn.stores
	cat, err := catalog.Open(catalog.Options{
		Shards:    tc.shards,
		OpenStore: func(shard int) (catalog.Store, error) { return stores[shard], nil },
		OnRecord:  tn.ring.Append,
		Metrics:   tn.reg,
	})
	if err != nil {
		tc.t.Fatalf("node %d: catalog open: %v", tn.id, err)
	}
	node, err := Open(Options{
		ID:            tn.id,
		Addr:          tn.addr,
		Peers:         tc.peers,
		HTTPAddr:      fmt.Sprintf("http://node-%d.test", tn.id),
		Catalog:       cat,
		Records:       tn.ring,
		Dir:           tn.dir,
		Metrics:       tn.reg,
		Fault:         tn.inj,
		Tick:          testTick,
		Lease:         testLease,
		CommitTimeout: 5 * time.Second,
	})
	if err != nil {
		cat.Close()
		tc.t.Fatalf("node %d: cluster open: %v", tn.id, err)
	}
	tn.cat = cat
	tn.node = node
	tn.down = false
}

// stop kills a node (cluster node first, then the catalog). Idempotent.
func (tc *testCluster) stop(tn *testNode) {
	if tn.down {
		return
	}
	tn.node.Close()
	tn.cat.Close()
	tn.down = true
}

// restart boots a previously stopped node from its retained stores and
// persisted cluster state.
func (tc *testCluster) restart(tn *testNode) {
	tc.t.Helper()
	if !tn.down {
		tc.t.Fatalf("node %d: restart while running", tn.id)
	}
	tc.start(tn)
}

// waitLeader polls until one live node leads and every other live node
// agrees, then returns it.
func (tc *testCluster) waitLeader(timeout time.Duration) *testNode {
	tc.t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		var leader *testNode
		for _, tn := range tc.nodes {
			if !tn.down && tn.node.IsLeader() {
				leader = tn
			}
		}
		if leader != nil {
			agreed := true
			for _, tn := range tc.nodes {
				if tn.down || tn == leader {
					continue
				}
				if tn.node.Status().LeaderID != leader.id {
					agreed = false
					break
				}
			}
			if agreed {
				return leader
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	tc.t.Fatalf("no agreed leader within %s", timeout)
	return nil
}

// waitConverged polls until every live node's catalog fingerprint matches
// the reference node's.
func (tc *testCluster) waitConverged(ref *testNode, timeout time.Duration) {
	tc.t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		want := ref.cat.Fingerprint()
		same := true
		for _, tn := range tc.nodes {
			if tn.down || tn == ref {
				continue
			}
			if !bytes.Equal(tn.cat.Fingerprint(), want) {
				same = false
				break
			}
		}
		if same {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, tn := range tc.nodes {
		if !tn.down {
			st := tn.node.Status()
			tc.t.Logf("node %d: role=%s term=%d fp=%s seqs=%v dirty=%v",
				tn.id, st.Role, st.Term, st.Fingerprint, st.Shards, st.DirtyShards)
		}
	}
	tc.t.Fatalf("catalogs did not converge within %s", timeout)
}

// put creates a policy through tn and waits for the majority ack.
func (tn *testNode) put(ctx context.Context, name string) error {
	var seq uint64
	_, err := tn.cat.Put(ctx, name, testLattice, testCons, catalog.MustNotExist,
		catalog.MutateOptions{SeqOut: &seq})
	if err != nil {
		return err
	}
	return tn.node.Barrier(ctx, tn.cat.ShardOf(name), seq)
}

// ackedPut keeps retrying a put against whatever node currently leads until
// it is acknowledged, tolerating elections in progress. Used by the chaos
// suites, which deliberately destabilize leadership mid-write.
func (tc *testCluster) ackedPut(ctx context.Context, name string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	var last error
	for time.Now().Before(deadline) {
		var leader *testNode
		for _, tn := range tc.nodes {
			if !tn.down && tn.node.IsLeader() {
				leader = tn
				break
			}
		}
		if leader == nil {
			time.Sleep(testTick)
			continue
		}
		err := leader.put(ctx, name)
		if err == nil {
			return nil
		}
		last = err
		if errors.Is(err, catalog.ErrVersionMismatch) || errors.Is(err, catalog.ErrExists) {
			// The put itself landed on an earlier attempt whose ack was
			// interrupted; wait for it to commit via a fresh barrier.
			seq := leader.cat.ShardSeq(leader.cat.ShardOf(name))
			if berr := leader.node.Barrier(ctx, leader.cat.ShardOf(name), seq); berr == nil {
				return nil
			}
		}
		time.Sleep(testTick)
	}
	return fmt.Errorf("put %q never acknowledged: %v", name, last)
}

func TestSingleNodeElectsItself(t *testing.T) {
	ctx := context.Background()
	tc := newTestCluster(t, 1, 2, 0)
	n := tc.nodes[0]
	deadline := time.Now().Add(3 * time.Second)
	for !n.node.IsLeader() {
		if time.Now().After(deadline) {
			t.Fatalf("single node never elected itself")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := n.put(ctx, "solo"); err != nil {
		t.Fatalf("acked put on single-node cluster: %v", err)
	}
	http, err := n.node.WriteGate()
	if err != nil || http != "http://node-0.test" {
		t.Fatalf("WriteGate = (%q, %v), want self", http, err)
	}
	lag, known := n.node.ReplicaLag()
	if lag != 0 || !known {
		t.Fatalf("leader lag = (%d, %v), want (0, true)", lag, known)
	}
}

func TestThreeNodeReplication(t *testing.T) {
	ctx := context.Background()
	tc := newTestCluster(t, 3, 2, 0)
	leader := tc.waitLeader(5 * time.Second)

	for i := 0; i < 8; i++ {
		if err := leader.put(ctx, fmt.Sprintf("pol-%d", i)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	var seq uint64
	if _, err := leader.cat.Append(ctx, "pol-0", "attrs bonus\nbonus >= C\n",
		catalog.Unconditional, catalog.MutateOptions{SeqOut: &seq}); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := leader.node.Barrier(ctx, leader.cat.ShardOf("pol-0"), seq); err != nil {
		t.Fatalf("append barrier: %v", err)
	}
	if err := leader.cat.Delete(ctx, "pol-7", catalog.Unconditional,
		catalog.MutateOptions{SeqOut: &seq}); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if err := leader.node.Barrier(ctx, leader.cat.ShardOf("pol-7"), seq); err != nil {
		t.Fatalf("delete barrier: %v", err)
	}

	tc.waitConverged(leader, 5*time.Second)

	// A follower serves the replicated catalog from its own warmed caches.
	var follower *testNode
	for _, tn := range tc.nodes {
		if tn != leader {
			follower = tn
			break
		}
	}
	if err := follower.cat.Flush(ctx); err != nil {
		t.Fatalf("follower flush: %v", err)
	}
	res, err := follower.cat.Solve(ctx, "pol-0")
	if err != nil {
		t.Fatalf("follower solve: %v", err)
	}
	if !res.CacheHit {
		t.Fatalf("follower solve missed the warmed cache")
	}
	if res.Info.Version != 2 {
		t.Fatalf("follower pol-0 at version %d, want 2", res.Info.Version)
	}
	if follower.cat.Len() != 7 {
		t.Fatalf("follower has %d policies, want 7", follower.cat.Len())
	}

	// Writes on a follower are fenced and redirected at the leader.
	http, err := follower.node.WriteGate()
	if !errors.Is(err, ErrNotLeader) {
		t.Fatalf("follower WriteGate err = %v, want ErrNotLeader", err)
	}
	if http != fmt.Sprintf("http://node-%d.test", leader.id) {
		t.Fatalf("follower WriteGate hint = %q", http)
	}
	if err := follower.node.Barrier(ctx, 0, 1); !errors.Is(err, ErrNotLeader) {
		t.Fatalf("follower Barrier err = %v, want ErrNotLeader", err)
	}

	// Replica lag is known and zero once the stream is drained.
	deadline := time.Now().Add(3 * time.Second)
	for {
		lag, known := follower.node.ReplicaLag()
		if known && lag == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower lag = (%d, %v), want (0, true)", lag, known)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestStatusShape(t *testing.T) {
	ctx := context.Background()
	tc := newTestCluster(t, 3, 2, 0)
	leader := tc.waitLeader(5 * time.Second)
	if err := leader.put(ctx, "status-pol"); err != nil {
		t.Fatalf("put: %v", err)
	}
	tc.waitConverged(leader, 5*time.Second)

	st := leader.node.Status()
	if st.Role != "leader" || st.LeaderID != leader.id {
		t.Fatalf("leader status: role=%s leader_id=%d", st.Role, st.LeaderID)
	}
	if len(st.Shards) != 2 || len(st.Commit) != 2 {
		t.Fatalf("leader status shards=%v commit=%v, want 2 each", st.Shards, st.Commit)
	}
	if len(st.Peers) != 2 {
		t.Fatalf("leader status has %d peers, want 2", len(st.Peers))
	}
	if st.Fingerprint == "" || st.LeaseExpiry.IsZero() {
		t.Fatalf("leader status missing fingerprint or lease expiry")
	}
	deadline := time.Now().Add(3 * time.Second)
	for {
		st = leader.node.Status()
		lagged := false
		for _, p := range st.Peers {
			if !p.Known || p.LagFrames != 0 || !p.Connected {
				lagged = true
			}
		}
		if !lagged {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("peers never drained: %+v", st.Peers)
		}
		time.Sleep(5 * time.Millisecond)
	}

	for _, tn := range tc.nodes {
		if tn == leader {
			continue
		}
		fst := tn.node.Status()
		if fst.Role != "follower" || fst.LeaderID != leader.id {
			t.Fatalf("follower status: role=%s leader_id=%d", fst.Role, fst.LeaderID)
		}
		if fst.Fingerprint != st.Fingerprint {
			t.Fatalf("follower fingerprint %s != leader %s", fst.Fingerprint, st.Fingerprint)
		}
		if fst.LeaderHTTP != fmt.Sprintf("http://node-%d.test", leader.id) {
			t.Fatalf("follower leader_http = %q", fst.LeaderHTTP)
		}
	}
}

// TestLagOneSource: /readyz, GET /cluster and the lag gauges read one
// follower lag and one peer lag, both from the node's own per-shard
// positions. The node here has noted records its catalog does not hold, so
// a reader of the catalog's positions would disagree with the others.
func TestLagOneSource(t *testing.T) {
	cat, err := catalog.Open(catalog.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	reg := obs.NewRegistry()
	ring := NewRecordLog(0)
	for seq := uint64(1); seq <= 3; seq++ {
		ring.Append(catalog.RecordEvent{Shard: 0, Seq: seq, Payload: []byte("rec")})
	}
	p := &peer{id: 1}
	n := &Node{
		cat:           cat,
		opt:           Options{Lease: time.Minute, Metrics: reg, Records: ring},
		role:          RoleFollower,
		ownSeq:        []uint64{3, 1},
		leaderSeqs:    []uint64{5, 4},
		lastHeartbeat: time.Now(),
		peers:         map[int]*peer{1: p},
	}
	n.noteReply(p, &reply{OK: true, Seqs: []uint64{1, 0}}, -1, 0)

	lag, known := n.ReplicaLag()
	st := n.Status()
	if !known || lag != 5 {
		t.Fatalf("ReplicaLag = (%d, %v), want (5, true)", lag, known)
	}
	if st.ReplicaLag != lag || !st.ReplicaLagKnown {
		t.Fatalf("Status lag = (%d, %v), ReplicaLag = (%d, %v)", st.ReplicaLag, st.ReplicaLagKnown, lag, known)
	}
	ps := st.Peers[0]
	g := reg.Snapshot().Gauges
	if ps.LagFrames != 3 || ps.LagBytes != 6 {
		t.Fatalf("peer lag = %d frames, %d bytes, want 3 and 6", ps.LagFrames, ps.LagBytes)
	}
	if g["cluster.peer.1.lag_frames"] != int64(ps.LagFrames) || g["cluster.peer.1.lag_bytes"] != ps.LagBytes {
		t.Fatalf("peer gauges = %d frames, %d bytes, Status = %d, %d",
			g["cluster.peer.1.lag_frames"], g["cluster.peer.1.lag_bytes"], ps.LagFrames, ps.LagBytes)
	}
}

// TestBarrierNoQuorum: a leader that cannot replicate must refuse to ack.
func TestBarrierNoQuorum(t *testing.T) {
	ctx := context.Background()
	tc := newTestCluster(t, 3, 1, 0)
	leader := tc.waitLeader(5 * time.Second)

	// Isolate the leader's outbound traffic, then write: the record lands in
	// the local log but can never reach a majority.
	if err := leader.inj.Rearm("cluster.net.drop:cancel:%1"); err != nil {
		t.Fatalf("rearm: %v", err)
	}
	var seq uint64
	if _, err := leader.cat.Put(ctx, "lost", testLattice, testCons, catalog.MustNotExist,
		catalog.MutateOptions{SeqOut: &seq}); err != nil {
		t.Fatalf("put: %v", err)
	}
	bctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	err := leader.node.Barrier(bctx, leader.cat.ShardOf("lost"), seq)
	if err == nil {
		t.Fatalf("barrier acked without a reachable majority")
	}
	if !errors.Is(err, ErrNoQuorum) && !errors.Is(err, ErrNotLeader) && !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("barrier err = %v, want no-quorum/not-leader/deadline", err)
	}
	if err := leader.inj.Rearm(""); err != nil {
		t.Fatalf("heal: %v", err)
	}
	// After the heal the cluster converges again — including the unacked
	// write, which was locally durable and is allowed to commit late.
	newLeader := tc.waitLeader(5 * time.Second)
	tc.waitConverged(newLeader, 10*time.Second)
}
