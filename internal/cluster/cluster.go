// Package cluster replicates the policy catalog across a set of nodes: a
// term- and lease-based leader accepts mutations and streams each shard's
// WAL records — framed exactly as they sit on disk (internal/wal's
// length+CRC32 format) — to its followers over loopback TCP, acknowledging
// a mutation only once a majority of replicas have durably appended it.
// Followers apply the frames through the catalog's follower-apply surface
// (catalog.ApplyRecord), which feeds the existing refresh pipeline, so a
// replica serves the same memoized solve/read path as the leader. New or
// lagging followers catch up from a shipped shard snapshot (the same bytes
// as catalog-<i>.snap) plus the tail frames.
//
// # Leadership
//
// Leadership is CovenantSQL-blockproducer-shaped: one leader per term,
// kept alive by heartbeats every tick and a lease. A follower that hears
// nothing for its election timeout (lease plus a deterministic per-node
// jitter) campaigns with term+1; a voter grants at most one vote per term,
// refuses candidates while its own leader lease is still fresh, and
// refuses candidates whose log is behind its own (last-log term, then
// per-shard sequence numbers). A leader that cannot reach a majority of
// peers within its lease steps down rather than serve stale
// acknowledgements. Term, vote, and last-log term are persisted
// (cluster.state.json) so restarts cannot double-vote.
//
// A deposed or restarted leader may carry an unacknowledged log tail that
// the new leader never saw. Such a node marks every shard dirty: it
// answers replication with "need sync" until the leader ships a full shard
// snapshot, which overwrites the divergent tail. Acknowledged mutations
// are never lost this way: they reached a majority, and the election
// up-to-date rule means any electable leader holds them.
//
// # Fault points
//
// The transport consults the injector at "cluster.net.delay",
// "cluster.net.drop", "cluster.net.dup", and "cluster.net.reorder" on the
// send path, "cluster.net.recv.drop" on the receive path (a silent
// blackhole, the building block of partitions), and "cluster.snap.corrupt"
// / "cluster.snap.truncate" on shipped snapshots. The partition chaos
// suite drives all of them.
package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"minup/internal/catalog"
	"minup/internal/fault"
	"minup/internal/obs"
	"minup/internal/wal"
)

// Typed errors the HTTP layer maps onto the write path.
var (
	// ErrNotLeader reports a mutation sent to a follower; the caller should
	// redirect to the leader named alongside it.
	ErrNotLeader = errors.New("cluster: not the leader")
	// ErrNoLeader reports that no leader is known (an election is in
	// progress, or the node is partitioned from the leader).
	ErrNoLeader = errors.New("cluster: no leader")
	// ErrNoQuorum reports a mutation that was durably appended on the
	// leader but not acknowledged by a majority within the commit timeout.
	// The mutation is locally durable and will replicate when the
	// partition heals; it must not yet be treated as committed.
	ErrNoQuorum = errors.New("cluster: no quorum of acknowledgements")
	// ErrClosed reports an operation on a closed node.
	ErrClosed = errors.New("cluster: node closed")
)

// Role is a node's position in the current term.
type Role int32

const (
	RoleFollower Role = iota
	RoleCandidate
	RoleLeader
)

func (r Role) String() string {
	switch r {
	case RoleLeader:
		return "leader"
	case RoleCandidate:
		return "candidate"
	default:
		return "follower"
	}
}

// Options configures a Node.
type Options struct {
	// ID is this node's unique id; Addr the loopback TCP address its
	// replication listener binds ("127.0.0.1:0" picks a port).
	ID   int
	Addr string
	// Peers maps every other node's id to its replication address.
	Peers map[int]string
	// HTTPAddr is the externally usable base URL of this node's HTTP API
	// (e.g. "http://127.0.0.1:8080"); the leader advertises it in
	// heartbeats so followers can answer mutations with a 307 redirect.
	HTTPAddr string
	// Catalog is the local replica this node serves and replicates.
	Catalog *catalog.Catalog
	// Records is the ring the catalog's OnRecord hook feeds; it must be
	// the same RecordLog wired into the catalog's Options, or the node can
	// only catch followers up by snapshot.
	Records *RecordLog
	// Dir, when non-empty, persists term/vote state in cluster.state.json
	// so a restart cannot vote twice in one term. Empty keeps it in
	// memory (tests).
	Dir     string
	Metrics *obs.Registry
	Logger  *slog.Logger
	Fault   *fault.Injector
	// Tick is the heartbeat/replication cadence (default 50ms); Lease the
	// leader lease (default 8 ticks); CommitTimeout bounds the majority-
	// ack wait on the write path (default 2s). One peer RPC is bounded by
	// 4 ticks, at least 100ms.
	Tick          time.Duration
	Lease         time.Duration
	CommitTimeout time.Duration
}

// stateFile is the persisted election state.
type stateFile struct {
	Term        uint64 `json:"term"`
	VotedFor    int    `json:"voted_for"`
	LastLogTerm uint64 `json:"last_log_term"`
	// WasLeader marks a node that went down while leading: its log tail
	// may be ahead of the acknowledged history, so every shard starts
	// dirty and resyncs by snapshot.
	WasLeader bool `json:"was_leader"`
}

// commitWaiter parks one Barrier call until its record is majority-acked.
// Waiters are reused through Node.freeWaiters: one on that list is in no
// Barrier and not in Node.waiters, its channel is empty, and its timer is
// stopped (Go 1.23 timers deliver no stale tick after Stop or Reset).
type commitWaiter struct {
	shard int
	seq   uint64
	ch    chan error // buffered; the single send happens under Node.mu
	timer *time.Timer
}

// Node is one cluster member. Construct with Open; all methods are safe
// for concurrent use.
type Node struct {
	opt    Options
	cat    *catalog.Catalog
	logger *slog.Logger
	ln     net.Listener
	// callTimeout bounds one peer RPC and one reply write: 4 ticks, at
	// least 100ms.
	callTimeout time.Duration

	mu            sync.Mutex
	role          Role
	term          uint64
	votedFor      int
	lastLogTerm   uint64
	persistedLLT  uint64
	leaderID      int
	leaderHTTP    string
	lastHeartbeat time.Time
	leaseUntil    time.Time
	ownSeq        []uint64 // per-shard last durable seq, mirrored from the catalog
	leaderSeqs    []uint64 // follower: leader's seqs from the last heartbeat
	dirty         []bool   // per-shard: log may diverge, resync by snapshot
	commit        []uint64 // leader: per-shard majority-replicated seq
	peers         map[int]*peer
	waiters       []*commitWaiter
	freeWaiters   []*commitWaiter
	elections     uint64

	connMu sync.Mutex
	conns  map[net.Conn]struct{}

	stopCh chan struct{}
	wg     sync.WaitGroup
	closed atomic.Bool
}

// Open starts a node: binds the replication listener, loads persisted
// election state, and launches the tick, accept, and per-peer replication
// loops. The node starts as a follower; with no peers it elects itself
// after one election timeout.
func Open(opt Options) (*Node, error) {
	if opt.Catalog == nil {
		return nil, fmt.Errorf("cluster: Options.Catalog is required")
	}
	if opt.Tick <= 0 {
		opt.Tick = 50 * time.Millisecond
	}
	if opt.Lease <= 0 {
		opt.Lease = 8 * opt.Tick
	}
	if opt.CommitTimeout <= 0 {
		opt.CommitTimeout = 2 * time.Second
	}
	if opt.Logger == nil {
		opt.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if opt.Records == nil {
		opt.Records = NewRecordLog(0)
	}
	n := &Node{
		opt:         opt,
		cat:         opt.Catalog,
		logger:      opt.Logger.With("component", "cluster", "node", opt.ID),
		callTimeout: max(4*opt.Tick, 100*time.Millisecond),
		votedFor:    -1,
		leaderID:    -1,
		ownSeq:      opt.Catalog.AppendShardSeqs(nil),
		dirty:       make([]bool, opt.Catalog.Shards()),
		commit:      make([]uint64, opt.Catalog.Shards()),
		peers:       make(map[int]*peer),
		conns:       make(map[net.Conn]struct{}),
		stopCh:      make(chan struct{}),
	}
	if err := n.loadState(); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", opt.Addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: listen %s: %w", opt.Addr, err)
	}
	n.ln = ln
	n.lastHeartbeat = time.Now()
	for id, addr := range opt.Peers {
		if id == opt.ID {
			continue
		}
		n.peers[id] = &peer{
			id:     id,
			addr:   addr,
			wake:   make(chan struct{}, 1),
			client: &rpcClient{addr: addr, fault: opt.Fault, timeout: n.callTimeout},
		}
	}
	opt.Records.setNotify(n.noteAppend)
	n.setRoleGauges()

	n.wg.Add(2)
	go n.acceptLoop()
	go n.run()
	for _, p := range n.peers {
		n.wg.Add(1)
		go n.peerLoop(p)
	}
	n.logger.Info("cluster node started", "addr", ln.Addr().String(), "peers", len(n.peers))
	return n, nil
}

// Addr returns the replication listener's bound address.
func (n *Node) Addr() string { return n.ln.Addr().String() }

// Close stops the node: listener, peer loops, and open connections. Safe to
// call twice. Pending Barrier waiters fail with ErrNotLeader.
func (n *Node) Close() error {
	if !n.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(n.stopCh)
	n.ln.Close()
	n.connMu.Lock()
	for c := range n.conns {
		c.Close()
	}
	n.connMu.Unlock()
	n.mu.Lock()
	n.failWaitersLocked(ErrClosed)
	for _, p := range n.peers {
		p.client.closeConn()
	}
	n.mu.Unlock()
	n.wg.Wait()
	n.persist()
	return nil
}

// quorum is the majority size over the full membership (peers + self).
func (n *Node) quorum() int { return (len(n.peers)+1)/2 + 1 }

// electionTimeout staggers candidacies deterministically by node id so
// chaos runs reproduce: base lease plus 0–4 ticks of jitter.
func (n *Node) electionTimeout() time.Duration {
	return n.opt.Lease + time.Duration((n.opt.ID*3)%5)*n.opt.Tick
}

// ---------------------------------------------------------------------------
// State persistence.

func (n *Node) statePath() string { return filepath.Join(n.opt.Dir, "cluster.state.json") }

func (n *Node) loadState() error {
	if n.opt.Dir == "" {
		return nil
	}
	data, err := os.ReadFile(n.statePath())
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("cluster: reading state: %w", err)
	}
	var st stateFile
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("cluster: decoding state %s: %w", n.statePath(), err)
	}
	n.term = st.Term
	n.votedFor = st.VotedFor
	n.lastLogTerm = st.LastLogTerm
	n.persistedLLT = st.LastLogTerm
	if st.WasLeader {
		for i := range n.dirty {
			n.dirty[i] = true
		}
	}
	return nil
}

// persist writes the election state durably and reports failure. Callers
// on the voting path must check the error: a vote or self-vote that is not
// durable before it is used can be re-cast after a restart, electing two
// leaders in one term. Callers persisting only bookkeeping (last-log term,
// shutdown) may log and carry on.
func (n *Node) persist() error {
	if n.opt.Dir == "" {
		return nil
	}
	n.mu.Lock()
	st := stateFile{
		Term:        n.term,
		VotedFor:    n.votedFor,
		LastLogTerm: n.lastLogTerm,
		WasLeader:   n.role == RoleLeader,
	}
	n.persistedLLT = n.lastLogTerm
	n.mu.Unlock()
	data, err := json.Marshal(st)
	if err == nil {
		err = wal.WriteAtomic(n.statePath(), append(data, '\n'), true)
	}
	if err != nil {
		n.logger.Warn("cluster state persist failed", "err", err)
		n.countMetric("cluster.persist_failures")
	}
	return err
}

// ---------------------------------------------------------------------------
// The tick loop: election timeouts for followers, lease upkeep for leaders.

func (n *Node) run() {
	defer n.wg.Done()
	t := time.NewTicker(n.opt.Tick)
	defer t.Stop()
	for {
		select {
		case <-n.stopCh:
			return
		case <-t.C:
		}
		var campaign, persistLLT bool
		n.mu.Lock()
		switch n.role {
		case RoleFollower:
			campaign = time.Since(n.lastHeartbeat) > n.electionTimeout()
		case RoleLeader:
			alive := 1
			now := time.Now()
			for _, p := range n.peers {
				if now.Sub(p.lastAck) <= n.opt.Lease {
					alive++
				}
			}
			if alive < n.quorum() {
				n.logger.Warn("leader lost quorum, stepping down", "term", n.term, "alive", alive)
				n.stepDownLocked(n.term, -1)
			} else {
				n.leaseUntil = now.Add(n.opt.Lease)
			}
		}
		persistLLT = n.lastLogTerm != n.persistedLLT
		n.mu.Unlock()
		if persistLLT {
			n.persist()
		}
		if campaign {
			n.campaign()
		}
	}
}

// campaign runs one candidacy: bump the term, vote for self, solicit votes
// from every peer in parallel, and either take leadership on a majority or
// fall back to follower and wait out another timeout.
func (n *Node) campaign() {
	seqs := n.cat.AppendShardSeqs(nil)
	n.mu.Lock()
	if n.role == RoleLeader || n.closed.Load() {
		n.mu.Unlock()
		return
	}
	n.role = RoleCandidate
	n.term++
	n.votedFor = n.opt.ID
	n.leaderID = -1
	n.leaderHTTP = ""
	n.elections++
	term := n.term
	llt := n.lastLogTerm
	n.setRoleGauges()
	n.mu.Unlock()
	if err := n.persist(); err != nil {
		// The self-vote is not durable: soliciting votes now could let a
		// restart re-vote in this term. Abort the candidacy and retry after
		// another timeout.
		n.mu.Lock()
		if n.term == term && n.role == RoleCandidate {
			n.role = RoleFollower
			n.lastHeartbeat = time.Now()
			n.setRoleGauges()
		}
		n.mu.Unlock()
		return
	}
	n.countMetric("cluster.elections")
	n.logger.Info("campaigning", "term", term)

	msg := message{Kind: msgVote, From: n.opt.ID, Term: term, LastLogTerm: llt, Seqs: seqs}
	votes := int32(1)
	var wg sync.WaitGroup
	for _, p := range n.peers {
		wg.Add(1)
		go func(p *peer) {
			defer wg.Done()
			var rep reply
			if err := p.client.call(&msg, &rep); err != nil {
				return
			}
			if rep.Term > term {
				n.observeTerm(rep.Term)
				return
			}
			if rep.Granted {
				atomic.AddInt32(&votes, 1)
			}
		}(p)
	}
	wg.Wait()

	n.mu.Lock()
	if n.term != term || n.role != RoleCandidate {
		n.mu.Unlock()
		return // superseded while collecting votes
	}
	won := int(atomic.LoadInt32(&votes)) >= n.quorum()
	if won {
		n.becomeLeaderLocked()
	} else {
		n.role = RoleFollower
		n.lastHeartbeat = time.Now() // back off a full timeout before retrying
		n.setRoleGauges()
	}
	n.mu.Unlock()
	if won {
		// Record WasLeader immediately: a crash before the next lazy persist
		// must still restart with every shard dirty.
		n.persist()
	}
}

// becomeLeaderLocked installs this node as leader of the current term.
// Caller holds n.mu.
func (n *Node) becomeLeaderLocked() {
	n.role = RoleLeader
	n.leaderID = n.opt.ID
	n.leaderHTTP = n.opt.HTTPAddr
	n.leaseUntil = time.Now().Add(n.opt.Lease)
	// The leader's log is canonical by definition of the election.
	for i := range n.dirty {
		n.dirty[i] = false
	}
	now := time.Now()
	for _, p := range n.peers {
		p.known = false
		// Replication proofs are per-term: nothing counts toward this term's
		// commit quorum until it is re-confirmed by an append or snapshot.
		p.confirmed = nil
		p.needSnap = nil
		p.lastAck = now // grace period before the lease check counts them dead
		select {
		case p.wake <- struct{}{}:
		default:
		}
	}
	n.recomputeCommitLocked(-1)
	n.setRoleGauges()
	n.countMetric("cluster.elections_won")
	n.logger.Info("became leader", "term", n.term)
}

// stepDownLocked demotes a leader/candidate to follower. A deposed leader
// marks every shard dirty — its tail may contain mutations the next leader
// never acknowledged — and fails pending commit waiters. Caller holds n.mu.
func (n *Node) stepDownLocked(term uint64, leaderID int) {
	if n.role == RoleLeader {
		for i := range n.dirty {
			n.dirty[i] = true
		}
		n.countMetric("cluster.stepdowns")
	}
	n.failWaitersLocked(ErrNotLeader)
	n.role = RoleFollower
	if term > n.term {
		n.term = term
		n.votedFor = -1
	}
	n.leaderID = leaderID
	n.leaderHTTP = ""
	n.lastHeartbeat = time.Now()
	n.setRoleGauges()
}

// observeTerm adopts a higher term seen in any reply.
func (n *Node) observeTerm(term uint64) {
	n.mu.Lock()
	changed := term > n.term
	if changed {
		n.stepDownLocked(term, -1)
	}
	n.mu.Unlock()
	if changed {
		n.persist()
	}
}

// noteAppend mirrors one durably appended record into the node's cached
// per-shard position. It is called from the catalog's OnRecord hook via the
// RecordLog — under the owning shard's write lock — so it must only touch
// node state, never call back into the catalog.
func (n *Node) noteAppend(shard int, seq uint64) {
	n.mu.Lock()
	if shard >= 0 && shard < len(n.ownSeq) {
		n.ownSeq[shard] = seq
	}
	n.lastLogTerm = n.term
	if n.role == RoleLeader {
		n.recomputeCommitLocked(shard)
		for _, p := range n.peers {
			select {
			case p.wake <- struct{}{}:
			default:
			}
		}
	}
	n.mu.Unlock()
}

// failWaitersLocked errors out every pending Barrier. Caller holds n.mu.
func (n *Node) failWaitersLocked(err error) {
	for _, w := range n.waiters {
		w.ch <- err
	}
	n.waiters = nil
}

// recomputeCommitLocked refreshes the majority-replicated sequence number
// for one shard (or all, shard < 0) and releases satisfied waiters. Only
// positions confirmed by a successful append or snapshot in the current
// term count (Raft's current-term commit rule): a follower's self-reported
// seqs may cover a divergent deposed-term tail, and a shard awaiting a
// snapshot resync counts as empty. The commit index never regresses.
// Caller holds n.mu.
func (n *Node) recomputeCommitLocked(shard int) {
	recompute := func(s int) {
		// Membership is a handful of nodes: the scratch array holds them all.
		var scratch [8]uint64
		vals := append(scratch[:0], n.ownSeq[s])
		for _, p := range n.peers {
			if p.known && s < len(p.confirmed) && !p.needSnap[s] {
				vals = append(vals, p.confirmed[s])
			} else {
				vals = append(vals, 0)
			}
		}
		// quorum-th highest value: sort descending by simple selection
		// (membership is small).
		for i := 0; i < len(vals); i++ {
			for j := i + 1; j < len(vals); j++ {
				if vals[j] > vals[i] {
					vals[i], vals[j] = vals[j], vals[i]
				}
			}
		}
		if v := vals[n.quorum()-1]; v > n.commit[s] {
			n.commit[s] = v
		}
	}
	if shard >= 0 {
		recompute(shard)
	} else {
		for s := range n.commit {
			recompute(s)
		}
	}
	kept := n.waiters[:0]
	for _, w := range n.waiters {
		if n.commit[w.shard] >= w.seq {
			w.ch <- nil
		} else {
			kept = append(kept, w)
		}
	}
	n.waiters = kept
}

// ---------------------------------------------------------------------------
// Write-path surface for the HTTP layer.

// WriteGate checks whether this node may accept a mutation. A leader
// returns (".."==self HTTP, nil); a follower with a fresh leader lease
// returns the leader's HTTP address and ErrNotLeader (redirect); otherwise
// ErrNoLeader (election window or partition).
func (n *Node) WriteGate() (leaderHTTP string, err error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	switch {
	case n.role == RoleLeader:
		return n.opt.HTTPAddr, nil
	case n.leaderID >= 0 && n.leaderHTTP != "" && time.Since(n.lastHeartbeat) <= n.opt.Lease:
		return n.leaderHTTP, ErrNotLeader
	default:
		return "", ErrNoLeader
	}
}

// Barrier blocks until the record (shard, seq) is replicated on a majority,
// the commit timeout elapses (ErrNoQuorum), the node loses leadership
// (ErrNotLeader), or ctx is done. A mutation is acknowledged to the client
// only after its Barrier returns nil.
func (n *Node) Barrier(ctx context.Context, shard int, seq uint64) error {
	n.mu.Lock()
	if n.role != RoleLeader {
		// The mutation slipped in around a deposition: its record is in the
		// local log but this node can no longer commit it. Mark the shard
		// dirty so the new leader overwrites the tail by snapshot.
		if shard >= 0 && shard < len(n.dirty) {
			n.dirty[shard] = true
		}
		n.mu.Unlock()
		return ErrNotLeader
	}
	if shard < 0 || shard >= len(n.commit) {
		n.mu.Unlock()
		return fmt.Errorf("cluster: barrier: no shard %d", shard)
	}
	if n.commit[shard] >= seq {
		n.mu.Unlock()
		n.countMetric("cluster.acks")
		return nil
	}
	var w *commitWaiter
	if k := len(n.freeWaiters); k > 0 {
		w = n.freeWaiters[k-1]
		n.freeWaiters = n.freeWaiters[:k-1]
		w.timer.Reset(n.opt.CommitTimeout)
	} else {
		w = &commitWaiter{ch: make(chan error, 1), timer: time.NewTimer(n.opt.CommitTimeout)}
	}
	w.shard, w.seq = shard, seq
	n.waiters = append(n.waiters, w)
	n.mu.Unlock()

	select {
	case err := <-w.ch:
		// Whoever sent took w out of n.waiters under n.mu.
		w.timer.Stop()
		n.mu.Lock()
		n.freeWaiters = append(n.freeWaiters, w)
		n.mu.Unlock()
		if err == nil {
			n.countMetric("cluster.acks")
		}
		return err
	case <-ctx.Done():
		w.timer.Stop()
		n.dropWaiter(w)
		return ctx.Err()
	case <-w.timer.C:
		n.dropWaiter(w)
		n.countMetric("cluster.ack_timeouts")
		return fmt.Errorf("%w: shard %d seq %d after %s", ErrNoQuorum, shard, seq, n.opt.CommitTimeout)
	case <-n.stopCh:
		// A closing node may still send to w: it is not reused.
		w.timer.Stop()
		return ErrClosed
	}
}

// dropWaiter takes a waiter whose Barrier gave up out of n.waiters, drains
// the result a commit or a step-down may have sent it meanwhile, and puts
// it on the free list.
func (n *Node) dropWaiter(w *commitWaiter) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if i := slices.Index(n.waiters, w); i >= 0 {
		n.waiters = slices.Delete(n.waiters, i, i+1)
	} else {
		<-w.ch
	}
	n.freeWaiters = append(n.freeWaiters, w)
}

// IsLeader reports whether this node currently leads.
func (n *Node) IsLeader() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.role == RoleLeader
}

// ReplicaLag returns how many frames this follower trails the leader,
// summed across shards, and whether the figure is known (a follower that
// has never heard a heartbeat cannot judge its own staleness; a leader is
// never lagging).
func (n *Node) ReplicaLag() (frames uint64, known bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.replicaLagLocked()
}

// replicaLagLocked is ReplicaLag, computed from the leader's last
// heartbeat and this node's own per-shard positions. The /readyz check,
// the cluster.replica.lag_frames gauge and GET /cluster all read it.
// Caller holds n.mu.
func (n *Node) replicaLagLocked() (frames uint64, known bool) {
	if n.role == RoleLeader {
		return 0, true
	}
	if n.leaderSeqs == nil || time.Since(n.lastHeartbeat) > 2*n.opt.Lease {
		return 0, false
	}
	for i, ls := range n.leaderSeqs {
		if i < len(n.ownSeq) && ls > n.ownSeq[i] {
			frames += ls - n.ownSeq[i]
		}
	}
	return frames, true
}

// peerLagLocked is how far peer p trails this node: frames summed over
// shards, and the bytes of those frames still in the record ring. The
// cluster.peer.<id>.lag_* gauges and GET /cluster both read it. Caller
// holds n.mu.
func (n *Node) peerLagLocked(p *peer) (frames uint64, bytes int64) {
	for s, own := range n.ownSeq {
		var match uint64
		if s < len(p.match) {
			match = p.match[s]
		}
		if own > match {
			frames += own - match
			bytes += n.opt.Records.pendingBytes(s, match)
		}
	}
	return frames, bytes
}

// ---------------------------------------------------------------------------
// Metrics helpers.

func (n *Node) countMetric(name string) {
	if n.opt.Metrics != nil {
		n.opt.Metrics.Counter(name).Inc()
	}
}

// setRoleGauges refreshes the role/term/leader gauges; caller holds n.mu.
func (n *Node) setRoleGauges() {
	if n.opt.Metrics == nil {
		return
	}
	n.opt.Metrics.Gauge("cluster.term").Set(int64(n.term))
	n.opt.Metrics.Gauge("cluster.role").Set(int64(n.role))
	n.opt.Metrics.Gauge("cluster.leader").Set(int64(n.leaderID))
}
