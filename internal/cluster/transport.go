package cluster

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"net"
	"sync"
	"time"

	"minup/internal/catalog"
	"minup/internal/fault"
	"minup/internal/wal"
)

// The wire protocol: JSON messages wrapped in the WAL's length+CRC32 frame
// format (wal.SealFrame / wal.ReadFrame) over a persistent TCP
// connection, one synchronous request/reply per frame pair. Replicated
// records travel as the leader's exact WAL payload bytes, so a follower's
// log ends up byte-identical to the leader's. envelope.go writes and reads
// the JSON.

const (
	msgHeartbeat = "heartbeat"
	msgAppend    = "append"
	msgSnapshot  = "snapshot"
	msgVote      = "vote"
)

// message is one request frame.
type message struct {
	Kind string `json:"kind"`
	From int    `json:"from"`
	Term uint64 `json:"term"`
	// Heartbeat: the leader's HTTP address (for redirects), shard count
	// (membership sanity check), and per-shard positions (for follower lag).
	LeaderHTTP string   `json:"leader_http,omitempty"`
	Shards     int      `json:"shards,omitempty"`
	Seqs       []uint64 `json:"seqs,omitempty"`
	// Append/snapshot: the shard, the sequence number the payload carries
	// the shard to, and the payload (one WAL record, or a whole shard
	// snapshot with its checksum).
	Shard   int    `json:"shard,omitempty"`
	Seq     uint64 `json:"seq,omitempty"`
	Payload []byte `json:"payload,omitempty"`
	CRC     uint32 `json:"crc,omitempty"`
	// Vote: the candidate's last-log term (Seqs carries its positions).
	LastLogTerm uint64 `json:"last_log_term,omitempty"`
}

// reply is one response frame.
type reply struct {
	OK   bool   `json:"ok"`
	Term uint64 `json:"term"`
	// Seqs is the responder's per-shard durable position.
	Seqs []uint64 `json:"seqs,omitempty"`
	// NeedSync asks the leader to ship a shard snapshot: the responder has
	// a gap at msg.Shard, or Dirty lists shards whose local tail may
	// diverge from the acknowledged history.
	NeedSync bool   `json:"need_sync,omitempty"`
	Dirty    []int  `json:"dirty,omitempty"`
	Granted  bool   `json:"granted,omitempty"`
	Err      string `json:"err,omitempty"`
}

// errInjected marks a send the fault injector swallowed.
var errInjected = errors.New("cluster: injected network fault")

// rpcClient is one node's persistent connection to one peer. Calls are
// serialized; any error closes the connection so the next call redials.
// The injector hooks live here: "cluster.net.delay" sleeps (delay rules),
// "cluster.net.drop" loses the send, "cluster.net.dup" sends the frame
// twice (the receiver must tolerate duplicates), and "cluster.net.reorder"
// holds the frame back and delivers it after the next one (the receiver
// sees genuinely reordered frames).
type rpcClient struct {
	mu      sync.Mutex
	addr    string
	fault   *fault.Injector
	timeout time.Duration
	conn    net.Conn
	br      *bufio.Reader
	// out and in hold the frame a call writes and the frame it reads,
	// kept between calls (see kept).
	out, in []byte
	stash   []byte // a reorder-deferred frame, sent after the next one; a copy
}

func (c *rpcClient) closeConn() {
	c.mu.Lock()
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
		c.br = nil
	}
	c.mu.Unlock()
}

// call sends one message and reads its reply into rep, whose arrays it
// reuses (reply.read). Nothing rep holds afterwards shares the client's
// buffers, so the caller reads it after the client has moved on.
func (c *rpcClient) call(msg *message, rep *reply) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.fault.Hit("cluster.net.delay") // delay rules sleep inside Hit
	if err := c.fault.Hit("cluster.net.drop"); err != nil {
		c.resetLocked()
		return fmt.Errorf("%w: drop", errInjected)
	}
	out := appendMessage(wal.StartFrame(c.out), msg)
	c.out = kept(out)
	if err := wal.SealFrame(out); err != nil {
		return err
	}
	if err := c.fault.Hit("cluster.net.reorder"); err != nil && c.stash == nil {
		// Hold this frame back; it goes out *after* the next call's frame,
		// arriving out of order (and the caller retries, so the receiver
		// may also see it twice). The next call writes over out.
		c.stash = bytes.Clone(out)
		return fmt.Errorf("%w: reorder (deferred)", errInjected)
	}
	if c.conn == nil {
		conn, err := net.DialTimeout("tcp", c.addr, c.timeout)
		if err != nil {
			return err
		}
		c.conn = conn
		c.br = bufio.NewReader(conn)
	}
	c.conn.SetDeadline(time.Now().Add(c.deadlineFor(*msg)))

	frames := 1
	if _, err := c.conn.Write(out); err != nil {
		c.resetLocked()
		return err
	}
	if c.stash != nil {
		stash := c.stash
		c.stash = nil
		if _, err := c.conn.Write(stash); err != nil {
			c.resetLocked()
			return err
		}
		frames++
	}
	if err := c.fault.Hit("cluster.net.dup"); err != nil {
		if _, err := c.conn.Write(out); err != nil {
			c.resetLocked()
			return err
		}
		frames++
	}
	// The server answers every frame in order; the first reply is ours,
	// the rest (stash, duplicate) are drained and discarded.
	for i := 0; i < frames; i++ {
		payload, err := wal.ReadFrame(c.br, c.in)
		if err != nil {
			c.resetLocked()
			return err
		}
		c.in = kept(payload)
		if i == 0 {
			if err := rep.read(payload); err != nil {
				c.resetLocked()
				return err
			}
		}
	}
	return nil
}

// deadlineFor sizes the RPC deadline to the message. Heartbeats, appends,
// and votes finish within the tick-scaled call timeout, but a snapshot reply
// only arrives after the follower has decoded and rebuilt every policy in
// the shard, which scales with the payload; holding multi-MB transfers to
// the heartbeat deadline would time out and re-ship them forever even
// though every server-side install succeeds.
func (c *rpcClient) deadlineFor(msg message) time.Duration {
	if msg.Kind != msgSnapshot {
		return c.timeout
	}
	// 2s floor plus ~1s per MiB of payload, never below the call timeout.
	d := 2*time.Second + time.Duration(len(msg.Payload)>>20)*time.Second
	if d < c.timeout {
		d = c.timeout
	}
	return d
}

func (c *rpcClient) resetLocked() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
		c.br = nil
	}
}

// ---------------------------------------------------------------------------
// Server side.

func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			return // listener closed
		}
		n.connMu.Lock()
		n.conns[conn] = struct{}{}
		n.connMu.Unlock()
		n.wg.Add(1)
		go n.handleConn(conn)
	}
}

func (n *Node) handleConn(conn net.Conn) {
	defer n.wg.Done()
	defer func() {
		conn.Close()
		n.connMu.Lock()
		delete(n.conns, conn)
		n.connMu.Unlock()
	}()
	br := bufio.NewReader(conn)
	// The connection reads its frames into in and writes its replies from
	// out, both kept between frames (see kept); msg and rep are read and
	// filled in place, keeping their arrays.
	var (
		in, out []byte
		msg     message
		rep     reply
	)
	for {
		payload, err := wal.ReadFrame(br, in)
		if err != nil {
			return
		}
		in = kept(payload)
		if err := n.opt.Fault.Hit("cluster.net.recv.drop"); err != nil {
			// Blackhole: swallow the request without replying. The caller's
			// deadline expires — exactly what a partition looks like.
			n.countMetric("cluster.frames_blackholed")
			continue
		}
		if err := msg.read(payload); err != nil {
			return
		}
		rep = reply{Seqs: rep.Seqs[:0], Dirty: rep.Dirty[:0]}
		n.handleMessage(&msg, &rep)
		// Whoever keeps the payload has it; a shipped snapshot's bytes must
		// not stay alive while the connection waits for its next frame.
		msg.Payload = nil
		out = appendReply(wal.StartFrame(out), &rep)
		if err := wal.SealFrame(out); err != nil {
			return
		}
		conn.SetWriteDeadline(time.Now().Add(n.callTimeout))
		if _, err := conn.Write(out); err != nil {
			return
		}
		out = kept(out)
	}
}

// handleMessage answers one request in rep, a zero reply but for the
// arrays it keeps. It must not hold n.mu across catalog calls (the
// catalog's OnRecord hook takes n.mu under the shard lock, so the lock
// order is always shard → node).
func (n *Node) handleMessage(msg *message, rep *reply) {
	n.countMetric("cluster.frames_recv")
	switch msg.Kind {
	case msgHeartbeat:
		n.handleHeartbeat(msg, rep)
	case msgAppend:
		n.handleAppend(msg, rep)
	case msgSnapshot:
		n.handleSnapshot(msg, rep)
	case msgVote:
		n.handleVote(msg, rep)
	default:
		rep.Err = fmt.Sprintf("unknown message kind %q", msg.Kind)
	}
}

// adoptLeader processes the term/leader claims common to heartbeat, append,
// and snapshot messages. It returns (currentTerm, ok); !ok means the sender
// is stale and must be rejected.
func (n *Node) adoptLeader(msg *message) (uint64, bool) {
	n.mu.Lock()
	if msg.Term < n.term {
		term := n.term
		n.mu.Unlock()
		return term, false
	}
	persistNeeded := msg.Term > n.term
	if msg.Term > n.term || n.role != RoleFollower || n.leaderID != msg.From {
		n.stepDownLocked(msg.Term, msg.From)
	}
	n.leaderID = msg.From
	if msg.LeaderHTTP != "" {
		n.leaderHTTP = msg.LeaderHTTP
	}
	n.lastHeartbeat = time.Now()
	if msg.Kind == msgHeartbeat && msg.Seqs != nil {
		// msg.Seqs is the connection's array, read over by its next frame.
		n.leaderSeqs = append(n.leaderSeqs[:0], msg.Seqs...)
		if n.opt.Metrics != nil {
			lag, _ := n.replicaLagLocked()
			n.opt.Metrics.Gauge("cluster.replica.lag_frames").Set(int64(lag))
		}
	}
	term := n.term
	n.mu.Unlock()
	if persistNeeded {
		n.persist()
	}
	return term, true
}

func (n *Node) handleHeartbeat(msg *message, rep *reply) {
	if msg.Shards != 0 && msg.Shards != n.cat.Shards() {
		rep.Err = fmt.Sprintf("shard count mismatch: leader %d, local %d", msg.Shards, n.cat.Shards())
		return
	}
	var ok bool
	if rep.Term, ok = n.adoptLeader(msg); !ok {
		return
	}
	rep.OK = true
	rep.Seqs = n.cat.AppendShardSeqs(rep.Seqs)
	n.mu.Lock()
	for i, d := range n.dirty {
		if d {
			rep.Dirty = append(rep.Dirty, i)
		}
	}
	n.mu.Unlock()
}

func (n *Node) handleAppend(msg *message, rep *reply) {
	var ok bool
	if rep.Term, ok = n.adoptLeader(msg); !ok {
		return
	}
	if msg.Shard < 0 || msg.Shard >= n.cat.Shards() {
		rep.Err = fmt.Sprintf("no shard %d", msg.Shard)
		return
	}
	rep.OK, rep.NeedSync, rep.Err = n.appendRecord(msg)
	rep.Seqs = n.cat.AppendShardSeqs(rep.Seqs)
}

// appendRecord applies an append message's record to its shard, which
// exists, and says how to answer: whether the shard holds the record now,
// whether the leader must ship a snapshot instead, and an apply error.
func (n *Node) appendRecord(msg *message) (ok, needSync bool, errText string) {
	n.mu.Lock()
	dirty := n.dirty[msg.Shard]
	n.mu.Unlock()
	if dirty {
		return false, true, ""
	}
	local := n.cat.ShardSeq(msg.Shard)
	switch {
	case msg.Seq <= local:
		// Duplicate delivery (retry, dup fault, reorder); already applied.
		n.countMetric("cluster.frames_duplicate")
		return true, false, ""
	case msg.Seq > local+1:
		n.countMetric("cluster.frames_gap")
		return false, true, ""
	case len(msg.Payload) == 0:
		// A position probe for a record this node turns out not to have
		// (its reported seq went stale, e.g. across a restart). Not a gap —
		// just report the real position so the leader resumes real appends.
		return false, false, ""
	}
	if _, err := n.cat.ApplyRecord(msg.Shard, msg.Payload); err != nil {
		if errors.Is(err, catalog.ErrOutOfOrder) {
			return false, true, ""
		}
		return false, false, err.Error()
	}
	n.mu.Lock()
	n.lastLogTerm = msg.Term
	n.mu.Unlock()
	n.countMetric("cluster.frames_applied")
	return true, false, ""
}

func (n *Node) handleSnapshot(msg *message, rep *reply) {
	var ok bool
	if rep.Term, ok = n.adoptLeader(msg); !ok {
		return
	}
	rep.OK, rep.Err = n.installSnapshot(msg)
	rep.Seqs = n.cat.AppendShardSeqs(rep.Seqs)
}

// installSnapshot installs a snapshot message's shard and says how to
// answer: whether it was installed, or why not.
func (n *Node) installSnapshot(msg *message) (ok bool, errText string) {
	if crc32.ChecksumIEEE(msg.Payload) != msg.CRC {
		n.countMetric("cluster.catchup_rejected")
		return false, "snapshot checksum mismatch"
	}
	if err := n.cat.InstallShardSnapshot(msg.Shard, msg.Payload); err != nil {
		n.countMetric("cluster.catchup_rejected")
		return false, err.Error()
	}
	// The install jumped the shard past anything buffered in the record
	// ring; drop the stale tail so the ring never holds a seq gap (get()
	// refuses gapped reads, but a contiguous ring keeps frame replay
	// available if this node is later elected).
	n.opt.Records.reset(msg.Shard)
	n.mu.Lock()
	if msg.Shard >= 0 && msg.Shard < len(n.ownSeq) {
		n.ownSeq[msg.Shard] = msg.Seq
		n.dirty[msg.Shard] = false
	}
	n.lastLogTerm = msg.Term
	n.mu.Unlock()
	n.countMetric("cluster.catchups_installed")
	n.logger.Info("installed shard snapshot", "shard", msg.Shard, "seq", msg.Seq)
	return true, ""
}

// handleVote grants at most one vote per term, refuses candidates while the
// local leader lease is fresh, and refuses candidates whose log is behind:
// lower last-log term, or any shard position behind the voter's. This is
// the rule that keeps acknowledged mutations electable-leader-only.
func (n *Node) handleVote(msg *message, rep *reply) {
	local := n.cat.AppendShardSeqs(nil)
	n.mu.Lock()
	if msg.Term < n.term {
		rep.Term = n.term
		n.mu.Unlock()
		return
	}
	// Lease check against the leadership state *before* adopting the higher
	// term: a fresh lease from a live leader refuses disruptive candidates.
	leaseFresh := n.role == RoleFollower && n.leaderID >= 0 &&
		time.Since(n.lastHeartbeat) <= n.opt.Lease
	prevHeartbeat := n.lastHeartbeat
	persistNeeded := msg.Term > n.term
	if msg.Term > n.term {
		n.stepDownLocked(msg.Term, -1)
	}
	upToDate := msg.LastLogTerm > n.lastLogTerm
	if msg.LastLogTerm == n.lastLogTerm {
		upToDate = true
		for i, s := range local {
			if i >= len(msg.Seqs) || msg.Seqs[i] < s {
				upToDate = false
				break
			}
		}
	}
	grant := (n.votedFor == -1 || n.votedFor == msg.From) && !leaseFresh && upToDate
	if grant {
		n.votedFor = msg.From
		n.lastHeartbeat = time.Now() // give the candidate a full timeout
		persistNeeded = true
	} else {
		// Raft resets election timers only on granted votes: a refused
		// candidate (stale log, inflated term after a partition) must not be
		// able to suppress healthy nodes' own candidacies by spamming votes.
		n.lastHeartbeat = prevHeartbeat
	}
	term := n.term
	n.mu.Unlock()
	if persistNeeded {
		if err := n.persist(); err != nil && grant {
			// The vote must be durable before the reply: a restart would
			// reload the old votedFor and could vote again in this term,
			// electing two leaders. Refuse the grant instead — the in-memory
			// vote stands, so this node still votes for no one else this
			// term, which costs availability but never safety.
			grant = false
		}
	}
	rep.OK, rep.Term, rep.Granted = true, term, grant
	if grant {
		n.countMetric("cluster.votes_granted")
	}
}
