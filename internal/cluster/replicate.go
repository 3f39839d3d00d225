package cluster

import (
	"fmt"
	"hash/crc32"
	"sync"
	"time"

	"minup/internal/catalog"
	"minup/internal/obs"
)

// maxBurst bounds how many frames one syncPeer pass ships before yielding,
// so a deeply lagging peer cannot monopolize the loop.
const maxBurst = 256

// defaultRingSize is the per-shard replication window: a follower that
// trails by more than this many records catches up by snapshot instead.
const defaultRingSize = 1024

// RecordLog is the in-memory tail of each shard's WAL, fed by the
// catalog's OnRecord hook (wire it as catalog.Options.OnRecord =
// log.Append). The leader replays it to followers frame by frame; records
// that have already fallen out of the ring force a snapshot catch-up.
type RecordLog struct {
	mu     sync.Mutex
	size   int
	shards map[int][]ringEntry
	notify func(shard int, seq uint64)
}

type ringEntry struct {
	seq     uint64
	payload []byte
}

// NewRecordLog creates a ring keeping up to size records per shard
// (0 or negative uses the default of 1024).
func NewRecordLog(size int) *RecordLog {
	if size <= 0 {
		size = defaultRingSize
	}
	return &RecordLog{size: size, shards: make(map[int][]ringEntry)}
}

// Append retains one durably appended record. It is called under the
// owning shard's write lock (the OnRecord contract), so it must stay
// cheap; the notify callback runs after the ring's own lock is released.
func (r *RecordLog) Append(ev catalog.RecordEvent) {
	r.mu.Lock()
	entries := append(r.shards[ev.Shard], ringEntry{seq: ev.Seq, payload: ev.Payload})
	if len(entries) > r.size {
		entries = entries[len(entries)-r.size:]
	}
	r.shards[ev.Shard] = entries
	fn := r.notify
	r.mu.Unlock()
	if fn != nil {
		fn(ev.Shard, ev.Seq)
	}
}

// get returns the record at exactly seq on shard, if the ring still holds
// it.
func (r *RecordLog) get(shard int, seq uint64) ([]byte, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	entries := r.shards[shard]
	if len(entries) == 0 {
		return nil, false
	}
	first := entries[0].seq
	if seq < first || seq > entries[len(entries)-1].seq {
		return nil, false
	}
	idx := int(seq - first)
	if idx >= len(entries) {
		// The ring has a gap (e.g. a snapshot install advanced the shard
		// past the buffered tail); the direct index would run off the end.
		return nil, false
	}
	e := entries[idx]
	if e.seq != seq {
		// Sequence numbers are contiguous per shard; a mismatch means the
		// ring has a gap or was fed out of order and must not serve it.
		return nil, false
	}
	return e.payload, true
}

// reset drops every buffered record for shard. Called after a snapshot
// install: the shard's sequence jumped past the buffered tail, and keeping
// the stale entries would leave a gap in the ring.
func (r *RecordLog) reset(shard int) {
	r.mu.Lock()
	delete(r.shards, shard)
	r.mu.Unlock()
}

// pendingBytes sums the payload bytes still in the ring past seq `after`
// on shard — the per-peer replication lag in bytes, exact while the peer
// is inside the ring window.
func (r *RecordLog) pendingBytes(shard int, after uint64) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var total int64
	for _, e := range r.shards[shard] {
		if e.seq > after {
			total += int64(len(e.payload))
		}
	}
	return total
}

func (r *RecordLog) setNotify(fn func(shard int, seq uint64)) {
	r.mu.Lock()
	r.notify = fn
	r.mu.Unlock()
}

// ---------------------------------------------------------------------------
// Per-peer replication.

// peer is the leader's view of one other node. Mutable fields are guarded
// by the owning Node's mu; the client serializes its own calls.
type peer struct {
	id     int
	addr   string
	client *rpcClient
	wake   chan struct{}
	// lagFrames and lagBytes are the cluster.peer.<id>.lag_* gauges,
	// looked up at the peer's first reply.
	lagFrames, lagBytes *obs.Gauge

	// rep and seqs belong to the peer's loop (syncPeer and the sends it
	// makes): the reply each call reads, and the positions a heartbeat
	// reports, both reused.
	rep  reply
	seqs []uint64

	known     bool // a reply has reported the peer's positions
	connected bool
	match     []uint64 // per-shard reported seq on the peer (replication cursor)
	// confirmed is the per-shard position proven by a successful append or
	// snapshot reply in the leader's current term. Only these positions
	// count toward the commit quorum: match comes from the follower's own
	// heartbeat reports, which a dirty/divergent node (a deposed leader's
	// unacknowledged tail) can populate with same-numbered records that
	// differ from the acknowledged history.
	confirmed []uint64
	needSnap  map[int]bool
	lastAck   time.Time
	lastSent  time.Time
}

// confirm records a replication-proven position for one shard. Caller holds
// the owning Node's mu.
func (p *peer) confirm(shards, shard int, seq uint64) {
	if p.confirmed == nil {
		p.confirmed = make([]uint64, shards)
	}
	if shard >= 0 && shard < len(p.confirmed) && seq > p.confirmed[shard] {
		p.confirmed[shard] = seq
	}
}

// unconfirm voids a shard's replication proof (the peer reported it dirty
// or gapped). Caller holds the owning Node's mu.
func (p *peer) unconfirm(shard int) {
	if shard >= 0 && shard < len(p.confirmed) {
		p.confirmed[shard] = 0
	}
}

// peerLoop drives one peer: every tick (or sooner, when a fresh record
// wakes it) it ships whatever the peer is missing — heartbeats when
// nothing, appends from the ring, snapshots past the ring window.
func (n *Node) peerLoop(p *peer) {
	defer n.wg.Done()
	t := time.NewTicker(n.opt.Tick)
	defer t.Stop()
	for {
		select {
		case <-n.stopCh:
			return
		case <-t.C:
		case <-p.wake:
		}
		n.syncPeer(p)
	}
}

// syncPeer performs one bounded replication pass against p.
func (n *Node) syncPeer(p *peer) {
	n.mu.Lock()
	if n.role != RoleLeader {
		n.mu.Unlock()
		return
	}
	term := n.term
	known := p.known
	connected := p.connected
	n.mu.Unlock()

	if !known || !connected {
		// (Re)establish contact and learn the peer's positions before
		// shipping payloads: serializing whole-shard snapshots into a dead
		// connection every tick wastes work and, in chaos runs, burns
		// one-shot fault-point hits on frames nobody ever receives.
		n.sendHeartbeat(p, term)
		return
	}

	sent := 0
	for shard := 0; shard < n.cat.Shards() && sent < maxBurst; shard++ {
		for sent < maxBurst {
			n.mu.Lock()
			if n.role != RoleLeader || n.term != term {
				n.mu.Unlock()
				return
			}
			var match, confirmed uint64
			if shard < len(p.match) {
				match = p.match[shard]
			}
			if shard < len(p.confirmed) {
				confirmed = p.confirmed[shard]
			}
			own := n.ownSeq[shard]
			needSnap := p.needSnap[shard]
			delete(p.needSnap, shard)
			n.mu.Unlock()

			// A peer ahead of the leader carries a divergent tail from a
			// deposed term; a dirty peer asked for a resync outright. Both
			// are overwritten by snapshot.
			if needSnap || match > own {
				if !n.sendSnapshot(p, term, shard) {
					return
				}
				sent++
				continue
			}
			if match >= own {
				// Fully caught up. If nothing has been appended this term the
				// peer's position is only heartbeat-reported, which the commit
				// quorum must not trust; probe with an empty append so a clean
				// peer confirms it (a dirty one answers NeedSync instead) and
				// previous-term records can commit — Raft's current-term
				// commit rule, with the probe standing in for the no-op entry.
				if match > confirmed {
					if !n.sendAppend(p, term, shard, match, nil) {
						return
					}
					sent++
				}
				break
			}
			payload, ok := n.opt.Records.get(shard, match+1)
			if !ok {
				// Fell out of the ring window: snapshot catch-up.
				if !n.sendSnapshot(p, term, shard) {
					return
				}
				sent++
				continue
			}
			if !n.sendAppend(p, term, shard, match+1, payload) {
				return
			}
			sent++
		}
	}
	if sent == 0 {
		n.mu.Lock()
		due := time.Since(p.lastSent) >= n.opt.Tick
		n.mu.Unlock()
		if due {
			n.sendHeartbeat(p, term)
		}
	}
}

// markSent stamps the last transmission attempt.
func (n *Node) markSent(p *peer) {
	n.mu.Lock()
	p.lastSent = time.Now()
	n.mu.Unlock()
}

// noteReply folds one successful reply into the peer's state: liveness,
// positions (the follower's own reports, used only as the replication
// cursor), dirty-shard requests, and the commit index. confirmShard/
// confirmSeq, when confirmShard >= 0, record a position proven by a
// successful append or snapshot in the current term — the only positions
// the commit quorum counts.
func (n *Node) noteReply(p *peer, rep *reply, confirmShard int, confirmSeq uint64) {
	n.mu.Lock()
	p.lastAck = time.Now()
	p.connected = true
	if rep.Seqs != nil {
		p.known = true
		p.match = append(p.match[:0], rep.Seqs...)
	}
	if confirmShard >= 0 {
		p.confirm(n.cat.Shards(), confirmShard, confirmSeq)
	}
	for _, shard := range rep.Dirty {
		if p.needSnap == nil {
			p.needSnap = make(map[int]bool)
		}
		p.needSnap[shard] = true
		p.unconfirm(shard)
	}
	if n.role == RoleLeader {
		n.recomputeCommitLocked(-1)
	}
	if m := n.opt.Metrics; m != nil {
		if p.lagFrames == nil {
			p.lagFrames = m.Gauge(fmt.Sprintf("cluster.peer.%d.lag_frames", p.id))
			p.lagBytes = m.Gauge(fmt.Sprintf("cluster.peer.%d.lag_bytes", p.id))
		}
		lagFrames, lagBytes := n.peerLagLocked(p)
		p.lagFrames.Set(int64(lagFrames))
		p.lagBytes.Set(lagBytes)
	}
	n.mu.Unlock()
}

// markDisconnected records a failed call.
func (n *Node) markDisconnected(p *peer) {
	n.mu.Lock()
	p.connected = false
	n.mu.Unlock()
}

// sendHeartbeat announces leadership and learns the peer's positions.
func (n *Node) sendHeartbeat(p *peer, term uint64) bool {
	n.markSent(p)
	p.seqs = n.cat.AppendShardSeqs(p.seqs[:0])
	msg := message{
		Kind: msgHeartbeat, From: n.opt.ID, Term: term,
		LeaderHTTP: n.opt.HTTPAddr, Shards: n.cat.Shards(), Seqs: p.seqs,
	}
	rep := &p.rep
	if err := p.client.call(&msg, rep); err != nil {
		n.markDisconnected(p)
		return false
	}
	n.countMetric("cluster.heartbeats_sent")
	if rep.Term > term {
		n.observeTerm(rep.Term)
		return false
	}
	n.noteReply(p, rep, -1, 0)
	return rep.OK
}

// sendAppend ships one WAL record frame (or, with an empty payload, probes
// a position the peer already reports, to confirm it for the commit
// quorum). A successful apply — or a clean duplicate acknowledgement —
// confirms the peer at seq for this term.
func (n *Node) sendAppend(p *peer, term uint64, shard int, seq uint64, payload []byte) bool {
	n.markSent(p)
	msg := message{
		Kind: msgAppend, From: n.opt.ID, Term: term, LeaderHTTP: n.opt.HTTPAddr,
		Shard: shard, Seq: seq, Payload: payload,
	}
	rep := &p.rep
	if err := p.client.call(&msg, rep); err != nil {
		n.markDisconnected(p)
		return false
	}
	n.countMetric("cluster.appends_sent")
	if rep.Term > term {
		n.observeTerm(rep.Term)
		return false
	}
	confirmShard := -1
	if rep.OK && !rep.NeedSync {
		confirmShard = shard
	}
	n.noteReply(p, rep, confirmShard, seq)
	if rep.NeedSync {
		n.mu.Lock()
		p.unconfirm(shard)
		n.mu.Unlock()
		return n.sendSnapshot(p, term, shard)
	}
	return rep.OK
}

// sendSnapshot ships one whole-shard snapshot (the catalog-<i>.snap bytes
// plus the seq it covers). The "cluster.snap.corrupt" and
// "cluster.snap.truncate" fault points mangle the payload after the
// checksum is taken, so the follower detects and rejects the damage and
// the next pass retries with clean bytes.
func (n *Node) sendSnapshot(p *peer, term uint64, shard int) bool {
	data, seq, err := n.cat.ShardSnapshot(shard)
	if err != nil {
		return false
	}
	sum := crc32.ChecksumIEEE(data)
	payload := data
	if n.opt.Fault.Hit("cluster.snap.corrupt") != nil {
		payload = append([]byte(nil), data...)
		payload[len(payload)/2] ^= 0xFF
	}
	if n.opt.Fault.Hit("cluster.snap.truncate") != nil {
		payload = payload[:len(payload)/2]
	}
	n.markSent(p)
	msg := message{
		Kind: msgSnapshot, From: n.opt.ID, Term: term, LeaderHTTP: n.opt.HTTPAddr,
		Shard: shard, Seq: seq, Payload: payload, CRC: sum,
	}
	rep := &p.rep
	if err := p.client.call(&msg, rep); err != nil {
		n.markDisconnected(p)
		return false
	}
	n.countMetric("cluster.catchups_sent")
	if rep.Term > term {
		n.observeTerm(rep.Term)
		return false
	}
	confirmShard := -1
	if rep.OK {
		// An installed snapshot is the leader's own state verbatim: it
		// confirms the shard at the seq it covers.
		confirmShard = shard
	}
	n.noteReply(p, rep, confirmShard, seq)
	if !rep.OK {
		n.countMetric("cluster.catchup_retries")
		return false
	}
	return true
}
