package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"sort"
	"time"
)

// Status is the GET /cluster payload: this node's view of the cluster.
type Status struct {
	ID         int    `json:"id"`
	Role       string `json:"role"`
	Term       uint64 `json:"term"`
	LeaderID   int    `json:"leader_id"`
	LeaderHTTP string `json:"leader_http,omitempty"`
	// LeaseExpiry: for a leader, when its quorum lease runs out unless
	// renewed; for a follower, when the current leader's claim goes stale.
	LeaseExpiry time.Time `json:"lease_expiry"`
	// Shards is the local last-applied sequence number per shard; Commit
	// the majority-replicated sequence per shard (leader view).
	Shards []uint64 `json:"shards"`
	Commit []uint64 `json:"commit,omitempty"`
	// ReplicaLag is the follower's total frame lag behind the leader
	// (unknown when no heartbeat has been heard); dirty shards await a
	// snapshot resync.
	ReplicaLag      uint64 `json:"replica_lag_frames"`
	ReplicaLagKnown bool   `json:"replica_lag_known"`
	DirtyShards     []int  `json:"dirty_shards,omitempty"`
	Elections       uint64 `json:"elections"`
	// Fingerprint is a short SHA-256 of the catalog's deterministic state
	// serialization — equal fingerprints mean converged replicas.
	Fingerprint string       `json:"fingerprint"`
	Peers       []PeerStatus `json:"peers,omitempty"`
}

// PeerStatus is the leader's replication view of one peer.
type PeerStatus struct {
	ID        int    `json:"id"`
	Addr      string `json:"addr"`
	Connected bool   `json:"connected"`
	// Known reports that the peer has answered at least once this term;
	// MatchSeqs is its per-shard self-reported position, ConfirmedSeqs the
	// per-shard position proven by append/snapshot replication this term
	// (only these count toward the commit quorum), LagFrames/LagBytes how
	// far it trails the leader (bytes counted over the ring window).
	Known         bool     `json:"known"`
	MatchSeqs     []uint64 `json:"match_seqs,omitempty"`
	ConfirmedSeqs []uint64 `json:"confirmed_seqs,omitempty"`
	LagFrames     uint64   `json:"lag_frames"`
	LagBytes      int64    `json:"lag_bytes"`
	// LastAckMS is milliseconds since the last successful reply (-1 when
	// never).
	LastAckMS int64 `json:"last_ack_ms"`
}

// Status snapshots the node's cluster state.
func (n *Node) Status() Status {
	fp := sha256.Sum256(n.cat.Fingerprint())
	seqs := n.cat.AppendShardSeqs(nil)

	n.mu.Lock()
	defer n.mu.Unlock()
	st := Status{
		ID:          n.opt.ID,
		Role:        n.role.String(),
		Term:        n.term,
		LeaderID:    n.leaderID,
		LeaderHTTP:  n.leaderHTTP,
		Shards:      seqs,
		Elections:   n.elections,
		Fingerprint: hex.EncodeToString(fp[:8]),
	}
	if n.role == RoleLeader {
		st.LeaderHTTP = n.opt.HTTPAddr
		st.LeaseExpiry = n.leaseUntil
		st.Commit = append([]uint64(nil), n.commit...)
	} else {
		st.LeaseExpiry = n.lastHeartbeat.Add(n.opt.Lease)
	}
	st.ReplicaLag, st.ReplicaLagKnown = n.replicaLagLocked()
	for i, d := range n.dirty {
		if d {
			st.DirtyShards = append(st.DirtyShards, i)
		}
	}
	for _, p := range n.peers {
		ps := PeerStatus{
			ID:        p.id,
			Addr:      p.addr,
			Connected: p.connected,
			Known:     p.known,
			LastAckMS: -1,
		}
		if !p.lastAck.IsZero() {
			ps.LastAckMS = time.Since(p.lastAck).Milliseconds()
		}
		if p.known {
			ps.MatchSeqs = append([]uint64(nil), p.match...)
			ps.ConfirmedSeqs = append([]uint64(nil), p.confirmed...)
			ps.LagFrames, ps.LagBytes = n.peerLagLocked(p)
		}
		st.Peers = append(st.Peers, ps)
	}
	sort.Slice(st.Peers, func(i, j int) bool { return st.Peers[i].ID < st.Peers[j].ID })
	return st
}
