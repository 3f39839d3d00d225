// Cluster-mode wiring for minupd: replication flags, the write gate in
// front of every catalog mutation, the majority-ack barrier behind it, and
// the GET /cluster status route.
//
// In cluster mode (-cluster-listen plus -cluster-peers) each minupd runs a
// replication node next to its catalog. The leader accepts mutations,
// streams the resulting WAL record frames to its followers, and a mutation
// handler answers success only after a majority of replicas has durably
// appended the record. Followers answer mutations with a 307 redirect to
// the leader's advertised HTTP address (X-Cluster-Leader carries the hint)
// while a leader is known, and with 503 + "X-Cluster-State: no-leader"
// during election windows. Reads stay local on every node — that is the
// point of replicating the memoized catalog.
package main

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"time"

	"minup/internal/catalog"
	"minup/internal/cluster"
	"minup/internal/fault"
	"minup/internal/obs"
)

// clusterConfig carries the -cluster-* flags into the server.
type clusterConfig struct {
	node          *cluster.Node
	maxReplicaLag int64 // /readyz threshold; negative disables the check
}

// parseClusterPeers parses "1=127.0.0.1:7001,2=127.0.0.1:7002" into the
// peer map handed to cluster.Open.
func parseClusterPeers(spec string) (map[int]string, error) {
	peers := make(map[int]string)
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, addr, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("peer %q: want id=host:port", part)
		}
		n, err := strconv.Atoi(strings.TrimSpace(id))
		if err != nil || n < 0 {
			return nil, fmt.Errorf("peer %q: bad node id", part)
		}
		if _, dup := peers[n]; dup {
			return nil, fmt.Errorf("peer %q: duplicate node id %d", part, n)
		}
		peers[n] = strings.TrimSpace(addr)
	}
	if len(peers) == 0 {
		return nil, fmt.Errorf("empty -cluster-peers")
	}
	return peers, nil
}

// clusterWriteGate fences one mutation request. It returns true when this
// node may apply the mutation locally; otherwise it has already answered —
// a 307 to the leader (method and body preserved) or a 503 during an
// election window.
func (s *server) clusterWriteGate(w http.ResponseWriter, r *http.Request) bool {
	if s.cfg.cluster.node == nil {
		return true
	}
	leaderHTTP, err := s.cfg.cluster.node.WriteGate()
	switch {
	case err == nil:
		return true
	case errors.Is(err, cluster.ErrNotLeader) && leaderHTTP != "":
		s.reg.Counter("cluster.http.redirects").Inc()
		w.Header().Set("X-Cluster-Leader", leaderHTTP)
		http.Redirect(w, r, leaderHTTP+r.URL.RequestURI(), http.StatusTemporaryRedirect)
		return false
	default:
		s.reg.Counter("cluster.http.no_leader").Inc()
		w.Header().Set("X-Cluster-State", "no-leader")
		w.Header().Set("Retry-After", "1")
		http.Error(w, "no cluster leader (election in progress); retry", http.StatusServiceUnavailable)
		return false
	}
}

// clusterBarrier blocks until the mutation at (shard, seq) is replicated on
// a majority. On failure it answers the request itself and returns false:
// the mutation is durable locally but must not be acknowledged as
// committed.
func (s *server) clusterBarrier(ctx context.Context, w http.ResponseWriter, r *http.Request, shard int, seq uint64) bool {
	if s.cfg.cluster.node == nil {
		return true
	}
	err := s.cfg.cluster.node.Barrier(ctx, shard, seq)
	if err == nil {
		return true
	}
	if ri := infoFrom(r.Context()); ri != nil {
		ri.errText = err.Error()
	}
	switch {
	case errors.Is(err, cluster.ErrNoQuorum):
		w.Header().Set("X-Cluster-State", "no-quorum")
		w.Header().Set("Retry-After", "1")
		http.Error(w, "mutation durable on the leader but not yet replicated to a majority: "+err.Error(),
			http.StatusServiceUnavailable)
	case errors.Is(err, cluster.ErrNotLeader), errors.Is(err, cluster.ErrNoLeader):
		// Leadership was lost between the local append and the ack; the
		// record either commits via the next leader or is overwritten by its
		// snapshot. Either way this node cannot vouch for it.
		w.Header().Set("X-Cluster-State", "no-leader")
		w.Header().Set("Retry-After", "1")
		http.Error(w, "leadership lost before the mutation reached a majority: "+err.Error(),
			http.StatusServiceUnavailable)
	case r.Context().Err() != nil:
		http.Error(w, err.Error(), http.StatusRequestTimeout)
	default:
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	}
	return false
}

// clusterReady reports this replica's readiness to serve reads: a
// follower whose replication lag is unknown (no leader contact) or past
// -max-replica-lag answers not-ready so load balancers route around the
// stale replica. The leader is always ready.
func (s *server) clusterReady() (string, bool) {
	node := s.cfg.cluster.node
	if node == nil || s.cfg.cluster.maxReplicaLag < 0 {
		return "", true
	}
	lag, known := node.ReplicaLag()
	if !known {
		return "replica lag unknown (no leader contact)", false
	}
	if lag > uint64(s.cfg.cluster.maxReplicaLag) {
		return fmt.Sprintf("replica lagging %d frames (max %d)", lag, s.cfg.cluster.maxReplicaLag), false
	}
	return "", true
}

// clusterLoadHints is this node's local admission snapshot, attached to
// GET /cluster so load generators and routing clients can prefer lightly
// loaded, low-lag nodes for reads without a second probe.
type clusterLoadHints struct {
	Inflight    int   `json:"inflight"`
	MaxInflight int   `json:"max_inflight"`
	QueueDepth  int64 `json:"queue_depth"`
}

// clusterStatusResponse is the GET /cluster payload: the replication view
// (role, term, lease, per-peer lag, catalog fingerprint) plus the local
// load hints.
type clusterStatusResponse struct {
	cluster.Status
	Load clusterLoadHints `json:"load"`
}

// handleClusterStatus serves GET /cluster: this node's view of the
// cluster (role, term, lease, per-peer lag, catalog fingerprint) plus
// per-node load-balancing hints.
func (s *server) handleClusterStatus(w http.ResponseWriter, _ *http.Request) {
	node := s.cfg.cluster.node
	if node == nil {
		http.Error(w, "not running in cluster mode (start minupd with -cluster-listen/-cluster-peers)", http.StatusNotFound)
		return
	}
	writeJSON(w, clusterStatusResponse{
		Status: node.Status(),
		Load: clusterLoadHints{
			Inflight:    s.gate.inflight(),
			MaxInflight: s.gate.capacity(),
			QueueDepth:  s.gate.queueDepth(),
		},
	})
}

// openCluster boots the replication node from the -cluster-* flag values.
// Called by main after the catalog is open; the record ring must already be
// wired into the catalog's OnRecord hook.
func openCluster(cat *catalog.Catalog, ring *cluster.RecordLog, cf clusterFlags, deps clusterDeps) (*cluster.Node, error) {
	peers, err := parseClusterPeers(cf.peers)
	if err != nil {
		return nil, fmt.Errorf("-cluster-peers: %w", err)
	}
	if _, ok := peers[cf.nodeID]; !ok {
		return nil, fmt.Errorf("-cluster-node %d does not appear in -cluster-peers", cf.nodeID)
	}
	addr := cf.listen
	if addr == "" {
		addr = peers[cf.nodeID]
	}
	return cluster.Open(cluster.Options{
		ID:       cf.nodeID,
		Addr:     addr,
		Peers:    peers,
		HTTPAddr: cf.httpAddr,
		Catalog:  cat,
		Records:  ring,
		Dir:      deps.dir,
		Metrics:  deps.reg,
		Logger:   deps.logger,
		Fault:    deps.fault,
		Tick:     cf.tick,
		Lease:    cf.lease,
	})
}

// clusterFlags is the raw -cluster-* flag bundle.
type clusterFlags struct {
	nodeID   int
	listen   string
	peers    string
	httpAddr string
	tick     time.Duration
	lease    time.Duration
}

// enabled reports whether any cluster flag was set.
func (cf clusterFlags) enabled() bool { return cf.peers != "" || cf.listen != "" }

// clusterDeps carries the already-constructed process-wide dependencies
// into openCluster.
type clusterDeps struct {
	dir    string
	reg    *obs.Registry
	logger *slog.Logger
	fault  *fault.Injector
}
