package main

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"minup/internal/catalog"
	"minup/internal/cluster"
	"minup/internal/obs"
)

// clusterTestNode is one in-process minupd with a replication node behind
// it, serving real HTTP via httptest so redirects carry resolvable URLs.
type clusterTestNode struct {
	id   int
	cat  *catalog.Catalog
	node *cluster.Node
	reg  *obs.Registry
	srv  *server
	hs   *httptest.Server
}

// newClusterServers boots n minupd servers joined into one replication
// cluster (shards pinned to 2, fast test timings).
func newClusterServers(t *testing.T, n int) []*clusterTestNode {
	t.Helper()
	// Reserve replication ports so the full peer map is known up front.
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	peers := make(map[int]string, n)
	for i, a := range addrs {
		peers[i] = a
	}

	nodes := make([]*clusterTestNode, n)
	for i := range nodes {
		tn := &clusterTestNode{id: i, reg: obs.NewRegistry()}
		ring := cluster.NewRecordLog(0)
		cat, err := catalog.Open(catalog.Options{
			Metrics:  tn.reg,
			Shards:   2,
			OnRecord: ring.Append,
		})
		if err != nil {
			t.Fatal(err)
		}
		tn.cat = cat
		// The HTTP listener must exist before the cluster node advertises
		// its URL; the handler is swapped in once the server is wired.
		var h atomic.Pointer[http.Handler]
		nf := http.Handler(http.NotFoundHandler())
		h.Store(&nf)
		tn.hs = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			(*h.Load()).ServeHTTP(w, r)
		}))
		node, err := cluster.Open(cluster.Options{
			ID:       i,
			Addr:     addrs[i],
			Peers:    peers,
			HTTPAddr: tn.hs.URL,
			Catalog:  cat,
			Records:  ring,
			Metrics:  tn.reg,
			Tick:     10 * time.Millisecond,
			Lease:    80 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		tn.node = node
		cfg := defaultConfig()
		cfg.cluster = clusterConfig{node: node, maxReplicaLag: 8}
		tn.srv = newServer(cat, tn.reg, cfg)
		logger := slog.New(slog.NewJSONHandler(&strings.Builder{}, nil))
		routes := tn.srv.routes(logger)
		h.Store(&routes)
		nodes[i] = tn
	}
	t.Cleanup(func() {
		for _, tn := range nodes {
			tn.hs.Close()
			tn.node.Close()
			tn.cat.Close()
		}
	})
	return nodes
}

// waitClusterLeader polls until one node reports leadership.
func waitClusterLeader(t *testing.T, nodes []*clusterTestNode) *clusterTestNode {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		for _, tn := range nodes {
			if tn.node.IsLeader() {
				return tn
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("no cluster leader elected")
	return nil
}

// noRedirects is an http.Client that surfaces 307s instead of following.
var noRedirects = &http.Client{
	CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse },
}

func putPolicy(t *testing.T, baseURL, name string, client *http.Client) *http.Response {
	t.Helper()
	body := fmt.Sprintf(`{"lattice": %q, "constraints": %q}`, testPolicyLattice, testPolicyCons)
	req, err := http.NewRequest(http.MethodPut, baseURL+"/policies/"+name, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestClusterHTTPWriteFlow: writes on the leader commit after majority
// replication and become visible on follower reads; writes on a follower
// answer 307 with the leader's URL; /cluster and /readyz reflect the roles.
func TestClusterHTTPWriteFlow(t *testing.T) {
	nodes := newClusterServers(t, 3)
	leader := waitClusterLeader(t, nodes)
	var follower *clusterTestNode
	for _, tn := range nodes {
		if tn != leader {
			follower = tn
			break
		}
	}

	// Leader accepts and acks the mutation.
	resp := putPolicy(t, leader.hs.URL, "acct", http.DefaultClient)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("leader PUT = %d", resp.StatusCode)
	}
	resp.Body.Close()
	if got := leader.reg.Counter("cluster.acks").Value(); got == 0 {
		t.Fatal("leader acked the PUT without a majority barrier")
	}

	// Follower redirects writes to the leader, preserving method and path.
	resp = putPolicy(t, follower.hs.URL, "acct2", noRedirects)
	if resp.StatusCode != http.StatusTemporaryRedirect {
		t.Fatalf("follower PUT = %d, want 307", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); !strings.HasPrefix(loc, leader.hs.URL) || !strings.HasSuffix(loc, "/policies/acct2") {
		t.Fatalf("follower redirect Location = %q", loc)
	}
	if hint := resp.Header.Get("X-Cluster-Leader"); hint != leader.hs.URL {
		t.Fatalf("X-Cluster-Leader = %q, want %q", hint, leader.hs.URL)
	}
	resp.Body.Close()

	// A client that follows the redirect lands the write.
	resp = putPolicy(t, follower.hs.URL, "acct2", http.DefaultClient)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("redirected PUT = %d", resp.StatusCode)
	}
	resp.Body.Close()

	// The replicated policy becomes readable on the follower.
	deadline := time.Now().Add(5 * time.Second)
	for {
		r, err := http.Get(follower.hs.URL + "/policies/acct2")
		if err != nil {
			t.Fatal(err)
		}
		code := r.StatusCode
		r.Body.Close()
		if code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never served the replicated policy (last %d)", code)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// GET /cluster reflects both roles and a converged fingerprint.
	var ls, fs cluster.Status
	getJSON(t, leader.hs.URL+"/cluster", &ls)
	getJSON(t, follower.hs.URL+"/cluster", &fs)
	if ls.Role != "leader" || fs.Role != "follower" {
		t.Fatalf("roles: leader=%q follower=%q", ls.Role, fs.Role)
	}
	if fs.LeaderID != ls.ID || fs.LeaderHTTP != leader.hs.URL {
		t.Fatalf("follower points at leader %d %q", fs.LeaderID, fs.LeaderHTTP)
	}
	if len(ls.Peers) != 2 {
		t.Fatalf("leader sees %d peers, want 2", len(ls.Peers))
	}
	deadline = time.Now().Add(3 * time.Second)
	for {
		getJSON(t, leader.hs.URL+"/cluster", &ls)
		getJSON(t, follower.hs.URL+"/cluster", &fs)
		if ls.Fingerprint == fs.Fingerprint && fs.ReplicaLagKnown && fs.ReplicaLag == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("status never converged: leader fp=%s follower fp=%s lag=%d known=%v",
				ls.Fingerprint, fs.Fingerprint, fs.ReplicaLag, fs.ReplicaLagKnown)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Both replicas report ready: the leader trivially, the follower
	// because its lag is known and under -max-replica-lag.
	for _, tn := range []*clusterTestNode{leader, follower} {
		r, err := http.Get(tn.hs.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		code := r.StatusCode
		r.Body.Close()
		if code != http.StatusOK {
			t.Fatalf("node %d /readyz = %d", tn.id, code)
		}
	}
}

// TestClusterHTTPNoLeader: a node that cannot reach a quorum must answer
// writes with 503 + X-Cluster-State: no-leader and report itself not
// ready, rather than accepting mutations it can never commit.
func TestClusterHTTPNoLeader(t *testing.T) {
	// One live node in a declared 3-node membership whose other two members
	// never start: elections can never reach quorum.
	lns := make([]net.Listener, 3)
	addrs := make([]string, 3)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	reg := obs.NewRegistry()
	ring := cluster.NewRecordLog(0)
	cat, err := catalog.Open(catalog.Options{Metrics: reg, Shards: 2, OnRecord: ring.Append})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cat.Close() })
	node, err := cluster.Open(cluster.Options{
		ID: 0, Addr: addrs[0],
		Peers:    map[int]string{0: addrs[0], 1: addrs[1], 2: addrs[2]},
		HTTPAddr: "http://unadvertised.test",
		Catalog:  cat, Records: ring, Metrics: reg,
		Tick: 10 * time.Millisecond, Lease: 80 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { node.Close() })
	cfg := defaultConfig()
	cfg.cluster = clusterConfig{node: node, maxReplicaLag: 8}
	srv := newServer(cat, reg, cfg)
	logger := slog.New(slog.NewJSONHandler(&strings.Builder{}, nil))
	h := srv.routes(logger)

	rec := policyReq(t, h, http.MethodPut, "/policies/orphan",
		&policyRequest{Lattice: testPolicyLattice, Constraints: testPolicyCons}, nil)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("leaderless PUT = %d: %s", rec.Code, rec.Body.String())
	}
	if st := rec.Header().Get("X-Cluster-State"); st != "no-leader" {
		t.Fatalf("X-Cluster-State = %q, want no-leader", st)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("leaderless PUT carries no Retry-After")
	}
	// No leader contact: the replica cannot judge its own staleness.
	rec = get(t, h, "/readyz")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("leaderless /readyz = %d: %s", rec.Code, rec.Body.String())
	}
	rec = get(t, h, "/cluster")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /cluster = %d", rec.Code)
	}
	var st cluster.Status
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Role == "leader" {
		t.Fatal("quorumless node claims leadership")
	}
}

// TestClusterStatusRouteStandalone: without cluster flags /cluster is 404.
func TestClusterStatusRouteStandalone(t *testing.T) {
	_, h, _ := newTestServer(t)
	rec := get(t, h, "/cluster")
	if rec.Code != http.StatusNotFound {
		t.Fatalf("standalone GET /cluster = %d, want 404", rec.Code)
	}
}

// TestParseClusterPeers covers the flag grammar.
func TestParseClusterPeers(t *testing.T) {
	peers, err := parseClusterPeers("0=127.0.0.1:7000, 1=127.0.0.1:7001,2=127.0.0.1:7002")
	if err != nil {
		t.Fatal(err)
	}
	if len(peers) != 3 || peers[1] != "127.0.0.1:7001" {
		t.Fatalf("parsed %v", peers)
	}
	for _, bad := range []string{"", "x=1:2", "0", "0=a,0=b"} {
		if _, err := parseClusterPeers(bad); err == nil {
			t.Fatalf("spec %q parsed", bad)
		}
	}
}

func getJSON(t *testing.T, url string, dst any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(dst); err != nil {
		t.Fatal(err)
	}
}
