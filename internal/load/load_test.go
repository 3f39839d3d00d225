package load

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"minup/internal/obs"
)

// fakeServer emulates just enough of minupd's surface for the runner:
// policy CRUD with real liveness, memoized solves and traces, a /metrics
// registry snapshot, and per-request behavior knobs (shed, degrade).
type fakeServer struct {
	mu       sync.Mutex
	policies map[string]bool
	seenPuts map[string]bool

	requests  atomic.Uint64
	mutations atomic.Uint64
	solves    atomic.Uint64
	traces    atomic.Uint64
	problems  atomic.Uint64

	// shedEvery sheds (503) every Nth request when > 0.
	shedEvery uint64
	// shedFirstPut sheds (503) the first attempt of every distinct policy
	// PUT (name and body); a resent PUT lands.
	shedFirstPut bool
	// degradeSolves answers policy solves with "degraded": true.
	degradeSolves atomic.Bool
	// burnMilli is exposed as slo.policy.solve.avail_burn_5m_milli.
	burnMilli atomic.Int64
	// noLeader answers every mutation 503 + X-Cluster-State: no-leader,
	// emulating an election window.
	noLeader atomic.Bool

	mux *http.ServeMux
	srv *httptest.Server
}

// newFollower starts a second listener sharing this server's read state
// but bouncing every mutation to the "leader" with a 307, the way a
// clustered minupd follower does.
func (f *fakeServer) newFollower() *httptest.Server {
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet &&
			(strings.HasPrefix(r.URL.Path, "/policies/") || strings.HasPrefix(r.URL.Path, "/problems/")) {
			w.Header().Set("X-Cluster-Leader", f.srv.URL)
			http.Redirect(w, r, f.srv.URL+r.URL.RequestURI(), http.StatusTemporaryRedirect)
			return
		}
		f.mux.ServeHTTP(w, r)
	}))
}

func newFakeServer() *fakeServer {
	f := &fakeServer{policies: make(map[string]bool), seenPuts: make(map[string]bool)}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(obs.Snapshot{
			Counters: map[string]uint64{"http.requests": f.requests.Load(), "catalog.mutations": f.mutations.Load()},
			Gauges:   map[string]int64{"runtime.goroutines": 12, "slo.policy.solve.avail_burn_5m_milli": f.burnMilli.Load()},
			Infos:    map[string]map[string]string{"build_info": {"version": "vtest", "go_version": "gotest"}},
		})
	})
	mux.HandleFunc("/problems/", func(w http.ResponseWriter, r *http.Request) {
		if f.count(w, r) {
			return
		}
		family := strings.TrimPrefix(r.URL.Path, "/problems/")
		if r.Method != http.MethodPost || (family != "suppress" && family != "depinf") {
			http.NotFound(w, r)
			return
		}
		if f.noLeader.Load() {
			w.Header().Set("X-Cluster-State", "no-leader")
			http.Error(w, "no cluster leader; retry", http.StatusServiceUnavailable)
			return
		}
		name := r.URL.Query().Get("name")
		if name == "" {
			http.Error(w, "missing name", http.StatusBadRequest)
			return
		}
		f.mutations.Add(1)
		f.problems.Add(1)
		f.mu.Lock()
		f.policies[name] = true
		f.mu.Unlock()
		w.WriteHeader(http.StatusCreated)
		fmt.Fprintf(w, `{"name":%q,"family":%q}`+"\n", name, family)
	})
	mux.HandleFunc("/policies/", func(w http.ResponseWriter, r *http.Request) {
		if f.count(w, r) {
			return
		}
		if r.Method != http.MethodGet && f.noLeader.Load() {
			w.Header().Set("X-Cluster-State", "no-leader")
			http.Error(w, "no cluster leader; retry", http.StatusServiceUnavailable)
			return
		}
		rest := strings.TrimPrefix(r.URL.Path, "/policies/")
		parts := strings.Split(rest, "/")
		name := parts[0]
		f.mu.Lock()
		defer f.mu.Unlock()
		switch {
		case len(parts) == 1 && r.Method == http.MethodPut:
			if f.shedFirstPut {
				body, _ := io.ReadAll(r.Body)
				if key := name + "\x00" + string(body); !f.seenPuts[key] {
					f.seenPuts[key] = true
					http.Error(w, "shed", http.StatusServiceUnavailable)
					return
				}
			}
			f.mutations.Add(1)
			f.policies[name] = true
			w.WriteHeader(http.StatusCreated)
		case len(parts) == 1 && r.Method == http.MethodDelete:
			if !f.policies[name] {
				http.NotFound(w, r)
				return
			}
			f.mutations.Add(1)
			delete(f.policies, name)
			w.WriteHeader(http.StatusNoContent)
		case len(parts) == 2 && parts[1] == "constraints" && r.Method == http.MethodPost:
			if !f.policies[name] {
				http.NotFound(w, r)
				return
			}
			f.mutations.Add(1)
			fmt.Fprintln(w, `{"ok":true}`)
		case len(parts) == 2 && parts[1] == "solve" && r.Method == http.MethodGet:
			if !f.policies[name] {
				http.NotFound(w, r)
				return
			}
			f.solves.Add(1)
			if f.degradeSolves.Load() {
				fmt.Fprintln(w, `{"assignment":{},"degraded":true}`)
			} else {
				fmt.Fprintln(w, `{"assignment":{}}`)
			}
		case len(parts) == 2 && parts[1] == "trace" && r.Method == http.MethodGet:
			if !f.policies[name] {
				http.NotFound(w, r)
				return
			}
			f.traces.Add(1)
			fmt.Fprintln(w, `{"trace_id":"t","spans":{}}`)
		default:
			http.Error(w, "bad request", http.StatusBadRequest)
		}
	})
	f.mux = mux
	f.srv = httptest.NewServer(mux)
	return f
}

// count tallies the request and applies the shed knob; reports whether the
// request was already answered (with a 503).
func (f *fakeServer) count(w http.ResponseWriter, r *http.Request) bool {
	n := f.requests.Add(1)
	if f.shedEvery > 0 && n%f.shedEvery == 0 {
		http.Error(w, "shed", http.StatusServiceUnavailable)
		return true
	}
	return false
}

func smokePlan() Plan {
	return Plan{
		Seed:     7,
		Workload: DefaultWorkload(),
		Stages: []Stage{
			{
				Name: "ramp", Kind: "ramp", Seconds: 0.6, Clients: 4,
				QPS: 400, RampFromQPS: 100, Mix: DefaultMix(),
				Gates: Gates{MinSuccessRate: 0.9, MaxErrorRate: 0.05, MaxP99MS: 1000},
			},
			{
				Name: "storm", Kind: "storm", Seconds: 0.4, Clients: 8,
				Mix:   DefaultMix(),
				Gates: Gates{MaxErrorRate: 0.05},
			},
		},
	}
}

func TestRunnerAgainstFakeServer(t *testing.T) {
	f := newFakeServer()
	defer f.srv.Close()
	out := t.TempDir()
	r := &Runner{BaseURL: f.srv.URL, OutDir: out, Logf: t.Logf}
	rep, err := r.Run(context.Background(), smokePlan())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed {
		t.Fatalf("run failed: %v", rep.FailedStages())
	}
	if len(rep.Stages) != 2 {
		t.Fatalf("got %d stage results, want 2", len(rep.Stages))
	}
	if rep.BuildInfo["version"] != "vtest" {
		t.Fatalf("build info not scraped: %+v", rep.BuildInfo)
	}
	for _, st := range rep.Stages {
		c := st.Total
		if c.Attempts == 0 {
			t.Fatalf("stage %s made no requests", st.Name)
		}
		if got := c.Success + c.Degraded + c.Shed + c.Errors; got != c.Attempts {
			t.Fatalf("stage %s: outcomes %d don't add up to attempts %d", st.Name, got, c.Attempts)
		}
		var sum uint64
		for _, op := range st.PerOp {
			sum += op.Counts.Attempts
		}
		if sum != c.Attempts {
			t.Fatalf("stage %s: per-op attempts %d != total %d", st.Name, sum, c.Attempts)
		}
		if st.Latency.P99MS <= 0 {
			t.Fatalf("stage %s: no latency recorded", st.Name)
		}
		if st.Server == nil {
			t.Fatalf("stage %s: no server sample", st.Name)
		}
		if st.Server.CounterDeltas["http.requests"] <= 0 {
			t.Fatalf("stage %s: http.requests delta missing: %+v", st.Name, st.Server.CounterDeltas)
		}
		if st.Server.Gauges["runtime.goroutines"] != 12 {
			t.Fatalf("stage %s: gauges not sampled: %+v", st.Name, st.Server.Gauges)
		}
	}
	// The result dir carries one file per stage plus the summary.
	for _, name := range []string{"stage-00-ramp.json", "stage-01-storm.json", "summary.json"} {
		if _, err := os.Stat(filepath.Join(out, name)); err != nil {
			t.Fatalf("missing result file %s: %v", name, err)
		}
	}
	// The mutations the clients sent actually landed on the server.
	if f.mutations.Load() == 0 {
		t.Fatal("no mutations reached the server")
	}
	if f.solves.Load() == 0 {
		t.Fatal("no solves reached the server")
	}
}

func TestRunnerClassifiesSheds(t *testing.T) {
	f := newFakeServer()
	defer f.srv.Close()
	f.shedEvery = 3 // every 3rd request is a bare 503
	r := &Runner{BaseURL: f.srv.URL}
	plan := smokePlan()
	plan.Stages = plan.Stages[:1]
	plan.Stages[0].Gates = Gates{MaxErrorRate: 0.05} // sheds are not errors
	rep, err := r.Run(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed {
		t.Fatalf("sheds must not fail an error-rate gate: %v", rep.Stages[0].GateFailures)
	}
	c := rep.Stages[0].Total
	if c.Shed == 0 {
		t.Fatalf("no sheds recorded: %+v", c)
	}
	if got := c.ShedRate(); got < 0.2 || got > 0.45 {
		t.Fatalf("shed rate %.3f implausible for shed-every-3rd", got)
	}
}

// TestRunnerResendsShedMutations: a mutation answered 503 never reached the
// catalog, so the client must resend it rather than move on. Otherwise the
// appends and deletes behind a shed PUT target a policy that never existed,
// and their 404s count as errors.
func TestRunnerResendsShedMutations(t *testing.T) {
	f := newFakeServer()
	defer f.srv.Close()
	f.shedFirstPut = true
	r := &Runner{BaseURL: f.srv.URL}
	plan := smokePlan()
	plan.Stages = plan.Stages[:1]
	rep, err := r.Run(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	mutates := rep.Stages[0].PerOp[opMutate].Counts
	if mutates.Shed == 0 || mutates.Success == 0 {
		t.Fatalf("mutations %+v, want shed first attempts and landed resends", mutates)
	}
	if c := rep.Stages[0].Total; c.Errors != 0 {
		t.Fatalf("%d errors after shed PUTs (per op %+v)", c.Errors, rep.Stages[0].PerOp)
	}
}

func TestRunnerClassifiesDegraded(t *testing.T) {
	f := newFakeServer()
	defer f.srv.Close()
	f.degradeSolves.Store(true)
	r := &Runner{BaseURL: f.srv.URL}
	plan := smokePlan()
	plan.Stages = plan.Stages[:1]
	plan.Stages[0].Gates = Gates{MaxDegradedRate: 0.01}
	rep, err := r.Run(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	c := rep.Stages[0].Total
	if c.Degraded == 0 {
		t.Fatalf("no degraded answers recorded: %+v", c)
	}
	if rep.Passed {
		t.Fatal("degraded-rate gate should have failed")
	}
	found := false
	for _, reason := range rep.Stages[0].GateFailures {
		if strings.Contains(reason, "degraded rate") {
			found = true
		}
	}
	if !found {
		t.Fatalf("failure reasons missing degraded gate: %v", rep.Stages[0].GateFailures)
	}
}

func TestRunnerFollowsLeaderRedirects(t *testing.T) {
	// Two-member "cluster": the follower 307s every mutation to the leader.
	// The runner must land every mutation anyway (method and body intact),
	// record the hops, and learn the X-Cluster-Leader hint so most
	// mutations skip the bounce.
	f := newFakeServer()
	defer f.srv.Close()
	follower := f.newFollower()
	defer follower.Close()

	r := &Runner{Addrs: []string{follower.URL, f.srv.URL}, Logf: t.Logf}
	plan := smokePlan()
	plan.Stages = plan.Stages[:1]
	plan.Stages[0].Gates = Gates{MinSuccessRate: 0.95, MaxErrorRate: 0.01}
	rep, err := r.Run(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed {
		t.Fatalf("clustered run failed: %v", rep.Stages[0].GateFailures)
	}
	c := rep.Stages[0].Total
	if c.Redirects == 0 {
		t.Fatalf("no redirects recorded against a redirecting follower: %+v", c)
	}
	mutates := rep.Stages[0].PerOp[opMutate].Counts
	if mutates.Redirects == 0 || mutates.Redirects != c.Redirects {
		t.Fatalf("redirects not attributed to mutations: total=%d mutate=%d", c.Redirects, mutates.Redirects)
	}
	// The leader hint sticks: after the first bounce, mutations go direct,
	// so hops stay well below the mutation count.
	if mutates.Attempts > 20 && c.Redirects*2 > mutates.Attempts {
		t.Fatalf("hint not learned: %d redirects across %d mutations", c.Redirects, mutates.Attempts)
	}
	if f.mutations.Load() == 0 {
		t.Fatal("no mutation reached the leader")
	}
	if rep.Target != follower.URL+","+f.srv.URL {
		t.Fatalf("report target %q", rep.Target)
	}
}

func TestRunnerClassifiesElectionWindows(t *testing.T) {
	// A 503 carrying X-Cluster-State is a typed election-window answer:
	// degraded, not shed and not an error.
	f := newFakeServer()
	defer f.srv.Close()
	f.noLeader.Store(true)
	r := &Runner{BaseURL: f.srv.URL}
	plan := smokePlan()
	plan.Stages = plan.Stages[:1]
	plan.Stages[0].Gates = Gates{MaxErrorRate: 0.01, MaxShedRate: 0.01}
	rep, err := r.Run(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed {
		t.Fatalf("election answers tripped error/shed gates: %v", rep.Stages[0].GateFailures)
	}
	c := rep.Stages[0].Total
	if c.Degraded == 0 {
		t.Fatalf("no-leader answers not classified degraded: %+v", c)
	}
	if c.Shed != 0 {
		t.Fatalf("typed cluster 503s misclassified as sheds: %+v", c)
	}
}

func TestRunnerTightenedGateFails(t *testing.T) {
	// The acceptance check from the issue: a deliberately impossible
	// threshold must fail the run — and with a nonzero p99 there is always
	// a threshold below it.
	f := newFakeServer()
	defer f.srv.Close()
	r := &Runner{BaseURL: f.srv.URL}
	plan := smokePlan()
	plan.Stages = plan.Stages[:1]
	plan.Stages[0].Gates = Gates{MaxP99MS: 0.0001}
	rep, err := r.Run(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Passed {
		t.Fatal("impossible p99 gate passed")
	}
	if got := rep.FailedStages(); len(got) != 1 || got[0] != "ramp" {
		t.Fatalf("failed stages %v, want [ramp]", got)
	}
}

func TestRunnerBurnRateGate(t *testing.T) {
	f := newFakeServer()
	defer f.srv.Close()
	f.burnMilli.Store(14_500) // burn 14.5
	r := &Runner{BaseURL: f.srv.URL}
	plan := smokePlan()
	plan.Stages = plan.Stages[:1]
	plan.Stages[0].Gates = Gates{MaxAvailBurn5m: 14}
	rep, err := r.Run(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Passed {
		t.Fatal("burn gate should have failed at 14.5 > 14")
	}
	st := rep.Stages[0]
	if st.Server == nil || st.Server.MaxAvailBurn5m != 14.5 {
		t.Fatalf("scraped burn wrong: %+v", st.Server)
	}
	// Loosening the gate above the scraped burn passes.
	plan.Stages[0].Gates = Gates{MaxAvailBurn5m: 15}
	rep, err = r.Run(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed {
		t.Fatalf("burn gate failed at 14.5 < 15: %v", rep.Stages[0].GateFailures)
	}
}

func TestRunnerCatalogOnlyFallback(t *testing.T) {
	// Every read targets a policy route, and only policies the client has
	// created: solve and trace draws before its first accepted put fall
	// back to mutations instead of racking up 404 errors, and traces land
	// on /policies/{name}/trace.
	f := newFakeServer()
	defer f.srv.Close()
	r := &Runner{BaseURL: f.srv.URL}
	plan := smokePlan()
	plan.Stages = plan.Stages[:1]
	plan.Stages[0].Mix.Trace = 0.3
	plan.Stages[0].Gates = Gates{MaxErrorRate: 0.0001}
	rep, err := r.Run(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed {
		t.Fatalf("catalog-only run failed: %v", rep.Stages[0].GateFailures)
	}
	traces := rep.Stages[0].PerOp[opTrace].Counts
	if traces.Attempts == 0 || traces.Success != traces.Attempts {
		t.Fatalf("trace draws %+v, want every one answered", traces)
	}
	if got := f.traces.Load(); got < traces.Success {
		t.Fatalf("server saw %d policy traces, client had %d answered", got, traces.Success)
	}
}

func TestRunnerProblemCreates(t *testing.T) {
	// The default mix carries a thin stream of problem-frontend creates;
	// against a server with /problems routes they must land as successes
	// and register as mutations (a stored problem is an ordinary policy).
	f := newFakeServer()
	defer f.srv.Close()
	r := &Runner{BaseURL: f.srv.URL, Logf: t.Logf}
	plan := smokePlan()
	plan.Stages = plan.Stages[:1]
	plan.Stages[0].Gates = Gates{MinSuccessRate: 0.95, MaxErrorRate: 0.01}
	rep, err := r.Run(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed {
		t.Fatalf("run with problem ops failed: %v", rep.Stages[0].GateFailures)
	}
	res, ok := rep.Stages[0].PerOp[opProblem]
	if !ok || res.Counts.Attempts == 0 {
		t.Fatal("no problem creates attempted under the default mix")
	}
	if res.Counts.Errors > 0 {
		t.Fatalf("problem creates errored: %+v", res.Counts)
	}
	if f.problems.Load() == 0 {
		t.Fatal("no problem create reached the server")
	}
}

// clusterNode fakes one member's read-balancing surface: /healthz plus a
// fixed GET /cluster payload.
func clusterNode(t *testing.T, body string) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/healthz":
			fmt.Fprintln(w, "ok")
		case "/cluster":
			if body == "" {
				http.NotFound(w, r)
				return
			}
			fmt.Fprintln(w, body)
		default:
			http.NotFound(w, r)
		}
	}))
	t.Cleanup(srv.Close)
	return srv
}

func TestRankReadTargets(t *testing.T) {
	leader := clusterNode(t, `{"role":"leader","load":{"inflight":0,"queue_depth":0}}`)
	fresh := clusterNode(t, `{"role":"follower","replica_lag_frames":0,"replica_lag_known":true,"load":{"inflight":3,"queue_depth":1}}`)
	lagged := clusterNode(t, `{"role":"follower","replica_lag_frames":5,"replica_lag_known":true,"load":{"inflight":0,"queue_depth":0}}`)
	stale := clusterNode(t, `{"role":"follower","replica_lag_frames":9999,"replica_lag_known":true,"load":{}}`)
	unknown := clusterNode(t, `{"role":"follower","replica_lag_known":false,"load":{}}`)
	bare := clusterNode(t, "") // no /cluster at all

	newRunner := func(targets ...string) *Runner {
		r := &Runner{Client: http.DefaultClient, RequestTimeout: 2 * time.Second, Logf: t.Logf}
		r.targets = targets
		return r
	}
	ctx := context.Background()

	// Fresh followers first (by lag, then load), leader last; stale and
	// lag-unknown members are excluded entirely.
	r := newRunner(leader.URL, stale.URL, lagged.URL, unknown.URL, fresh.URL)
	got := r.rankReadTargets(ctx)
	want := []string{fresh.URL, lagged.URL, leader.URL}
	if len(got) != len(want) {
		t.Fatalf("ranked %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ranked %v, want %v", got, want)
		}
	}

	// A single target never ranks: nothing to balance.
	if got := newRunner(leader.URL).rankReadTargets(ctx); got != nil {
		t.Fatalf("single target ranked: %v", got)
	}

	// Any member without /cluster hints disables ranking (use every target).
	if got := newRunner(leader.URL, bare.URL).rankReadTargets(ctx); got != nil {
		t.Fatalf("ranking with a hint-less member: %v", got)
	}
}

func TestRunnerChaosStageArmsAndDisarms(t *testing.T) {
	f := newFakeServer()
	defer f.srv.Close()
	var mu sync.Mutex
	var posts []string
	debug := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/debug/fault" || r.Method != http.MethodPost {
			http.NotFound(w, r)
			return
		}
		body := make([]byte, 512)
		n, _ := r.Body.Read(body)
		mu.Lock()
		posts = append(posts, string(body[:n]))
		mu.Unlock()
		fmt.Fprintln(w, "ok")
	}))
	defer debug.Close()

	r := &Runner{BaseURL: f.srv.URL, DebugURL: debug.URL}
	plan := smokePlan()
	plan.Stages = plan.Stages[:1]
	plan.Stages[0].Kind = "chaos"
	plan.Stages[0].Fault = "solve.step:delay:~0.5:1ms"
	plan.Stages[0].Gates = Gates{MaxErrorRate: 0.05}
	rep, err := r.Run(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed {
		t.Fatalf("chaos stage failed: %v", rep.Stages[0].GateFailures)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(posts) != 2 || posts[0] != "solve.step:delay:~0.5:1ms" || posts[1] != "" {
		t.Fatalf("fault posts %q, want [spec, empty-disarm]", posts)
	}
}

func TestRunnerChaosNeedsDebugURL(t *testing.T) {
	f := newFakeServer()
	defer f.srv.Close()
	r := &Runner{BaseURL: f.srv.URL}
	plan := smokePlan()
	plan.Stages[1].Fault = "wal.fsync:delay:~1:1ms"
	if _, err := r.Run(context.Background(), plan); err == nil {
		t.Fatal("fault stage without a debug URL must refuse to run")
	}
}

func TestRunnerUnreachableTarget(t *testing.T) {
	r := &Runner{BaseURL: "http://127.0.0.1:1", RequestTimeout: time.Second}
	if _, err := r.Run(context.Background(), smokePlan()); err == nil {
		t.Fatal("unreachable target must be an error, not a gate failure")
	}
}

func TestPlanValidate(t *testing.T) {
	p := DefaultPlan()
	if err := p.Validate(); err != nil {
		t.Fatalf("default plan invalid: %v", err)
	}
	bad := []func(*Plan){
		func(p *Plan) { p.Stages = nil },
		func(p *Plan) { p.Stages[0].Name = "" },
		func(p *Plan) { p.Stages[1].Name = p.Stages[0].Name },
		func(p *Plan) { p.Stages[0].Seconds = 0 },
		func(p *Plan) { p.Stages[0].Clients = 0 },
		func(p *Plan) { p.Stages[0].Mix = Mix{} },
		func(p *Plan) { p.Stages[0].QPS = 0 }, // ramp without QPS
	}
	for i, mutate := range bad {
		p := DefaultPlan()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid plan accepted", i)
		}
	}
	// Validate fills a ramp's starting QPS.
	p = DefaultPlan()
	p.Stages[0].RampFromQPS = 0
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if got, want := p.Stages[0].RampFromQPS, p.Stages[0].QPS/10; got != want {
		t.Fatalf("RampFromQPS default %v, want %v", got, want)
	}
}

func TestPlanFilter(t *testing.T) {
	p := DefaultPlan()
	got, err := p.Filter("ramp, storm")
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Stages) != 2 || got.Stages[0].Name != "ramp" || got.Stages[1].Name != "storm" {
		t.Fatalf("filtered stages wrong: %+v", got.Stages)
	}
	if _, err := p.Filter("ramp,tsunami"); err == nil {
		t.Fatal("unknown stage name accepted")
	}
}

func TestPlanJSONRoundTrip(t *testing.T) {
	p := DefaultPlan()
	b, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadPlan(strings.NewReader(string(b)))
	if err != nil {
		t.Fatal(err)
	}
	if got.Seed != p.Seed || len(got.Stages) != len(p.Stages) {
		t.Fatalf("round trip lost data: %+v", got)
	}
	if got.Stages[3].Fault != p.Stages[3].Fault {
		t.Fatalf("fault spec lost: %q", got.Stages[3].Fault)
	}
	if got.Stages[0].Gates != p.Stages[0].Gates {
		t.Fatalf("gates lost: %+v", got.Stages[0].Gates)
	}
	// Unknown fields are rejected, not ignored.
	if _, err := ReadPlan(strings.NewReader(`{"seed":1,"stages":[{"name":"x","gatez":{}}]}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
}
