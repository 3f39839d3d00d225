package load

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	// The frontend packages register the problem families ("suppress",
	// "depinf") into the workload registry the problem op draws from.
	_ "minup/internal/frontend/depinf"
	_ "minup/internal/frontend/suppress"
	"minup/internal/obs"
	"minup/internal/workload"
)

// Outcome classifies one request.
type Outcome int

const (
	// OutcomeSuccess is a non-degraded 2xx.
	OutcomeSuccess Outcome = iota
	// OutcomeDegraded is a 2xx carrying "degraded": true — the Qian
	// baseline served in place of a minimal solve.
	OutcomeDegraded
	// OutcomeShed is a 503: the admission gate refused the request, the
	// correct behavior past saturation.
	OutcomeShed
	// OutcomeError is everything else: transport failures, timeouts, and
	// unexpected statuses.
	OutcomeError
)

// opNames index the per-op result blocks; op codes are the Mix fields.
const (
	opMutate  = "mutate"
	opCached  = "cached_solve"
	opTrace   = "trace"
	opProblem = "problem"
)

// problemFamilies are the frontend families problem draws alternate
// through, and problemSize the generator size knob (small, so a problem
// create costs about as much as a policy put).
var problemFamilies = []string{"suppress", "depinf"}

const problemSize = 3

// maxReadLagFrames is the replica-lag ceiling for read-target ranking: a
// follower whose lag is unknown or beyond this many frames is skipped for
// reads when fresher members exist.
const maxReadLagFrames = 256

// maxRedirectHops bounds how many 307 leader redirects one logical
// request follows before giving up (covers a leader change mid-chain).
const maxRedirectHops = 3

// Runner drives a Plan against one minupd, or against every member of a
// replication cluster.
type Runner struct {
	// BaseURL is the service listener, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Addrs lists every cluster member's base URL. Clients spread reads
	// across members round-robin; mutations follow 307 redirects to the
	// leader (bounded hops, method and body preserved) and remember the
	// X-Cluster-Leader hint so later mutations go straight there. Empty
	// means the single BaseURL target.
	Addrs []string
	// DebugURL is the debug listener (for /debug/fault chaos arming);
	// empty refuses plans with fault stages.
	DebugURL string
	// OutDir receives one JSON file per stage plus summary.json; empty
	// writes nothing.
	OutDir string
	// Client is the HTTP client; nil builds one sized for the plan's
	// widest stage.
	Client *http.Client
	// RequestTimeout bounds each request (default 10s).
	RequestTimeout time.Duration
	// Logf, when set, receives one progress line per stage.
	Logf func(format string, args ...any)

	targets []string
	// readTargets is the preflight's load-balanced ordering of targets for
	// read traffic: leader and fresh followers first, lag-unknown or
	// badly lagging members excluded (falls back to all targets when the
	// /cluster hints are unavailable, e.g. single-node mode).
	readTargets []string
	// leaderHint caches the last X-Cluster-Leader redirect target so
	// mutations skip the follower round-trip; cleared on no-leader answers.
	leaderHint atomic.Value // string
}

func (r *Runner) logf(format string, args ...any) {
	if r.Logf != nil {
		r.Logf(format, args...)
	}
}

// client is one load-generating goroutine's persistent state: a seeded RNG
// for op draws, its own MutationStream under a private name prefix (so its
// mutations stay valid regardless of interleaving with other clients), and
// the set of policies it knows to be live for cached solves and traces.
type client struct {
	id     int
	base   string // this client's home member (reads stay here)
	rng    *rand.Rand
	spec   workload.MutationSpec
	stream []workload.Mutation
	next   int
	gen    int64
	live   []string
	liveAt map[string]int // name -> index in live, for O(1) delete
	// problems counts this client's problem creates, alternating the
	// family and seeding the generator deterministically.
	problems int64
}

func newClient(id int, planSeed int64, spec workload.MutationSpec) (*client, error) {
	c := &client{
		id:     id,
		rng:    rand.New(rand.NewSource(planSeed<<16 + int64(id))),
		spec:   spec,
		liveAt: make(map[string]int),
	}
	c.spec.NamePrefix = fmt.Sprintf("c%03dp", id)
	return c, c.refill(planSeed)
}

// refill regenerates the client's stream. Each generation is itself valid
// from any catalog state: a stream's first op on every name is a put, so
// replaying a fresh generation over leftovers just replaces them.
func (c *client) refill(planSeed int64) error {
	c.gen++
	c.spec.Seed = planSeed<<16 + int64(c.id) + c.gen*1_000_003
	stream, err := workload.MutationStream(c.spec)
	if err != nil {
		return err
	}
	c.stream = stream
	c.next = 0
	// A fresh generation restarts its own live tracking: it only appends
	// to and deletes names it has put itself.
	c.live = c.live[:0]
	clear(c.liveAt)
	return nil
}

func (c *client) markLive(name string) {
	if _, ok := c.liveAt[name]; ok {
		return
	}
	c.liveAt[name] = len(c.live)
	c.live = append(c.live, name)
}

func (c *client) markDead(name string) {
	i, ok := c.liveAt[name]
	if !ok {
		return
	}
	last := len(c.live) - 1
	c.live[i] = c.live[last]
	c.liveAt[c.live[i]] = i
	c.live = c.live[:last]
	delete(c.liveAt, name)
}

// pickOp draws a request kind from the stage mix, resolving the fallback:
// a cached or trace draw with no live policy becomes a mutation (whose
// stream is guaranteed to start with a put).
func (c *client) pickOp(mix Mix) string {
	r := c.rng.Float64() * mix.total()
	var op string
	switch {
	case r < mix.Mutate:
		op = opMutate
	case r < mix.Mutate+mix.CachedSolve:
		op = opCached
	case r < mix.Mutate+mix.CachedSolve+mix.Trace:
		op = opTrace
	default:
		op = opProblem
	}
	if (op == opCached || op == opTrace) && len(c.live) == 0 {
		op = opMutate
	}
	return op
}

// stageRecorder accumulates one stage's client-side measurements.
type stageRecorder struct {
	mu      sync.Mutex
	hist    *obs.Histogram            // all ops
	perOp   map[string]*obs.Histogram // per request kind
	counts  map[string]*Counts
	total   Counts
	maxUS   uint64
	samples int
}

func newStageRecorder() *stageRecorder {
	r := &stageRecorder{
		hist:   obs.NewHistogram(obs.DurationBucketsUS),
		perOp:  make(map[string]*obs.Histogram),
		counts: make(map[string]*Counts),
	}
	for _, op := range []string{opMutate, opCached, opTrace, opProblem} {
		r.perOp[op] = obs.NewHistogram(obs.DurationBucketsUS)
		r.counts[op] = &Counts{}
	}
	return r
}

func (r *stageRecorder) record(op string, outcome Outcome, d time.Duration, redirects int) {
	us := uint64(d.Microseconds())
	r.hist.Observe(us)
	r.perOp[op].Observe(us)
	r.mu.Lock()
	defer r.mu.Unlock()
	if us > r.maxUS {
		r.maxUS = us
	}
	for _, c := range []*Counts{&r.total, r.counts[op]} {
		c.Attempts++
		c.Redirects += uint64(redirects)
		switch outcome {
		case OutcomeSuccess:
			c.Success++
		case OutcomeDegraded:
			c.Degraded++
		case OutcomeShed:
			c.Shed++
		case OutcomeError:
			c.Errors++
		}
	}
}

// Run executes the plan and returns its report. A gate failure is not an
// error — the report carries Passed=false and per-stage reasons — while a
// broken environment (unreachable server, chaos stage without a debug
// listener, unwritable result dir) is.
func (r *Runner) Run(ctx context.Context, plan Plan) (*Report, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	if r.RequestTimeout <= 0 {
		r.RequestTimeout = 10 * time.Second
	}
	r.targets = r.targets[:0]
	for _, a := range r.Addrs {
		if a = strings.TrimSpace(a); a != "" {
			r.targets = append(r.targets, strings.TrimRight(a, "/"))
		}
	}
	if len(r.targets) == 0 {
		if r.BaseURL == "" {
			return nil, fmt.Errorf("load: no target address configured")
		}
		r.targets = []string{strings.TrimRight(r.BaseURL, "/")}
	}
	if r.BaseURL == "" {
		r.BaseURL = r.targets[0]
	}
	maxClients := 0
	for _, st := range plan.Stages {
		if st.Clients > maxClients {
			maxClients = st.Clients
		}
		if st.Fault != "" && r.DebugURL == "" {
			return nil, fmt.Errorf("load: stage %q arms a fault spec but no debug URL is configured", st.Name)
		}
	}
	if r.Client == nil {
		r.Client = &http.Client{
			Transport: &http.Transport{
				MaxIdleConns:        maxClients * 2,
				MaxIdleConnsPerHost: maxClients * 2,
			},
			// Leader redirects are followed by hand in execute so hops are
			// bounded, counted, and the X-Cluster-Leader hint is captured.
			CheckRedirect: func(*http.Request, []*http.Request) error {
				return http.ErrUseLastResponse
			},
		}
	}

	if err := r.preflight(ctx); err != nil {
		return nil, err
	}

	readTargets := r.readTargets
	if len(readTargets) == 0 {
		readTargets = r.targets
	}
	clients := make([]*client, maxClients)
	for i := range clients {
		c, err := newClient(i, plan.Seed, plan.Workload)
		if err != nil {
			return nil, err
		}
		c.base = readTargets[i%len(readTargets)]
		clients[i] = c
	}

	report := &Report{
		Plan:      plan,
		Target:    strings.Join(r.targets, ","),
		StartedAt: time.Now().UTC(),
		Passed:    true,
	}
	before, err := r.scrape(ctx)
	if err != nil {
		return nil, fmt.Errorf("load: initial metrics scrape: %w", err)
	}
	report.BuildInfo = before.Infos["build_info"]
	for i, st := range plan.Stages {
		res, err := r.runStage(ctx, st, clients[:st.Clients], before)
		if err != nil {
			return nil, err
		}
		// The post-stage scrape doubles as the next stage's baseline.
		if res.scrapedAfter != nil {
			before = res.scrapedAfter
		}
		report.Stages = append(report.Stages, *res)
		if !res.GatePassed {
			report.Passed = false
		}
		if r.OutDir != "" {
			if err := writeStageFile(r.OutDir, i, res); err != nil {
				return nil, err
			}
		}
		r.logf("stage %s: %s", st.Name, res.summaryLine())
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
	}
	report.DurationSeconds = time.Since(report.StartedAt).Seconds()
	if r.OutDir != "" {
		if err := writeSummaryFile(r.OutDir, report); err != nil {
			return nil, err
		}
	}
	return report, nil
}

// preflight verifies every target is alive, then ranks the targets for
// read traffic.
func (r *Runner) preflight(ctx context.Context) error {
	ctx, cancel := context.WithTimeout(ctx, r.RequestTimeout)
	defer cancel()
	for _, target := range r.targets {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, target+"/healthz", nil)
		if err != nil {
			return err
		}
		resp, err := r.Client.Do(req)
		if err != nil {
			return fmt.Errorf("load: target %s unreachable: %w", target, err)
		}
		drain(resp)
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("load: %s/healthz answered %d", target, resp.StatusCode)
		}
	}
	r.readTargets = r.rankReadTargets(ctx)
	return nil
}

// clusterProbe is the slice of the GET /cluster payload the read-target
// ranking consumes: the node's role and replication freshness, plus the
// local admission-load hints.
type clusterProbe struct {
	Role            string `json:"role"`
	ReplicaLag      uint64 `json:"replica_lag_frames"`
	ReplicaLagKnown bool   `json:"replica_lag_known"`
	Load            struct {
		Inflight   int   `json:"inflight"`
		QueueDepth int64 `json:"queue_depth"`
	} `json:"load"`
}

// rankReadTargets orders the targets for read traffic using the /cluster
// load-balancing hints: fresh followers first (lowest lag, then lightest
// load), then the leader, so reads prefer low-lag followers and leave the
// leader capacity for the write path. Members whose lag is unknown (still
// catching up, partitioned) or beyond maxReadLagFrames are excluded.
// Returns nil — meaning "use every target round-robin" — when the hints
// are unavailable: single-node servers answer 404 on /cluster.
func (r *Runner) rankReadTargets(ctx context.Context) []string {
	if len(r.targets) < 2 {
		return nil
	}
	type ranked struct {
		target string
		leader bool
		lag    uint64
		load   int64
	}
	var eligible []ranked
	probed := true
	for _, target := range r.targets {
		probeCtx, cancel := context.WithTimeout(ctx, r.RequestTimeout)
		req, err := http.NewRequestWithContext(probeCtx, http.MethodGet, target+"/cluster", nil)
		if err != nil {
			cancel()
			return nil
		}
		resp, err := r.Client.Do(req)
		if err != nil {
			// An unreachable member was already fatal in preflight; a probe
			// race here just disables ranking.
			cancel()
			return nil
		}
		if resp.StatusCode != http.StatusOK {
			drain(resp)
			cancel()
			probed = false
			break
		}
		var probe clusterProbe
		err = json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&probe)
		drain(resp)
		cancel()
		if err != nil {
			return nil
		}
		switch {
		case probe.Role == "leader":
			eligible = append(eligible, ranked{target: target, leader: true, load: int64(probe.Load.Inflight) + probe.Load.QueueDepth})
		case probe.Role == "follower" && probe.ReplicaLagKnown && probe.ReplicaLag <= maxReadLagFrames:
			eligible = append(eligible, ranked{target: target, lag: probe.ReplicaLag, load: int64(probe.Load.Inflight) + probe.Load.QueueDepth})
		default:
			r.logf("read ranking: skipping %s (role=%s lag_known=%v lag=%d)",
				target, probe.Role, probe.ReplicaLagKnown, probe.ReplicaLag)
		}
	}
	if !probed || len(eligible) == 0 {
		return nil
	}
	sort.SliceStable(eligible, func(i, j int) bool {
		if eligible[i].leader != eligible[j].leader {
			return !eligible[i].leader // followers first
		}
		if eligible[i].lag != eligible[j].lag {
			return eligible[i].lag < eligible[j].lag
		}
		return eligible[i].load < eligible[j].load
	})
	out := make([]string, len(eligible))
	for i, e := range eligible {
		out[i] = e.target
	}
	r.logf("read ranking: %s", strings.Join(out, " > "))
	return out
}

func (r *Runner) runStage(ctx context.Context, st Stage, clients []*client, before *obs.Snapshot) (*StageResult, error) {
	if st.Fault != "" {
		if err := r.armFault(ctx, st.Fault); err != nil {
			return nil, fmt.Errorf("load: stage %q: arming fault spec: %w", st.Name, err)
		}
		// Always disarm, even on an error path: a later stage (or a later
		// run) must not inherit this stage's chaos.
		defer func() {
			disarmCtx, cancel := context.WithTimeout(context.WithoutCancel(ctx), r.RequestTimeout)
			defer cancel()
			if err := r.armFault(disarmCtx, ""); err != nil {
				r.logf("stage %s: disarming fault spec failed: %v", st.Name, err)
			}
		}()
	}

	rec := newStageRecorder()
	stageCtx, cancel := context.WithTimeout(ctx, st.duration())
	start := time.Now()
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			r.clientLoop(stageCtx, st, c, rec, start, len(clients))
		}(c)
	}
	wg.Wait()
	cancel()
	elapsed := time.Since(start)

	res := &StageResult{
		Name:            st.Name,
		Kind:            st.Kind,
		Gates:           st.Gates,
		Fault:           st.Fault,
		Clients:         len(clients),
		TargetQPS:       st.QPS,
		StartedAt:       start.UTC(),
		DurationSeconds: elapsed.Seconds(),
		Total:           rec.total,
	}
	res.PerOp = make(map[string]OpResult, len(rec.counts))
	for op, counts := range rec.counts {
		if counts.Attempts == 0 {
			continue
		}
		res.PerOp[op] = OpResult{Counts: *counts, Latency: latencySummary(rec.perOp[op].Snapshot(), 0)}
	}
	res.Latency = latencySummary(rec.hist.Snapshot(), rec.maxUS)
	if elapsed > 0 {
		res.ThroughputRPS = float64(rec.total.Attempts) / elapsed.Seconds()
	}

	// Scrape the server between stages: counter deltas across the stage
	// plus the current burn-rate and runtime gauges.
	after, err := r.scrape(ctx)
	if err != nil {
		// A mid-run scrape failure degrades the report, not the run: the
		// client-side gates still judge the stage.
		r.logf("stage %s: metrics scrape failed: %v", st.Name, err)
	} else {
		res.Server = serverSample(before, after)
		res.scrapedAfter = after
	}
	res.GateFailures = st.Gates.Evaluate(res)
	res.GatePassed = len(res.GateFailures) == 0
	return res, nil
}

// clientLoop issues requests until the stage context expires, pacing to
// the stage's (possibly ramping) QPS share for this client.
func (r *Runner) clientLoop(ctx context.Context, st Stage, c *client, rec *stageRecorder, start time.Time, clients int) {
	dur := st.duration()
	nextAt := time.Now()
	for {
		if ctx.Err() != nil {
			return
		}
		if st.QPS > 0 {
			qps := st.QPS
			if st.Kind == "ramp" {
				f := float64(time.Since(start)) / float64(dur)
				if f > 1 {
					f = 1
				}
				qps = st.RampFromQPS + (st.QPS-st.RampFromQPS)*f
			}
			interval := time.Duration(float64(clients) / qps * float64(time.Second))
			if d := time.Until(nextAt); d > 0 {
				select {
				case <-ctx.Done():
					return
				case <-time.After(d):
				}
				nextAt = nextAt.Add(interval)
			} else {
				// Fell behind (slow responses): restart the clock rather
				// than bursting to catch up.
				nextAt = time.Now().Add(interval)
			}
		}
		op := c.pickOp(st.Mix)
		outcome, d, hops, err := r.execute(ctx, c, op)
		if err != nil && ctx.Err() != nil {
			return // stage ended mid-request; not the server's fault
		}
		rec.record(op, outcome, d, hops)
	}
}

// mutationBody is the JSON body shape of policy puts and appends.
type mutationBody struct {
	Lattice     string `json:"lattice,omitempty"`
	Constraints string `json:"constraints"`
}

// execute performs one request and classifies it. Mutations start at the
// cached leader hint (when known) and follow up to maxRedirectHops 307
// leader redirects, re-sending the same method and body each hop. A 503
// carrying X-Cluster-State (election window, replication stall) counts as
// degraded — the cluster still serves reads but cannot commit just now —
// while an untyped 503 remains an admission shed. Either way the mutation
// was not acknowledged, so it stays the client's next one. The returned
// error is only consulted to detect stage teardown; it is already folded
// into the outcome.
func (r *Runner) execute(ctx context.Context, c *client, op string) (Outcome, time.Duration, int, error) {
	var (
		method = http.MethodGet
		path   string
		body   []byte
	)
	var mut workload.Mutation
	switch op {
	case opMutate:
		if c.next >= len(c.stream) {
			if err := c.refill(0); err != nil {
				return OutcomeError, 0, 0, err
			}
		}
		mut = c.stream[c.next]
		c.next++
		var err error
		switch mut.Op {
		case workload.OpPut:
			method = http.MethodPut
			path = "/policies/" + mut.Name
			body, err = json.Marshal(mutationBody{Lattice: mut.Lattice, Constraints: mut.Constraints})
		case workload.OpAppend:
			method = http.MethodPost
			path = "/policies/" + mut.Name + "/constraints"
			body, err = json.Marshal(mutationBody{Constraints: mut.Constraints})
		case workload.OpDelete:
			method = http.MethodDelete
			path = "/policies/" + mut.Name
		}
		if err != nil {
			return OutcomeError, 0, 0, err
		}
	case opCached:
		path = "/policies/" + c.live[c.rng.Intn(len(c.live))] + "/solve"
	case opTrace:
		path = "/policies/" + c.live[c.rng.Intn(len(c.live))] + "/trace"
	case opProblem:
		// Alternate the frontend families with a per-client deterministic
		// seed; the instance lands under a client-scoped policy name so
		// later cached solves can target it.
		family := problemFamilies[c.problems%int64(len(problemFamilies))]
		fi, err := workload.GenerateFamily(family, c.spec.Seed+c.problems*7919, problemSize)
		if err != nil {
			return OutcomeError, 0, 0, err
		}
		probName := fmt.Sprintf("c%03df%04d", c.id, c.problems)
		c.problems++
		method = http.MethodPost
		path = "/problems/" + family + "?name=" + probName
		body = fi.JSON
		mut = workload.Mutation{Op: workload.OpPut, Name: probName}
	}

	// Reads stay on the client's home member; mutations (policy and
	// problem writes alike) go straight to the last known leader when a
	// redirect has taught us one.
	url := c.base + path
	if op == opMutate || op == opProblem {
		if hint, _ := r.leaderHint.Load().(string); hint != "" {
			url = hint + path
		}
	}

	reqCtx, cancel := context.WithTimeout(ctx, r.RequestTimeout)
	defer cancel()
	start := time.Now()
	var resp *http.Response
	hops := 0
	for {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(reqCtx, method, url, rd)
		if err != nil {
			return OutcomeError, 0, hops, err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err = r.Client.Do(req)
		if err != nil {
			return OutcomeError, time.Since(start), hops, err
		}
		if resp.StatusCode != http.StatusTemporaryRedirect || hops >= maxRedirectHops {
			break
		}
		// A follower bounced us to the leader: remember the hint for later
		// mutations and retry there with the same method and body.
		hint := resp.Header.Get("X-Cluster-Leader")
		loc := resp.Header.Get("Location")
		drain(resp)
		hops++
		switch {
		case loc != "":
			url = loc
		case hint != "":
			url = hint + path
		default:
			return OutcomeError, time.Since(start), hops, nil
		}
		if hint != "" {
			r.leaderHint.Store(hint)
		}
	}
	d := time.Since(start)
	outcome := OutcomeError
	switch {
	case resp.StatusCode == http.StatusServiceUnavailable:
		if resp.Header.Get("X-Cluster-State") != "" {
			// Election window or replication stall: typed cluster
			// degradation, not an overload shed. Drop the stale hint so the
			// next mutation rediscovers the leader via its home member.
			outcome = OutcomeDegraded
			r.leaderHint.Store("")
		} else {
			outcome = OutcomeShed
		}
	case resp.StatusCode >= 200 && resp.StatusCode < 300:
		outcome = OutcomeSuccess
		if op != opMutate && op != opProblem && resp.StatusCode == http.StatusOK {
			// Solve-shaped responses may carry the degraded marker.
			var probe struct {
				Degraded bool `json:"degraded"`
			}
			if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&probe); err == nil && probe.Degraded {
				outcome = OutcomeDegraded
			}
		}
	}
	drain(resp)

	// A mutation answered 503 was shed, or not committed in an election
	// window: keep it the client's next one, or the appends and deletes
	// behind a lost put would target a policy that never existed.
	if op == opMutate && resp.StatusCode == http.StatusServiceUnavailable {
		c.next--
	}
	// Keep the client's live-set in sync with the mutations the server
	// actually accepted, so reads only target policies that exist. A stored
	// problem is an ordinary policy, so it joins the live set too.
	if (op == opMutate || op == opProblem) && outcome == OutcomeSuccess {
		switch mut.Op {
		case workload.OpPut:
			c.markLive(mut.Name)
		case workload.OpDelete:
			c.markDead(mut.Name)
		}
	}
	return outcome, d, hops, nil
}

// armFault posts a fault spec to the server's /debug/fault; an empty spec
// disarms. The server must run with -fault-admin.
func (r *Runner) armFault(ctx context.Context, spec string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, r.DebugURL+"/debug/fault", strings.NewReader(spec))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "text/plain")
	resp, err := r.Client.Do(req)
	if err != nil {
		return err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("POST /debug/fault: %d: %s (is minupd running with -fault-admin?)", resp.StatusCode, bytes.TrimSpace(msg))
	}
	return nil
}

// scrape fetches and decodes the server's registry snapshot.
func (r *Runner) scrape(ctx context.Context) (*obs.Snapshot, error) {
	ctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), r.RequestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.BaseURL+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := r.Client.Do(req)
	if err != nil {
		return nil, err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %d", resp.StatusCode)
	}
	var snap obs.Snapshot
	if err := json.NewDecoder(io.LimitReader(resp.Body, 8<<20)).Decode(&snap); err != nil {
		return nil, fmt.Errorf("GET /metrics: %w", err)
	}
	return &snap, nil
}

// drain consumes and closes a response body so the connection is reused.
func drain(resp *http.Response) {
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
}
