package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"minup/internal/obs"
)

// step is one op of a client's sequence, serialized before timing: the
// op's request and the read-back that follows it (for a read op, the read
// is the op).
type step struct {
	op   Op
	req  []byte
	read []byte
}

func compile(ops []Op) []step {
	out := make([]step, len(ops))
	for i, op := range ops {
		out[i] = step{op: op, read: request("GET", "/policies/"+op.Name+"/solve", nil)}
		wait := ""
		if op.Wait {
			wait = "?wait=1"
		}
		switch op.Kind {
		case OpPut:
			out[i].req = request("PUT", "/policies/"+op.Name+wait,
				mustJSON(map[string]string{"lattice": op.Lattice, "constraints": op.Text}))
		case OpAppend:
			out[i].req = request("POST", "/policies/"+op.Name+"/constraints"+wait,
				mustJSON(map[string]string{"constraints": op.Text}))
		case OpDelete:
			out[i].req = request("DELETE", "/policies/"+op.Name, nil)
		case OpProblem:
			q := url.Values{"name": {op.Name}}
			if op.Wait {
				q.Set("wait", "1")
			}
			out[i].req = request("POST", "/problems/"+op.Family+"?"+q.Encode(), []byte(op.Text))
		}
	}
	return out
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// expectedStatus is the status a mutation must be acked with.
func expectedStatus(op Op) int {
	switch op.Kind {
	case OpDelete:
		return 204
	case OpPut, OpProblem:
		if op.Version == 1 {
			return 201
		}
	}
	return 200
}

// client is one closed-loop client: one keep-alive connection for its ops
// and, on the cluster, a second one to the follower that serves its
// read-backs.
type client struct {
	id    int
	write *conn
	read  *conn
	// poll lets a read-back repeat until the follower has applied the
	// acked version.
	poll bool

	// Per-step results of the timed part, preallocated; doneNS is when
	// each step finished, counted from start.
	opNS, freshNS, readNS, doneNS []int64
	start                         time.Time
	polls                         int
	failed                        int
	respBytes                     int64
	errs                          []string
	span                          *obs.Span // traced pass: parent of the step spans
}

func (c *client) fail(format string, args ...any) {
	c.failed++
	if len(c.errs) < 5 {
		c.errs = append(c.errs, fmt.Sprintf(format, args...))
	}
}

// run executes steps; record keeps their latencies.
func (c *client) run(steps []step, record bool) {
	if record {
		c.opNS = make([]int64, 0, len(steps))
		c.freshNS = make([]int64, 0, len(steps))
		c.readNS = make([]int64, 0, len(steps))
		c.doneNS = make([]int64, 0, len(steps))
	}
	for i := range steps {
		c.step(&steps[i], record)
	}
}

func (c *client) step(s *step, record bool) {
	var sp *obs.Span
	if c.span != nil && record {
		// Every timed step gets a span; the first spanSample are kept
		// under the client's span for the trace file, later ones are
		// dropped once ended.
		if len(c.opNS) < spanSample {
			sp = c.span.Child("step." + s.op.Kind.String())
		} else {
			sp = c.span.Tracer().Start("step." + s.op.Kind.String())
		}
		sp.SetAttrStr("policy", s.op.Name)
		defer sp.End()
	}
	t0 := time.Now()
	t1, polls, bytes := c.exchange(s, sp)
	t2 := time.Now()
	if record {
		c.respBytes += bytes
		c.polls += polls
		c.opNS = append(c.opNS, int64(t1.Sub(t0)))
		c.freshNS = append(c.freshNS, int64(t2.Sub(t0)))
		c.readNS = append(c.readNS, int64(t2.Sub(t1)))
		c.doneNS = append(c.doneNS, int64(t2.Sub(c.start)))
	}
}

// exchange sends a step's requests and checks the answers. It returns when
// the op was acked (for a read op, when the read was answered), how often
// a follower read-back had to be repeated, and the response bytes.
func (c *client) exchange(s *step, sp *obs.Span) (acked time.Time, polls int, n int64) {
	if s.op.Kind == OpRead {
		status, body, err := c.read.do(s.read)
		acked = time.Now()
		c.checkRead(s.op, status, body, err)
		return acked, 0, int64(len(body))
	}
	var osp *obs.Span
	if sp != nil {
		osp = sp.Child("http." + s.op.Kind.String())
	}
	status, body, err := c.write.do(s.req)
	acked = time.Now()
	if osp != nil {
		osp.End()
	}
	n = int64(len(body))
	switch {
	case err != nil:
		c.fail("%s %s: %v", s.op.Kind, s.op.Name, err)
		return acked, 0, n
	case status != expectedStatus(s.op):
		c.fail("%s %s: status %d, want %d: %.200s", s.op.Kind, s.op.Name, status, expectedStatus(s.op), body)
		return acked, 0, n
	case s.op.Kind != OpDelete:
		if v, _ := jsonField(body, "version"); v != s.op.Version {
			c.fail("%s %s: acked version %d, want %d", s.op.Kind, s.op.Name, v, s.op.Version)
			return acked, 0, n
		}
	}
	var rsp *obs.Span
	if sp != nil {
		rsp = sp.Child("http.read")
	}
	for {
		status, body, err = c.read.do(s.read)
		if err == nil && c.poll && c.stale(s.op, status, body) && time.Since(acked) < 5*time.Second {
			polls++
			time.Sleep(100 * time.Microsecond)
			continue
		}
		break
	}
	if rsp != nil {
		rsp.SetAttr("polls", int64(polls))
		rsp.End()
	}
	c.checkRead(s.op, status, body, err)
	return acked, polls, n + int64(len(body))
}

// stale reports a follower read that has not yet seen the op's version.
func (c *client) stale(op Op, status int, body []byte) bool {
	if op.Kind == OpDelete {
		return status == 200
	}
	if status == 404 {
		return true
	}
	v, _ := jsonField(body, "version")
	return status == 200 && v < op.Version
}

// checkRead checks a read-back: a deleted policy must be gone, any other
// must be served at exactly the acked version.
func (c *client) checkRead(op Op, status int, body []byte, err error) {
	switch {
	case err != nil:
		c.fail("read %s: %v", op.Name, err)
	case op.Kind == OpDelete:
		if status != 404 {
			c.fail("read %s after delete: status %d, want 404", op.Name, status)
		}
	case status != 200:
		c.fail("read %s: status %d: %.200s", op.Name, status, body)
	default:
		if v, _ := jsonField(body, "version"); v != op.Version {
			c.fail("read %s: version %d, want %d", op.Name, v, op.Version)
		}
	}
}

// servers is one set of running minupd nodes for a run.
type servers struct {
	nodes    []*node
	leader   int // node index writes go to
	follower int // node index fresh reads go to
	setup    time.Duration
}

func (cl *servers) stop() { stopNodes(cl.nodes) }

// bringUp starts the plan's nodes in dir and runs its set-up: leader
// election on the cluster, the preload, a warm read of every preloaded
// policy, an idle refresh pipeline, and on the cluster followers at the
// leader's sequence numbers. The returned servers' setup is the time
// from process start to all of that.
func bringUp(binary, dir string, p *Plan) (*servers, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	setup := make([][]step, len(p.Setup))
	for i, ops := range p.Setup {
		setup[i] = compile(ops)
	}
	start := time.Now()
	deadline := start.Add(60 * time.Second)
	nodes, err := startNodes(binary, dir, p.Nodes)
	if err != nil {
		return nil, err
	}
	cl := &servers{nodes: nodes}
	fail := func(err error) (*servers, error) {
		cl.stop()
		return nil, err
	}
	for _, nd := range nodes {
		if err := waitHealthy(nd, deadline); err != nil {
			return fail(err)
		}
	}
	if p.Nodes > 1 {
		if cl.leader, err = waitLeader(nodes, deadline); err != nil {
			return fail(err)
		}
		cl.follower = (cl.leader + 1) % len(nodes)
	}
	clients, err := cl.clients(p, nil)
	if err != nil {
		return fail(err)
	}
	defer closeClients(clients)
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(c *client, steps []step) {
			defer wg.Done()
			c.setup(steps)
		}(c, setup[i])
	}
	wg.Wait()
	for _, c := range clients {
		if c.failed > 0 {
			return fail(fmt.Errorf("set-up failed: %v", c.errs))
		}
	}
	if err := waitIdle(nodes, deadline); err != nil {
		return fail(err)
	}
	if p.Nodes > 1 {
		if err := waitCaughtUp(nodes, cl.leader, deadline); err != nil {
			return fail(err)
		}
	}
	cl.setup = time.Since(start)
	return cl, nil
}

// setup sends each set-up op without a read-back, then reads every
// touched policy once at its last version so the run starts warm.
func (c *client) setup(steps []step) {
	last := map[string]Op{}
	var order []string
	for i := range steps {
		s := &steps[i]
		status, body, err := c.write.do(s.req)
		if err != nil || status != expectedStatus(s.op) {
			c.fail("set-up %s %s: status %d err %v: %.200s", s.op.Kind, s.op.Name, status, err, body)
			return
		}
		if _, seen := last[s.op.Name]; !seen {
			order = append(order, s.op.Name)
		}
		last[s.op.Name] = s.op
	}
	for _, name := range order {
		op := last[name]
		op.Kind = OpRead
		status, body, err := c.write.do(request("GET", "/policies/"+name+"/solve", nil))
		c.checkRead(op, status, body, err)
	}
}

// waitIdle polls until no node has a queued or running refresh.
func waitIdle(nodes []*node, deadline time.Time) error {
	for time.Now().Before(deadline) {
		idle := true
		for _, nd := range nodes {
			v, err := varsOf(nd)
			if err != nil {
				return err
			}
			if v.Minup.Gauges["catalog.refresh.pending"] != 0 {
				idle = false
			}
		}
		if idle {
			return nil
		}
		time.Sleep(500 * time.Microsecond)
	}
	return fmt.Errorf("refresh pipeline did not drain in time")
}

// clients opens one client per plan client: writes to the leader, reads
// from the follower on the cluster and from the same node otherwise.
func (cl *servers) clients(p *Plan, parent *obs.Span) ([]*client, error) {
	out := make([]*client, p.Clients)
	for i := range out {
		w, err := dial(cl.nodes[cl.leader].addr)
		if err != nil {
			closeClients(out)
			return nil, err
		}
		c := &client{id: i, write: w, read: w}
		if p.Nodes > 1 {
			if c.read, err = dial(cl.nodes[cl.follower].addr); err != nil {
				w.Close()
				closeClients(out)
				return nil, err
			}
			c.poll = true
		}
		if parent != nil {
			c.span = parent.Child("client." + strconv.Itoa(i))
		}
		out[i] = c
	}
	return out, nil
}

func closeClients(cs []*client) {
	for _, c := range cs {
		if c == nil {
			continue
		}
		c.write.Close()
		if c.read != c.write {
			c.read.Close()
		}
	}
}

// httpResult is what one pass of a plan against minupd measured.
type httpResult struct {
	setups           []time.Duration
	elapsed          time.Duration
	steps            int
	opNS, freshNS    []int64
	readNS, doneNS   []int64
	ticks            []cpuTick
	polls            int
	failed           int
	errs             []string
	respBytes        int64
	before, after    serverSample
	hwm              int64
	end              endState
	clusterPrints    []string
	elections        uint64
	stealShare       float64
	dataFS           string
	ops              map[OpKind]int
	opsByKindNS      map[OpKind][]int64
	clientSpanParent *obs.Span
}

// runHTTP runs plan p against freshly started minupd nodes: set-up
// repeated setups times (each on new processes and a new data directory,
// the last kept), the untimed warm-up, the timed part, and the end-state
// read. With tracer set, each timed step gets a client span.
func runHTTP(binary, dir string, p *Plan, setups int, tracer *obs.Tracer) (*httpResult, error) {
	res := &httpResult{ops: map[OpKind]int{}, opsByKindNS: map[OpKind][]int64{}}
	var cl *servers
	for i := 0; i < setups; i++ {
		if cl != nil {
			cl.stop()
		}
		d := filepath.Join(dir, fmt.Sprintf("setup%d", i))
		os.RemoveAll(d)
		var err error
		if cl, err = bringUp(binary, d, p); err != nil {
			return nil, err
		}
		res.setups = append(res.setups, cl.setup)
	}
	defer cl.stop()
	res.dataFS = fsType(cl.nodes[0].dir)

	var root *obs.Span
	if tracer != nil {
		root = tracer.Start("http." + p.Workload)
		res.clientSpanParent = root
	}
	clients, err := cl.clients(p, root)
	if err != nil {
		return nil, err
	}
	defer closeClients(clients)
	warm := make([][]step, p.Clients)
	timed := make([][]step, p.Clients)
	for i := range clients {
		warm[i] = compile(p.Warmup[i])
		timed[i] = compile(p.Timed[i])
	}
	runAll(clients, warm, false)
	for _, c := range clients {
		if c.failed > 0 {
			return nil, fmt.Errorf("warm-up failed: %v", c.errs)
		}
	}
	if err := waitIdle(cl.nodes, time.Now().Add(30*time.Second)); err != nil {
		return nil, err
	}

	steal0 := readCPUStat()
	if res.before, err = sampleServers(cl.nodes); err != nil {
		return nil, err
	}
	start := time.Now()
	for _, c := range clients {
		c.start = start
	}
	stop := make(chan struct{})
	ticked := make(chan []cpuTick)
	go func() { ticked <- sampleCPU(cl.nodes, start, p.blockLen(), stop) }()
	runAll(clients, timed, true)
	res.elapsed = time.Since(start)
	close(stop)
	res.ticks = <-ticked
	if res.after, err = sampleServers(cl.nodes); err != nil {
		return nil, err
	}
	res.stealShare = readCPUStat().stealShare(steal0)
	for _, nd := range cl.nodes {
		hwm, err := procHWM(nd.cmd.Process.Pid)
		if err != nil {
			return nil, err
		}
		res.hwm += hwm
	}
	for i, c := range clients {
		res.steps += len(timed[i])
		res.opNS = append(res.opNS, c.opNS...)
		res.freshNS = append(res.freshNS, c.freshNS...)
		res.readNS = append(res.readNS, c.readNS...)
		res.doneNS = append(res.doneNS, c.doneNS...)
		res.polls += c.polls
		res.failed += c.failed
		res.errs = append(res.errs, c.errs...)
		res.respBytes += c.respBytes
		for j, s := range timed[i] {
			res.ops[s.op.Kind]++
			res.opsByKindNS[s.op.Kind] = append(res.opsByKindNS[s.op.Kind], c.opNS[j])
		}
		if c.span != nil {
			c.span.End()
		}
	}
	if root != nil {
		root.End()
	}
	if err := waitIdle(cl.nodes, time.Now().Add(30*time.Second)); err != nil {
		return nil, err
	}
	if p.Nodes > 1 {
		if err := waitCaughtUp(cl.nodes, cl.leader, time.Now().Add(30*time.Second)); err != nil {
			return nil, err
		}
		for _, nd := range cl.nodes {
			st, err := statusOf(nd)
			if err != nil {
				return nil, err
			}
			res.clusterPrints = append(res.clusterPrints, st.Fingerprint)
		}
	}
	res.elections = res.after.counter("cluster.elections") - res.before.counter("cluster.elections")
	res.end, err = readEndState(cl.nodes[cl.follower].addr, p)
	return res, err
}

// runAll runs every client's steps concurrently and waits for all.
func runAll(clients []*client, steps [][]step, record bool) {
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(c *client, s []step) {
			defer wg.Done()
			c.run(s, record)
		}(c, steps[i])
	}
	wg.Wait()
}

// endState is the catalog as served after a run: per policy its version,
// source texts and solved assignment.
type endState map[string]servedPolicy

type servedPolicy struct {
	Version    uint64            `json:"version"`
	Lattice    string            `json:"lattice"`
	Texts      string            `json:"constraints_text"`
	Assignment map[string]string `json:"assignment"`
}

// readEndState reads every policy the service holds.
func readEndState(addr string, p *Plan) (endState, error) {
	var list struct {
		Policies []struct {
			Name string `json:"name"`
		} `json:"policies"`
	}
	if err := getJSON(addr, "/policies", &list); err != nil {
		return nil, err
	}
	out := endState{}
	for _, e := range list.Policies {
		var sp servedPolicy
		if err := getJSON(addr, "/policies/"+e.Name, &sp); err != nil {
			return nil, err
		}
		var sol servedPolicy
		if err := getJSON(addr, "/policies/"+e.Name+"/solve", &sol); err != nil {
			return nil, err
		}
		if sol.Version != sp.Version {
			return nil, fmt.Errorf("policy %s moved from version %d to %d while idle", e.Name, sp.Version, sol.Version)
		}
		sp.Assignment = sol.Assignment
		out[e.Name] = sp
	}
	return out, nil
}

// joinTexts renders a model policy's batches the way the catalog reports
// its constraints_text.
func joinTexts(texts []string) string {
	var b bytes.Buffer
	for i, t := range texts {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(t)
	}
	return b.String()
}

// cpuTick is the servers' summed CPU time at one block boundary of the
// timed part.
type cpuTick struct {
	at  time.Duration // since the timed part started
	cpu time.Duration
}

// sampleCPU reads the servers' CPU time at the start and then every
// block until stop is closed, and once more at the end.
func sampleCPU(nodes []*node, start time.Time, block time.Duration, stop <-chan struct{}) []cpuTick {
	read := func() cpuTick {
		t := cpuTick{at: time.Since(start)}
		for _, nd := range nodes {
			cpu, _ := procCPU(nd.cmd.Process.Pid)
			t.cpu += cpu
		}
		return t
	}
	ticks := []cpuTick{read()}
	tk := time.NewTicker(block)
	defer tk.Stop()
	for {
		select {
		case <-tk.C:
			ticks = append(ticks, read())
		case <-stop:
			return append(ticks, read())
		}
	}
}
