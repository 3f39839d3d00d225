package main

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// node is one running minupd process.
type node struct {
	id      int
	cmd     *exec.Cmd
	addr    string // service listener
	debug   string // debug listener (/debug/vars)
	repl    string // cluster replication listener, cluster mode only
	dir     string // data directory
	logPath string // stderr: one JSON access-log line per request
	log     *os.File
	done    chan struct{} // closed once the process has exited and been waited for
}

// freeAddrs reserves n loopback ports by binding and releasing them.
func freeAddrs(n int) ([]string, error) {
	var out []string
	var lns []net.Listener
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns = append(lns, ln)
		out = append(out, ln.Addr().String())
	}
	return out, nil
}

// startNodes launches n minupd processes (a cluster when n > 1) with data
// directories under dir and the default -fsync always. It does not wait
// for them to be ready.
func startNodes(binary, dir string, n int) ([]*node, error) {
	addrs, err := freeAddrs(3 * n)
	if err != nil {
		return nil, err
	}
	nodes := make([]*node, n)
	var peers []string
	for i := range nodes {
		nodes[i] = &node{id: i, addr: addrs[3*i], debug: addrs[3*i+1], repl: addrs[3*i+2],
			dir: filepath.Join(dir, fmt.Sprintf("node%d", i))}
		peers = append(peers, fmt.Sprintf("%d=%s", i, nodes[i].repl))
	}
	for _, nd := range nodes {
		args := []string{"-addr", nd.addr, "-debug-addr", nd.debug, "-data-dir", nd.dir}
		if n > 1 {
			args = append(args, "-cluster-node", strconv.Itoa(nd.id),
				"-cluster-peers", strings.Join(peers, ","),
				"-cluster-http", "http://"+nd.addr)
		}
		if err := os.MkdirAll(nd.dir, 0o755); err != nil {
			stopNodes(nodes)
			return nil, err
		}
		nd.logPath = filepath.Join(dir, fmt.Sprintf("node%d.log", nd.id))
		if nd.log, err = os.Create(nd.logPath); err != nil {
			stopNodes(nodes)
			return nil, err
		}
		nd.cmd = exec.Command(binary, args...)
		nd.cmd.Stdout, nd.cmd.Stderr = nd.log, nd.log
		nd.cmd.Env = serverEnv()
		// The kernel kills the server if the benchmark process dies
		// without stopping it.
		nd.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := nd.cmd.Start(); err != nil {
			stopNodes(nodes)
			return nil, fmt.Errorf("starting minupd: %w", err)
		}
		nd.done = make(chan struct{})
		go func(nd *node) {
			nd.cmd.Wait()
			close(nd.done)
		}(nd)
		live.add(nd)
	}
	return nodes, nil
}

// serverEnv is the servers' environment: this process's, without any
// GOMAXPROCS or GOGC override, so servers run with the defaults users get.
func serverEnv() []string {
	var env []string
	for _, kv := range os.Environ() {
		if strings.HasPrefix(kv, "GOMAXPROCS=") || strings.HasPrefix(kv, "GOGC=") || strings.HasPrefix(kv, "GODEBUG=") {
			continue
		}
		env = append(env, kv)
	}
	return env
}

// stopNodes terminates every started node and waits for it to exit.
func stopNodes(nodes []*node) {
	for _, nd := range nodes {
		if nd != nil && nd.done != nil {
			nd.cmd.Process.Signal(syscall.SIGTERM)
		}
	}
	for _, nd := range nodes {
		if nd == nil {
			continue
		}
		if nd.done != nil {
			select {
			case <-nd.done:
			case <-time.After(5 * time.Second):
				nd.cmd.Process.Kill()
				<-nd.done
			}
		}
		if nd.log != nil {
			nd.log.Close()
		}
		live.remove(nd)
	}
}

// liveNodes tracks the started servers, so an interrupted run can stop
// them before it exits.
type liveNodes struct {
	mu    sync.Mutex
	nodes map[*node]bool
}

var live = &liveNodes{nodes: map[*node]bool{}}

func (l *liveNodes) add(nd *node) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.nodes[nd] = true
}

func (l *liveNodes) remove(nd *node) {
	l.mu.Lock()
	defer l.mu.Unlock()
	delete(l.nodes, nd)
}

// stopAll stops every server still running.
func (l *liveNodes) stopAll() {
	l.mu.Lock()
	nodes := make([]*node, 0, len(l.nodes))
	for nd := range l.nodes {
		nodes = append(nodes, nd)
	}
	l.mu.Unlock()
	stopNodes(nodes)
}

// waitHealthy polls /healthz every 250µs until it answers 200.
func waitHealthy(nd *node, deadline time.Time) error {
	req := request("GET", "/healthz", nil)
	for time.Now().Before(deadline) {
		if exited(nd) {
			return fmt.Errorf("minupd node %d exited during start-up; see %s", nd.id, nd.logPath)
		}
		c, err := dial(nd.addr)
		if err == nil {
			status, _, err := c.do(req)
			c.Close()
			if err == nil && status == 200 {
				return nil
			}
		}
		time.Sleep(250 * time.Microsecond)
	}
	return fmt.Errorf("minupd node %d not healthy in time; see %s", nd.id, nd.logPath)
}

func exited(nd *node) bool {
	select {
	case <-nd.done:
		return true
	default:
		return false
	}
}

// clusterStatus is the part of GET /cluster the benchmark reads.
type clusterStatus struct {
	Role        string   `json:"role"`
	LeaderID    int      `json:"leader_id"`
	Shards      []uint64 `json:"shards"`
	Fingerprint string   `json:"fingerprint"`
}

func statusOf(nd *node) (clusterStatus, error) {
	var st clusterStatus
	err := getJSON(nd.addr, "/cluster", &st)
	return st, err
}

// waitLeader polls every node's /cluster every 500µs until all agree on
// one leader, and returns its index.
func waitLeader(nodes []*node, deadline time.Time) (int, error) {
	for time.Now().Before(deadline) {
		leader, agree := -1, true
		for i, nd := range nodes {
			st, err := statusOf(nd)
			switch {
			case err != nil:
				agree = false
			case i == 0:
				leader = st.LeaderID
			case st.LeaderID != leader:
				agree = false
			}
			if agree && leader == nd.id && st.Role != "leader" {
				agree = false
			}
		}
		if agree && leader >= 0 && leader < len(nodes) {
			if st, err := statusOf(nodes[leader]); err == nil && st.Role == "leader" {
				return leader, nil
			}
		}
		time.Sleep(500 * time.Microsecond)
	}
	return -1, fmt.Errorf("no cluster leader elected in time")
}

// waitCaughtUp polls until every follower has applied the leader's
// per-shard sequence numbers.
func waitCaughtUp(nodes []*node, leader int, deadline time.Time) error {
	for time.Now().Before(deadline) {
		lst, err := statusOf(nodes[leader])
		if err != nil {
			return err
		}
		ok := true
		for _, nd := range nodes {
			st, err := statusOf(nd)
			if err != nil || !equalSeqs(st.Shards, lst.Shards) {
				ok = false
				break
			}
		}
		if ok {
			return nil
		}
		time.Sleep(500 * time.Microsecond)
	}
	return fmt.Errorf("followers did not reach the leader's sequence numbers in time")
}

func equalSeqs(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// serverVars is the part of /debug/vars the benchmark reads: the runtime's
// allocation counters and minupd's metrics registry.
type serverVars struct {
	MemStats struct {
		Mallocs    uint64
		TotalAlloc uint64
	} `json:"memstats"`
	Minup registrySnapshot `json:"minup"`
}

// registrySnapshot mirrors obs.Snapshot's JSON shape.
type registrySnapshot struct {
	Counters   map[string]uint64 `json:"counters"`
	Gauges     map[string]int64  `json:"gauges"`
	Histograms map[string]struct {
		Count uint64 `json:"count"`
		Sum   uint64 `json:"sum"`
	} `json:"histograms"`
}

func varsOf(nd *node) (serverVars, error) {
	var v serverVars
	err := getJSON(nd.debug, "/debug/vars", &v)
	return v, err
}

// procCPU returns the process's user plus system CPU time from
// /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, _ := strconv.ParseInt(f[11], 10, 64)
	stime, _ := strconv.ParseInt(f[12], 10, 64)
	return time.Duration(utime+stime) * (time.Second / clockTicks), nil
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat times; 100 on every
// Linux architecture Go supports.
const clockTicks = 100

// procHWM returns the process's peak resident set (VmHWM) in bytes.
func procHWM(pid int) (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
			return kb << 10, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// serverSample is one read of every node's counters.
type serverSample struct {
	vars []serverVars
	cpu  time.Duration
	log  int64 // access-log bytes
}

func sampleServers(nodes []*node) (serverSample, error) {
	var s serverSample
	for _, nd := range nodes {
		v, err := varsOf(nd)
		if err != nil {
			return s, err
		}
		s.vars = append(s.vars, v)
		cpu, err := procCPU(nd.cmd.Process.Pid)
		if err != nil {
			return s, err
		}
		s.cpu += cpu
		if fi, err := os.Stat(nd.logPath); err == nil {
			s.log += fi.Size()
		}
	}
	return s, nil
}

func (s serverSample) mallocs() (n uint64) {
	for _, v := range s.vars {
		n += v.MemStats.Mallocs
	}
	return n
}

func (s serverSample) allocBytes() (n uint64) {
	for _, v := range s.vars {
		n += v.MemStats.TotalAlloc
	}
	return n
}

func (s serverSample) counter(name string) (n uint64) {
	for _, v := range s.vars {
		n += v.Minup.Counters[name]
	}
	return n
}

// hist sums one histogram's count and sum over nodes.
func (s serverSample) hist(name string) (count, sum uint64) {
	for _, v := range s.vars {
		h := v.Minup.Histograms[name]
		count += h.Count
		sum += h.Sum
	}
	return count, sum
}
