package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime/metrics"
	"strings"
	"sync"
	"time"

	"minup/internal/catalog"
	"minup/internal/cluster"
	"minup/internal/obs"
)

// spanSample bounds the replayed steps whose spans are kept for the trace
// file; every step is still timed.
const spanSample = 200

// timer records one obs span around each public call a replay makes and
// keeps every call's duration under its span name.
type timer struct {
	tracer  *obs.Tracer
	parents map[string]*obs.Span // per name prefix: parent of the kept spans
	order   []string
	kept    map[string]int
	durs    map[string][]int64
}

func newTimer() *timer {
	return &timer{tracer: obs.NewTracer(), parents: map[string]*obs.Span{}, kept: map[string]int{},
		durs: map[string][]int64{}}
}

// root opens the span of one replayed unit of work. For each name prefix
// ("step", "layers", "wal") the first spanSample such spans are kept for
// export, as children of one "replay.<prefix>" span; later ones are timed
// and dropped.
func (t *timer) root(name string) *obs.Span {
	prefix, _, _ := strings.Cut(name, ".")
	if t.kept[prefix] >= spanSample {
		return t.tracer.Start(name)
	}
	t.kept[prefix]++
	parent := t.parents[prefix]
	if parent == nil {
		parent = t.tracer.Start("replay." + prefix)
		t.parents[prefix] = parent
		t.order = append(t.order, prefix)
	}
	return parent.Child(name)
}

// roots ends the per-prefix parents and returns them for export.
func (t *timer) roots() []*obs.Span {
	var out []*obs.Span
	for _, prefix := range t.order {
		sp := t.parents[prefix]
		sp.End()
		out = append(out, sp)
	}
	return out
}

// end closes sp and records its duration under its name, or under as when
// given.
func (t *timer) end(sp *obs.Span, as ...string) time.Duration {
	sp.End()
	d := sp.Duration()
	name := sp.Name()
	if len(as) > 0 {
		name = as[0]
	}
	t.durs[name] = append(t.durs[name], int64(d))
	return d
}

// replayPolicy is one policy of a replay's end state.
type replayPolicy struct {
	info       catalog.PolicyInfo
	assignment map[string]string
}

// replayResult is the end state an in-process replay produced and, for a
// traced replay, its per-call timings and counters.
type replayResult struct {
	state       map[string]replayPolicy
	fingerprint string // as GET /cluster reports it
	timer       *timer
	regs        []*obs.Registry // every replayed catalog's registry
	ops         int             // replayed ops, set-up included
	versions    int             // puts and appends: versions created
	records     [][]byte
	compactNS   []int64 // mutation calls that compacted a shard
	polls       int     // follower read-backs repeated until caught up
}

// replayOrder interleaves the clients' lists round-robin, the order one
// goroutine replays them in. Clients own disjoint policies, so the end
// state does not depend on the interleaving.
func replayOrder(lists [][]Op) []Op {
	var out []Op
	for i := 0; ; i++ {
		more := false
		for _, ops := range lists {
			if i < len(ops) {
				out = append(out, ops[i])
				more = true
			}
		}
		if !more {
			return out
		}
	}
}

// allOps is the whole plan in replay order: set-up, warm-up, timed.
func allOps(p *Plan) []Op {
	ops := replayOrder(p.Setup)
	ops = append(ops, replayOrder(p.Warmup)...)
	return append(ops, replayOrder(p.Timed)...)
}

// mutate applies one mutation op to cat.
func mutate(ctx context.Context, cat *catalog.Catalog, op Op, opt catalog.MutateOptions) error {
	var err error
	switch op.Kind {
	case OpPut, OpProblem:
		_, err = cat.Put(ctx, op.Name, op.policyLattice, op.policyText, catalog.Unconditional, opt)
	case OpAppend:
		_, err = cat.Append(ctx, op.Name, op.Text, catalog.Unconditional, opt)
	case OpDelete:
		err = cat.Delete(ctx, op.Name, catalog.Unconditional, opt)
	}
	if err != nil {
		return fmt.Errorf("replay %s %s: %w", op.Kind, op.Name, err)
	}
	return nil
}

// referenceReplay applies every mutation of the plan to a memory-only
// catalog, drains its refresh pipeline and reads its end state: the
// reference an untraced run's served end state is compared with.
func referenceReplay(p *Plan) (*replayResult, error) {
	cat, err := catalog.Open(catalog.Options{})
	if err != nil {
		return nil, err
	}
	defer cat.Close()
	ctx := context.Background()
	r := &replayResult{}
	for _, op := range allOps(p) {
		if op.Kind == OpRead {
			continue
		}
		if err := mutate(ctx, cat, op, catalog.MutateOptions{Wait: op.Wait}); err != nil {
			return nil, err
		}
	}
	if err := cat.Flush(ctx); err != nil {
		return nil, err
	}
	return r, r.readState(ctx, cat)
}

// readState records cat's end state.
func (r *replayResult) readState(ctx context.Context, cat *catalog.Catalog) error {
	r.state = map[string]replayPolicy{}
	for _, info := range cat.List() {
		full, err := cat.Get(info.Name)
		if err != nil {
			return err
		}
		sol, err := cat.Solve(ctx, info.Name)
		if err != nil {
			return err
		}
		r.state[info.Name] = replayPolicy{info: full, assignment: sol.Assignment}
	}
	sum := sha256.Sum256(cat.Fingerprint())
	r.fingerprint = hex.EncodeToString(sum[:8])
	return nil
}

// allocCounter reads the process's cumulative heap allocation count.
type allocCounter struct{ s []metrics.Sample }

func newAllocCounter() *allocCounter {
	return &allocCounter{s: []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}}
}

func (a *allocCounter) read() uint64 {
	metrics.Read(a.s)
	return a.s[0].Value.Uint64()
}

// inProcCluster is three cluster.Nodes over on-disk catalogs in this
// process, replicating over loopback like minupd's cluster mode.
type inProcCluster struct {
	cats   []*catalog.Catalog
	nodes  []*cluster.Node
	regs   []*obs.Registry
	leader int
}

func openInProcCluster(dir string, n int, onRecord func(catalog.RecordEvent)) (*inProcCluster, error) {
	addrs, err := freeAddrs(n)
	if err != nil {
		return nil, err
	}
	peers := map[int]string{}
	for i, a := range addrs {
		peers[i] = a
	}
	ic := &inProcCluster{}
	for i := 0; i < n; i++ {
		reg := obs.NewRegistry()
		ring := cluster.NewRecordLog(0)
		hook := ring.Append
		if i == 0 && onRecord != nil {
			hook = func(ev catalog.RecordEvent) {
				onRecord(ev)
				ring.Append(ev)
			}
		}
		cat, err := catalog.Open(catalog.Options{Dir: fmt.Sprintf("%s/node%d", dir, i), Metrics: reg, OnRecord: hook})
		if err != nil {
			ic.close()
			return nil, err
		}
		nd, err := cluster.Open(cluster.Options{ID: i, Addr: addrs[i], Peers: peers,
			HTTPAddr: "http://" + addrs[i], Catalog: cat, Records: ring, Dir: fmt.Sprintf("%s/node%d", dir, i), Metrics: reg})
		if err != nil {
			cat.Close()
			ic.close()
			return nil, err
		}
		ic.cats, ic.nodes, ic.regs = append(ic.cats, cat), append(ic.nodes, nd), append(ic.regs, reg)
	}
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		for i, nd := range ic.nodes {
			if nd.IsLeader() {
				ic.leader = i
				return ic, nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	ic.close()
	return nil, fmt.Errorf("in-process cluster elected no leader")
}

func (ic *inProcCluster) close() {
	var wg sync.WaitGroup
	for _, nd := range ic.nodes {
		wg.Add(1)
		go func(nd *cluster.Node) {
			defer wg.Done()
			nd.Close()
		}(nd)
	}
	wg.Wait()
	for _, c := range ic.cats {
		c.Close()
	}
}
