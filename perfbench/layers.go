package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"minup/internal/catalog"
	"minup/internal/constraint"
	"minup/internal/core"
	"minup/internal/frontend"
	"minup/internal/lattice"
	"minup/internal/obs"
	"minup/internal/wal"
)

// tracedReplay replays the whole plan in-process, one op at a time: each
// mutation, its read-back and, after an async mutation, a Flush of the
// refresh pipeline, with an obs span around every call. The catalog is
// opened the way minupd opens it (data directory under dir, so the same
// filesystem; fsync always; GOMAXPROCS shards; a metrics registry); on the
// cluster workload writes go to the leader of three in-process
// cluster.Nodes, each followed by the quorum Barrier, and read-backs to a
// follower.
func tracedReplay(p *Plan, dir string) (*replayResult, error) {
	r := &replayResult{timer: newTimer()}
	t := r.timer
	var mu sync.Mutex
	capture := func(ev catalog.RecordEvent) {
		mu.Lock()
		r.records = append(r.records, ev.Payload)
		mu.Unlock()
	}
	var (
		cat, readCat *catalog.Catalog
		ic           *inProcCluster
		err          error
	)
	if p.Nodes > 1 {
		if ic, err = openInProcCluster(dir, p.Nodes, capture); err != nil {
			return nil, err
		}
		defer ic.close()
		cat, readCat, r.regs = ic.cats[ic.leader], ic.cats[(ic.leader+1)%p.Nodes], ic.regs
	} else {
		r.regs = []*obs.Registry{obs.NewRegistry()}
		if cat, err = catalog.Open(catalog.Options{Dir: dir, Sync: wal.SyncAlways, Metrics: r.regs[0], OnRecord: capture}); err != nil {
			return nil, err
		}
		defer cat.Close()
		readCat = cat
	}
	ctx := context.Background()
	snapshots := r.regs[0].Counter("catalog.snapshots")
	if ic != nil {
		snapshots = ic.regs[ic.leader].Counter("catalog.snapshots")
	}
	for _, op := range allOps(p) {
		r.ops++
		root := t.root("step." + op.Kind.String())
		if op.Mutation() {
			if op.Kind != OpDelete {
				r.versions++
			}
			before := snapshots.Value()
			opt := catalog.MutateOptions{Wait: op.Wait}
			var seq uint64
			if ic != nil {
				opt.SeqOut = &seq
			}
			sp := root.Child("catalog." + callName(op))
			err := mutate(ctx, cat, op, opt)
			d := t.end(sp, mutateClass(op))
			if err != nil {
				return nil, err
			}
			if snapshots.Value() > before {
				r.compactNS = append(r.compactNS, int64(d))
			}
			if ic != nil {
				bsp := root.Child("cluster.Barrier")
				err := ic.nodes[ic.leader].Barrier(ctx, cat.ShardOf(op.Name), seq)
				t.end(bsp)
				if err != nil {
					return nil, fmt.Errorf("replay barrier %s: %w", op.Name, err)
				}
			}
		}
		if op.Kind == OpRead {
			if _, err := solve(ctx, t, root, readCat, op.Name); err != nil {
				return nil, err
			}
			t.end(root, "step")
			continue
		}
		mutated := time.Now()
		polls, err := readBack(ctx, t, root, readCat, op)
		r.polls += polls
		if err != nil {
			return nil, err
		}
		if !op.Wait {
			fsp := root.Child("catalog.Flush")
			err := cat.Flush(ctx)
			if err == nil && readCat != cat {
				err = readCat.Flush(ctx)
			}
			fsp.End()
			t.durs["catalog.refresh_lag"] = append(t.durs["catalog.refresh_lag"], int64(time.Since(mutated)))
			if err != nil {
				return nil, err
			}
		}
		if op.Kind != OpDelete {
			// The memoized serve of the version just written.
			if _, err := solve(ctx, t, root, readCat, op.Name); err != nil {
				return nil, err
			}
		}
		t.end(root, "step")
	}
	if ic != nil {
		if err := waitConverged(ic); err != nil {
			return nil, err
		}
	}
	return r, r.readState(ctx, cat)
}

// callName is the catalog method an op calls.
func callName(op Op) string {
	switch op.Kind {
	case OpAppend:
		return "Append"
	case OpDelete:
		return "Delete"
	}
	return "Put"
}

// mutateClass names the per-layer series a mutation's duration joins.
func mutateClass(op Op) string {
	switch {
	case !op.Wait:
		return "catalog.mutate"
	case op.Kind == OpAppend:
		return "catalog.append_wait"
	}
	return "catalog.put_wait"
}

// solve is one timed Catalog.Solve, filed as a memoized serve or a miss.
func solve(ctx context.Context, t *timer, root *obs.Span, cat *catalog.Catalog, name string) (catalog.SolveResult, error) {
	sp := root.Child("catalog.Solve")
	res, err := cat.Solve(ctx, name)
	class := "catalog.serve"
	if err == nil && !res.CacheHit {
		class = "catalog.miss"
	}
	t.end(sp, class)
	return res, err
}

// readBack solves op's policy on readCat right after the mutation, until
// it is served at the op's version (gone, after a delete); a follower may
// need a few polls, which it returns.
func readBack(ctx context.Context, t *timer, root *obs.Span, readCat *catalog.Catalog, op Op) (polls int, err error) {
	deadline := time.Now().Add(5 * time.Second)
	for {
		res, err := solve(ctx, t, root, readCat, op.Name)
		gone := errors.Is(err, catalog.ErrNotFound)
		switch {
		case err != nil && !gone:
			return polls, fmt.Errorf("replay read %s: %w", op.Name, err)
		case op.Kind == OpDelete && gone, op.Kind != OpDelete && !gone && res.Info.Version == op.Version:
			return polls, nil
		case time.Now().After(deadline):
			return polls, fmt.Errorf("replay read %s: not at version %d in time", op.Name, op.Version)
		}
		polls++
		time.Sleep(100 * time.Microsecond)
	}
}

// waitConverged waits until every in-process node holds the leader's
// catalog state.
func waitConverged(ic *inProcCluster) error {
	want := string(ic.cats[ic.leader].Fingerprint())
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		ok := true
		for _, c := range ic.cats {
			if string(c.Fingerprint()) != want {
				ok = false
			}
		}
		if ok {
			return nil
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("in-process replicas did not converge")
}

// maxSubLayerOps bounds the mutations whose inputs are replayed through
// compile, check, solve and repair; parsing runs on every mutation, since
// each append parses into its predecessor's set.
const maxSubLayerOps = 400

// layerCounts are the sub-layer replay's work counts.
type layerCounts struct {
	parses, parseAllocs    uint64
	solves, solveAllocs    uint64
	trySteps, descentSteps uint64
	latticeOps             uint64
	compiles, size, sccs   uint64
}

// subLayers replays the plan's mutation inputs through the layers below
// the catalog, each call timed alone in its own span: constraint parsing
// (lattice.Parse + NewSet + ParseString for a put, Clone + ParseString for
// an append), frontend Compile for a problem, and for a deterministic
// sample of at most maxSubLayerOps mutations constraint Snapshot (the
// compile, including the graph SCC step), core CheckSolvable,
// SolveContext, and for appends RepairContext from the previous version's
// solution.
func subLayers(p *Plan, t *timer) (layerCounts, error) {
	var lc layerCounts
	ops := allOps(p)
	muts := 0
	for _, op := range ops {
		if op.Kind == OpPut || op.Kind == OpAppend || op.Kind == OpProblem {
			muts++
		}
	}
	every := (muts + maxSubLayerOps - 1) / maxSubLayerOps
	type state struct {
		lat    lattice.Lattice
		set    *constraint.Set
		solved constraint.Assignment
	}
	pols := map[string]*state{}
	alloc := newAllocCounter()
	ctx := context.Background()
	i := 0
	for _, op := range ops {
		if op.Kind == OpRead {
			continue
		}
		if op.Kind == OpDelete {
			delete(pols, op.Name)
			continue
		}
		root := t.root("layers." + op.Kind.String())
		latText, text := op.Lattice, op.Text
		if op.Kind == OpProblem {
			fe, _ := frontend.Lookup(op.Family)
			inst, err := fe.Parse([]byte(op.Text))
			if err != nil {
				return lc, err
			}
			sp := root.Child("frontend.Compile")
			c, err := fe.Compile(inst)
			t.end(sp, "frontend.compile")
			if err != nil {
				return lc, err
			}
			latText, text = c.LatticeText, c.ConstraintText
		}
		prev := pols[op.Name]
		a0 := alloc.read()
		sp := root.Child("constraint.Parse")
		var st *state
		var baseCount int
		var err error
		if op.Kind == OpAppend {
			st = &state{lat: prev.lat, set: prev.set.Clone()}
			baseCount = len(prev.set.Constraints())
			err = st.set.ParseString(text)
		} else {
			st = &state{}
			if st.lat, err = lattice.Parse(strings.NewReader(latText)); err == nil {
				st.set = constraint.NewSet(st.lat)
				err = st.set.ParseString(text)
			}
		}
		t.end(sp, "constraint.parse")
		lc.parseAllocs += alloc.read() - a0
		lc.parses++
		if err != nil {
			return lc, fmt.Errorf("sub-layer parse %s: %w", op.Name, err)
		}
		pols[op.Name] = st
		sampled := i%every == 0
		i++
		if !sampled {
			root.End()
			continue
		}
		sp = root.Child("constraint.Snapshot")
		compiled := st.set.Snapshot()
		t.end(sp, "constraint.compile")
		cs := compiled.CompileStats()
		lc.compiles++
		lc.size += uint64(cs.TotalSize)
		lc.sccs += uint64(cs.SCCs)

		sp = root.Child("core.CheckSolvable")
		err = core.CheckSolvable(st.set)
		t.end(sp, "core.check")
		if err != nil {
			return lc, err
		}

		a0 = alloc.read()
		sp = root.Child("core.SolveContext")
		res, err := core.SolveContext(ctx, compiled, core.Options{})
		t.end(sp, "core.solve")
		lc.solveAllocs += alloc.read() - a0
		if err != nil {
			return lc, err
		}
		lc.solves++
		lc.trySteps += uint64(res.Stats.TrySteps)
		lc.descentSteps += uint64(res.Stats.DescentSteps)
		counted, err := core.SolveContext(ctx, compiled, core.Options{CollectLatticeOps: true})
		if err != nil {
			return lc, err
		}
		lc.latticeOps += counted.Stats.LatticeOps.Total()

		if op.Kind == OpAppend {
			base := prev.solved
			if base == nil {
				// The previous version was not sampled: solve it, untimed,
				// for the repair to start from.
				prevRes, err := core.SolveContext(ctx, prev.set.Snapshot(), core.Options{})
				if err != nil {
					return lc, err
				}
				base = prevRes.Assignment
			}
			seeded := base.Clone()
			for len(seeded) < st.set.NumAttrs() {
				seeded = append(seeded, st.lat.Bottom())
			}
			sp = root.Child("core.RepairContext")
			_, _, err := core.RepairContext(ctx, st.set, baseCount, seeded, core.RepairOptions{VerifyMinimal: true})
			t.end(sp, "core.repair")
			if err != nil {
				return lc, err
			}
		}
		st.solved = res.Assignment
		t.end(root, "layers")
	}
	return lc, nil
}

// walReplay feeds the records the catalog wrote to a wal.Log opened with
// SyncNever on the same filesystem and times Append and Sync separately.
func walReplay(records [][]byte, dir string, t *timer) (bytes uint64, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	path := filepath.Join(dir, "replay.wal")
	os.Remove(path)
	l, _, err := wal.Open(path, wal.Options{Sync: wal.SyncNever}, func([]byte) error { return nil })
	if err != nil {
		return 0, err
	}
	defer l.Close()
	for _, rec := range records {
		root := t.root("wal.record")
		sp := root.Child("wal.Append")
		err := l.Append(rec)
		t.end(sp, "wal.append")
		if err != nil {
			return bytes, err
		}
		sp = root.Child("wal.Sync")
		err = l.Sync()
		t.end(sp, "wal.fsync")
		if err != nil {
			return bytes, err
		}
		root.End()
		bytes += uint64(len(wal.EncodeFrame(rec)))
	}
	return bytes, nil
}
