package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// barrierLeader is a one-node leader built white-box: no peers, so the
// commit point is the node's own log position, which a test advances.
func barrierLeader(timeout time.Duration) *Node {
	return &Node{
		opt:    Options{CommitTimeout: timeout},
		role:   RoleLeader,
		ownSeq: []uint64{0},
		commit: make([]uint64, 1),
		stopCh: make(chan struct{}),
	}
}

// commitTo advances the node's log, and so its commit point, to seq.
func (n *Node) commitTo(seq uint64) {
	n.mu.Lock()
	n.ownSeq[0] = seq
	n.recomputeCommitLocked(0)
	n.mu.Unlock()
}

// TestBarrierWaitAllocs: a Barrier that waits for its commit takes a
// waiter, its channel and its timer from the node's free list, so once
// warm it allocates nothing.
func TestBarrierWaitAllocs(t *testing.T) {
	n := barrierLeader(time.Minute)
	seqs := make(chan uint64)
	done := make(chan struct{})
	go func() {
		defer close(done)
		// Commit each record once its Barrier is parked.
		for seq := range seqs {
			for {
				n.mu.Lock()
				parked := len(n.waiters) > 0
				n.mu.Unlock()
				if parked {
					break
				}
				runtime.Gosched()
			}
			n.commitTo(seq)
		}
	}()
	ctx := context.Background()
	var seq uint64
	var err error
	wait := func() {
		seq++
		seqs <- seq
		if e := n.Barrier(ctx, 0, seq); e != nil && err == nil {
			err = e
		}
	}
	wait()
	allocs := testing.AllocsPerRun(100, wait)
	close(seqs)
	<-done
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("a warm Barrier that waits allocates %v times, want 0", allocs)
	}
}

// TestBarrierReusedWaitersKeepResults: Barrier calls whose records commit,
// whose contexts are canceled and whose commit timeouts pass share reused
// waiters, and no call may return a result meant for another: a nil for a
// record that has not committed, a timeout before its own timeout passed,
// or a cancellation of a context nobody canceled (run under -race).
func TestBarrierReusedWaitersKeepResults(t *testing.T) {
	const timeout = 2 * time.Millisecond
	n := barrierLeader(timeout)
	stop := make(chan struct{})
	committer := make(chan struct{})
	go func() {
		defer close(committer)
		for seq := uint64(1); ; seq++ {
			select {
			case <-stop:
				return
			case <-time.After(50 * time.Microsecond):
			}
			n.commitTo(seq)
		}
	}()
	const workers, calls = 8, 200
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < calls; i++ {
				n.mu.Lock()
				// 1..40 records ahead: some commit within the timeout, some not.
				seq := n.commit[0] + 1 + uint64(rng.Intn(40))
				n.mu.Unlock()
				ctx, cancel := context.WithCancel(context.Background())
				if rng.Intn(3) == 0 {
					time.AfterFunc(time.Duration(rng.Intn(3000))*time.Microsecond, cancel)
				}
				start := time.Now()
				err := n.Barrier(ctx, 0, seq)
				elapsed := time.Since(start)
				canceled := ctx.Err() != nil
				cancel()
				n.mu.Lock()
				committed := n.commit[0] >= seq
				n.mu.Unlock()
				var bad error
				switch {
				case err == nil:
					if !committed {
						bad = fmt.Errorf("seq %d acked before it committed", seq)
					}
				case errors.Is(err, ErrNoQuorum):
					if elapsed < timeout || !strings.Contains(err.Error(), fmt.Sprintf(" seq %d ", seq)) {
						bad = fmt.Errorf("seq %d: %v after %s", seq, err, elapsed)
					}
				case errors.Is(err, context.Canceled):
					if !canceled {
						bad = fmt.Errorf("seq %d: canceled, but its context was not", seq)
					}
				default:
					bad = fmt.Errorf("seq %d: %v", seq, err)
				}
				if bad != nil {
					errs <- bad
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	<-committer
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if len(n.waiters) != 0 {
		t.Fatalf("%d waiters left parked after every call returned", len(n.waiters))
	}
	for _, w := range n.freeWaiters {
		if len(w.ch) != 0 {
			t.Fatal("a free waiter holds a result")
		}
	}
}
