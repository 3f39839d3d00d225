package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"minup/internal/fault"
	"minup/internal/lattice"
	"minup/internal/workload"
)

// Chaos tests: concurrent solves against one compiled set while fault
// injectors delay, cancel, and panic at the solver's named fault points.
// The contract under fire is strict — every solve either returns exactly
// the clean minimal assignment or a typed error; no deadlocks, no
// corrupted pooled sessions, and clean solves afterwards are unaffected.
// Run with -race.

// chaosInjectors returns the fault mixes the storm cycles through, one per
// goroutine. Hit counting is global per injector, so an "every Nth"
// schedule fires across the goroutine's whole solve sequence.
func chaosInjectors(t *testing.T) []*fault.Injector {
	t.Helper()
	specs := []string{
		"solve.step:cancel:%7",
		"solve.try:panic:%13",
		"pool.get:cancel:%5",
		"lattice.lub:delay:%50:100us;lattice.glb:panic:%97",
		"lattice.dominates:delay:~0.02:50us",
		"solve.step:delay:%11:100us;solve.try:cancel:%29",
	}
	inj := make([]*fault.Injector, len(specs))
	for i, s := range specs {
		var err error
		inj[i], err = fault.ParseSpec(s, int64(i)+1)
		if err != nil {
			t.Fatal(err)
		}
	}
	return inj
}

func TestChaosConcurrentSolves(t *testing.T) {
	lat := lattice.MustChain("c", "U", "C", "S", "TS")
	s := workload.MustConstraints(lat, concurrentSpec(11, true))
	c := s.Compile()
	want, err := SolveContext(context.Background(), c, Options{})
	if err != nil {
		t.Fatal(err)
	}

	injectors := chaosInjectors(t)
	const goroutines = 12
	const solvesEach = 20
	var wg sync.WaitGroup
	var okCount, errCount int64
	var mu sync.Mutex
	fail := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		inj := injectors[g%len(injectors)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < solvesEach; i++ {
				res, err := SolveContext(context.Background(), c, Options{Fault: inj})
				if err != nil {
					// A faulted solve must fail with a typed error, never
					// an untyped one and never a propagated panic.
					if !errors.Is(err, ErrInternal) && !errors.Is(err, fault.ErrInjected) && !errors.Is(err, ErrCanceled) {
						fail <- fmt.Errorf("untyped chaos error: %v", err)
						return
					}
					mu.Lock()
					errCount++
					mu.Unlock()
					continue
				}
				// A solve that dodged every fault must be exactly minimal.
				if !res.Assignment.Equal(want.Assignment) {
					fail <- fmt.Errorf("chaos solve diverged:\nwant %s\ngot  %s",
						s.FormatAssignment(want.Assignment), s.FormatAssignment(res.Assignment))
					return
				}
				if verr := Verify(s, res.Assignment); verr != nil {
					fail <- fmt.Errorf("chaos solve does not verify: %v", verr)
					return
				}
				mu.Lock()
				okCount++
				mu.Unlock()
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case err := <-fail:
		t.Fatal(err)
	case <-time.After(60 * time.Second):
		t.Fatal("chaos storm deadlocked")
	}
	select {
	case err := <-fail:
		t.Fatal(err)
	default:
	}
	if errCount == 0 {
		t.Fatal("no fault ever fired — the storm tested nothing")
	}
	if okCount == 0 {
		t.Fatal("no solve ever succeeded under chaos")
	}
	t.Logf("chaos storm: %d ok, %d typed errors", okCount, errCount)

	// The pool took panics and cancellations; it must still hand out
	// working sessions.
	for i := 0; i < 8; i++ {
		res, err := SolveContext(context.Background(), c, Options{})
		if err != nil {
			t.Fatalf("clean solve %d after chaos: %v", i, err)
		}
		if !res.Assignment.Equal(want.Assignment) {
			t.Fatalf("clean solve %d after chaos diverged", i)
		}
	}
}

func TestPanicIsolation(t *testing.T) {
	lat := lattice.MustChain("c", "U", "C", "S", "TS")
	s := workload.MustConstraints(lat, concurrentSpec(3, false))
	c := s.Compile()

	before := PanicsRecovered()
	inj := fault.New(1)
	inj.MustAdd(fault.Rule{Point: "solve.step", Act: fault.Panic, Nth: 1})
	res, err := SolveContext(context.Background(), c, Options{Fault: inj})
	if err == nil {
		t.Fatalf("injected panic produced a result: %v", res)
	}
	if !errors.Is(err, ErrInternal) {
		t.Fatalf("panic surfaced as %v, want ErrInternal", err)
	}
	var ie *InternalError
	if !errors.As(err, &ie) {
		t.Fatalf("error %T does not unwrap to *InternalError", err)
	}
	if len(ie.Stack) == 0 {
		t.Fatal("InternalError carries no stack")
	}
	if _, ok := ie.Recovered.(*fault.PanicError); !ok {
		t.Fatalf("recovered value %T is not the injected *fault.PanicError", ie.Recovered)
	}
	if got := PanicsRecovered(); got != before+1 {
		t.Fatalf("PanicsRecovered = %d, want %d", got, before+1)
	}

	// The panicking session was discarded, not pooled: the next solve gets
	// clean state.
	if _, err := SolveContext(context.Background(), c, Options{}); err != nil {
		t.Fatalf("solve after panic: %v", err)
	}
}

func TestLatticePanicConvertsToInternal(t *testing.T) {
	// A Cancel rule at a value-returning lattice point has no error path:
	// it panics, and the recovery guard must convert that to ErrInternal.
	lat := lattice.MustChain("c", "U", "C", "S", "TS")
	s := workload.MustConstraints(lat, concurrentSpec(5, false))
	c := s.Compile()
	inj := fault.New(1)
	inj.MustAdd(fault.Rule{Point: "lattice.lub", Act: fault.Cancel, Nth: 1})
	_, err := SolveContext(context.Background(), c, Options{Fault: inj})
	if !errors.Is(err, ErrInternal) {
		t.Fatalf("lattice cancel surfaced as %v, want ErrInternal", err)
	}
	if _, err := SolveContext(context.Background(), c, Options{}); err != nil {
		t.Fatalf("solve after lattice panic: %v", err)
	}
}

// TestChainPathOnlyUnwrapped: a session makes a chain's operations inline
// only when it calls the chain itself. Counting lattice operations or
// arming a fault injector wraps the lattice first, so every operation goes
// through the wrapper's counters and its "lattice.*" fault points.
func TestChainPathOnlyUnwrapped(t *testing.T) {
	chain := lattice.MustChain("c", "U", "C", "S", "TS")
	mls := lattice.MustMLS("m", []string{"U", "S"}, []string{"x", "y"})
	for _, tc := range []struct {
		name   string
		lat    lattice.Lattice
		opt    Options
		inline bool
	}{
		{"chain", chain, Options{}, true},
		{"chain/counted", chain, Options{CollectLatticeOps: true}, false},
		{"chain/fault", chain, Options{Fault: fault.New(1)}, false},
		{"mls", mls, Options{}, false},
	} {
		c := workload.MustConstraints(tc.lat, concurrentSpec(5, false)).Compile()
		sv := acquireSession(context.Background(), c, tc.opt)
		inline := sv.chain
		sv.release()
		if inline != tc.inline {
			t.Errorf("%s: inline chain operations %v, want %v", tc.name, inline, tc.inline)
		}
	}
}

func TestInjectedCancelIsTyped(t *testing.T) {
	lat := lattice.MustChain("c", "U", "C", "S", "TS")
	s := workload.MustConstraints(lat, concurrentSpec(9, false))
	c := s.Compile()
	inj := fault.New(1)
	inj.MustAdd(fault.Rule{Point: "solve.step", Act: fault.Cancel, Nth: 2})
	_, err := SolveContext(context.Background(), c, Options{Fault: inj})
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("injected cancel surfaced as %v, want fault.ErrInjected", err)
	}
}
