package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"minup/internal/constraint"
	"minup/internal/lattice"
	"minup/internal/workload"
)

// These tests exercise the tentpole guarantee of the compile/solve split:
// one *constraint.Compiled may serve any number of concurrent solver
// sessions, and every concurrent solve returns exactly the assignment the
// sequential path computes. Run with -race.

func concurrentSpec(seed int64, cyclic bool) workload.ConstraintSpec {
	return workload.ConstraintSpec{
		Seed:             seed,
		NumAttrs:         40,
		NumConstraints:   120,
		MaxLHS:           3,
		LevelRHSFraction: 0.3,
		Cyclic:           cyclic,
		SingleSCC:        cyclic,
	}
}

func TestConcurrentSolveSharedCompiled(t *testing.T) {
	lat := lattice.MustChain("c", "U", "C", "S", "TS")
	for _, cyclic := range []bool{false, true} {
		s := workload.MustConstraints(lat, concurrentSpec(7, cyclic))
		c := s.Compile()
		want, err := SolveContext(context.Background(), c, Options{})
		if err != nil {
			t.Fatal(err)
		}

		const goroutines = 16
		const solvesEach = 8
		var wg sync.WaitGroup
		errs := make(chan error, goroutines)
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < solvesEach; i++ {
					res, err := SolveContext(context.Background(), c, Options{})
					if err != nil {
						errs <- err
						return
					}
					if !res.Assignment.Equal(want.Assignment) {
						errs <- fmt.Errorf("cyclic=%v: concurrent solve diverged from sequential:\nwant %s\ngot  %s",
							cyclic, s.FormatAssignment(want.Assignment), s.FormatAssignment(res.Assignment))
						return
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}
}

func TestConcurrentSolveDistinctSets(t *testing.T) {
	// Goroutines each compile and solve their own set, sharing only the
	// session pool; results must match each set's sequential solve.
	lat := lattice.MustChain("c", "U", "C", "S", "TS")
	const goroutines = 12
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			s := workload.MustConstraints(lat, concurrentSpec(seed, seed%2 == 0))
			c := s.Compile()
			want, err := SolveContext(context.Background(), c, Options{})
			if err != nil {
				errs <- err
				return
			}
			for i := 0; i < 4; i++ {
				res, err := SolveContext(context.Background(), c, Options{})
				if err != nil {
					errs <- err
					return
				}
				if !res.Assignment.Equal(want.Assignment) {
					errs <- fmt.Errorf("seed %d: repeat solve diverged", seed)
					return
				}
			}
		}(int64(100 + g))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// ringSet builds one big simple-constraint ring (a single SCC), the §3.2
// worst case, large enough that a full solve performs many thousands of
// operations.
func ringSet(t *testing.T, n int) *constraint.Set {
	t.Helper()
	lat := lattice.MustChain("c", "U", "C", "S", "TS")
	s := constraint.NewSet(lat)
	attrs := make([]constraint.Attr, n)
	for i := range attrs {
		attrs[i] = s.MustAttr(fmt.Sprintf("a%05d", i))
	}
	for i := range attrs {
		s.MustAdd([]constraint.Attr{attrs[i]}, constraint.AttrRHS(attrs[(i+1)%n]))
	}
	ts, err := lat.ParseLevel("TS")
	if err != nil {
		t.Fatal(err)
	}
	s.MustAdd([]constraint.Attr{attrs[0]}, constraint.LevelRHS(ts))
	return s
}

// TestSolveWhileSuccessorStages: a version's successor is staged into the
// spare room of the version's arrays, as the policy catalog stages an
// append, while readers solve the version's snapshot. Every reader must get
// the version's sequential answer over the version's names, and under
// -race no stage may write what a reader reads. Each reader solves the newest published version, so the
// writer always stages into the room of a version being solved.
func TestSolveWhileSuccessorStages(t *testing.T) {
	lat := lattice.MustChain("c", "U", "C", "S", "TS")
	type version struct {
		c      *constraint.Compiled
		want   string // the sequential answer, formatted
		solves atomic.Int64
	}
	publish := func(s *constraint.Set) *version {
		c := s.Snapshot()
		res, err := SolveContext(context.Background(), c, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return &version{c: c, want: c.Set().FormatAssignment(res.Assignment)}
	}
	set := workload.MustConstraints(lat, concurrentSpec(11, false))
	var cur atomic.Pointer[version]
	cur.Store(publish(set))

	const readers = 4
	stop := make(chan struct{})
	errs := make(chan error, readers)
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := cur.Load()
				res, err := SolveContext(context.Background(), v.c, Options{})
				if err != nil {
					errs <- err
					return
				}
				if got := v.c.Set().FormatAssignment(res.Assignment); got != v.want {
					errs <- fmt.Errorf("a solve of a published version diverged from its sequential answer")
					return
				}
				v.solves.Add(1)
			}
		}()
	}
	const stages = 40
	inRoom := 0
	for i := 0; i < stages; i++ {
		// Stage only once readers are solving the current version.
		for v := cur.Load(); v.solves.Load() == 0 && len(errs) == 0; {
			runtime.Gosched()
		}
		next := set.Clone()
		n := set.NumAttrs()
		x, y, z := constraint.Attr(i%n), constraint.Attr((i+1)%n), constraint.Attr((i*7+3)%n)
		if z == x || z == y {
			z = constraint.Attr((int(y) + 1) % n)
		}
		line := fmt.Sprintf("lub(%s, %s) >= %s\n%s >= C\n", set.AttrName(x), set.AttrName(y), set.AttrName(z), set.AttrName(z))
		if i%4 == 0 {
			// A new attribute, as some appends declare.
			line += fmt.Sprintf("lub(new%d, %s) >= S\n", i, set.AttrName(x))
		}
		if err := next.ParseString(line); err != nil {
			t.Fatal(err)
		}
		if old, got := set.Constraints(), next.Constraints(); &old[0] == &got[0] {
			inRoom++
		}
		set = next
		cur.Store(publish(set))
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// The first stage copies the generated list, which has no room to
	// spare; most later ones append into the room their predecessor lent.
	if inRoom < stages/2 {
		t.Fatalf("%d of %d stages appended into their predecessor's room, want at least %d", inRoom, stages, stages/2)
	}
}

func TestSolveContextAlreadyCanceled(t *testing.T) {
	c := ringSet(t, 5000).Compile()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := SolveContext(ctx, c, Options{})
	elapsed := time.Since(start)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want wrapped context.Canceled, got %v", err)
	}
	if elapsed > time.Second {
		t.Fatalf("canceled solve took %v; want prompt return", elapsed)
	}
}

// countdownCtx is a context whose Err() starts returning context.Canceled
// after a fixed number of Err() calls, giving a deterministic mid-solve
// cancellation point independent of wall-clock timing.
type countdownCtx struct {
	context.Context
	remaining atomic.Int64
}

func (c *countdownCtx) Err() error {
	if c.remaining.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

func TestSolveContextMidSolveCancel(t *testing.T) {
	c := ringSet(t, 5000).Compile()
	// The entry check spends one Err() call; the countdown then trips on a
	// later in-solve poll, well before the ring's O(n²)-ish worklist runs dry.
	ctx := &countdownCtx{Context: context.Background()}
	ctx.remaining.Store(3)
	_, err := SolveContext(ctx, c, Options{})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled from mid-solve poll, got %v", err)
	}
}

func TestRepairContextCanceled(t *testing.T) {
	s := ringSet(t, 2000)
	base := MustSolve(s, Options{}).Assignment
	n := len(s.Constraints())
	lat := s.Lattice()
	ts, _ := lat.ParseLevel("TS")
	a, _ := s.AttrByName("a01000")
	s.MustAdd([]constraint.Attr{a}, constraint.LevelRHS(ts))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := RepairContext(ctx, s, n, base, RepairOptions{})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
}

func TestProbeMinimalityContextCanceled(t *testing.T) {
	s := ringSet(t, 2000)
	c := s.Snapshot()
	m := MustSolve(s, Options{}).Assignment
	ctx := &countdownCtx{Context: context.Background()}
	ctx.remaining.Store(2)
	_, _, err := ProbeMinimalityContext(ctx, c, m)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
}
