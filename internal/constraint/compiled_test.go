package constraint

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"minup/internal/lattice"
)

// Regression tests for the freeze semantics of Compile. Before the
// compile/solve split, callers could mutate a Set after deriving results
// from it and silently keep using stale graph/priority data; Compile now
// rejects mutation with ErrFrozen, and the non-freezing Snapshot documents
// that a snapshot never sees later mutation.

func compiledTestSet(t *testing.T) (*Set, lattice.Lattice) {
	t.Helper()
	lat := lattice.MustChain("c", "U", "C", "S", "TS")
	s := NewSet(lat)
	a, b := s.MustAttr("a"), s.MustAttr("b")
	lvl, err := lat.ParseLevel("S")
	if err != nil {
		t.Fatal(err)
	}
	s.MustAdd([]Attr{a}, LevelRHS(lvl))
	s.MustAdd([]Attr{b}, AttrRHS(a))
	return s, lat
}

func TestCompileFreezesSet(t *testing.T) {
	s, lat := compiledTestSet(t)
	if s.Frozen() {
		t.Fatal("set frozen before Compile")
	}
	c := s.Compile()
	if c == nil {
		t.Fatal("Compile returned nil")
	}
	if !s.Frozen() {
		t.Fatal("set not frozen after Compile")
	}

	a := s.MustAttr("a") // lookup of an existing attr stays allowed
	lvl, _ := lat.ParseLevel("C")

	if err := s.Add([]Attr{a}, LevelRHS(lvl)); !errors.Is(err, ErrFrozen) {
		t.Fatalf("Add after Compile: want ErrFrozen, got %v", err)
	}
	if err := s.AddUpper(a, lvl); !errors.Is(err, ErrFrozen) {
		t.Fatalf("AddUpper after Compile: want ErrFrozen, got %v", err)
	}
	if _, err := s.AddAttr("fresh"); !errors.Is(err, ErrFrozen) {
		t.Fatalf("AddAttr after Compile: want ErrFrozen, got %v", err)
	}

	// The rejected mutations must not have leaked into set or snapshot.
	if got := len(s.Constraints()); got != 2 {
		t.Fatalf("frozen set has %d constraints, want 2", got)
	}
	if got := s.NumAttrs(); got != 2 {
		t.Fatalf("frozen set has %d attrs, want 2", got)
	}
	if got := len(c.Constraints()); got != 2 {
		t.Fatalf("snapshot has %d constraints, want 2", got)
	}
}

func TestCompileIdempotentAttrLookupAllowed(t *testing.T) {
	s, _ := compiledTestSet(t)
	s.Compile()
	// AddAttr of an existing name is a pure lookup and must keep working
	// on a frozen set.
	a, err := s.AddAttr("a")
	if err != nil {
		t.Fatalf("AddAttr of existing name on frozen set: %v", err)
	}
	if name := s.AttrName(a); name != "a" {
		t.Fatalf("lookup returned %q", name)
	}
}

func TestSnapshotDoesNotFreeze(t *testing.T) {
	s, lat := compiledTestSet(t)
	snap := s.Snapshot()
	if s.Frozen() {
		t.Fatal("Snapshot froze the set")
	}

	// The set stays mutable...
	a := s.MustAttr("a")
	ts, _ := lat.ParseLevel("TS")
	if err := s.Add([]Attr{a}, LevelRHS(ts)); err != nil {
		t.Fatalf("Add after Snapshot: %v", err)
	}
	// ...and the snapshot is pinned at compile time: it must not see the
	// new constraint (this staleness is exactly why Compile freezes).
	if got := len(snap.Constraints()); got != 2 {
		t.Fatalf("snapshot grew to %d constraints after source mutation", got)
	}
	if got := len(s.Constraints()); got != 3 {
		t.Fatalf("source set has %d constraints, want 3", got)
	}

	// A fresh snapshot sees the addition.
	if got := len(s.Snapshot().Constraints()); got != 3 {
		t.Fatalf("fresh snapshot has %d constraints, want 3", got)
	}
}

// TestSnapshotKeepsItsNameIndex: a snapshot's view shares its set's name
// index, so the set must copy the index before it declares an attribute.
// A declare that wrote the shared map would show the new name to the
// snapshot as an attribute it does not have.
func TestSnapshotKeepsItsNameIndex(t *testing.T) {
	lat := lattice.MustChain("c", "U", "C", "S", "TS")
	s := NewSet(lat)
	s.MustAttr("a")
	c := s.Snapshot()
	b := s.MustAttr("b")
	if a, ok := c.Set().AttrByName("b"); ok {
		t.Fatalf("snapshot of a one-attribute set resolves %q, declared after it, to attribute %d", "b", a)
	}
	if a, ok := c.Set().AttrByName("a"); !ok || a != 0 || c.NumAttrs() != 1 {
		t.Fatalf("snapshot resolves %q to %d (ok=%v) over %d attributes, want 0 over 1", "a", a, ok, c.NumAttrs())
	}
	if got, ok := s.AttrByName("b"); !ok || got != b {
		t.Fatalf("set resolves %q to %d (ok=%v), want %d", "b", got, ok, b)
	}
	// A second snapshot, taken after the declare, shares the copy: the set
	// copies it again before its next declare.
	c2 := s.Snapshot()
	s.MustAttr("c")
	if _, ok := c2.Set().AttrByName("c"); ok {
		t.Fatal("second snapshot resolves an attribute declared after it")
	}
}

// TestConcurrentSnapshots: the one-shot shims snapshot one set from many
// goroutines at once, so Snapshot must not write the set plainly (run
// under -race).
func TestConcurrentSnapshots(t *testing.T) {
	s, _ := compiledTestSet(t)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if c := s.Snapshot(); c.NumAttrs() != 2 {
				t.Errorf("snapshot has %d attributes, want 2", c.NumAttrs())
			}
		}()
	}
	wg.Wait()
	s.MustAttr("x")
	if _, ok := s.Snapshot().Set().AttrByName("x"); !ok {
		t.Fatal("a snapshot taken after a declare misses it")
	}
}

// TestConcurrentCompiles: compiles running at once take their working
// storage from one pool, so goroutines compiling sets of different sizes
// must each get the numbering and Constr[A] a lone compile gives (run
// under -race).
func TestConcurrentCompiles(t *testing.T) {
	sets := []*Set{bigCompileSet(t)}
	for _, text := range []string{"a >= b\nb >= a\nc >= a\n", "lub(x, y) >= z\nz >= x\n", "p >= S\n"} {
		s := NewSet(lattice.MustChain("mil", "U", "C", "S", "TS"))
		if err := s.ParseString(text); err != nil {
			t.Fatal(err)
		}
		sets = append(sets, s)
	}
	want := make([]*Compiled, len(sets))
	on := make([][][]int, len(sets))
	for i, s := range sets {
		want[i] = s.Snapshot()
		on[i] = s.ConstraintsOn()
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := (g + i) % len(sets)
				c := sets[k].Snapshot()
				if !reflect.DeepEqual(c.Priorities(), want[k].Priorities()) ||
					constrWindowsErr(c, on[k]) != nil {
					t.Errorf("goroutine %d: compile of set %d differs from a lone compile", g, k)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestCompileCachesStructure(t *testing.T) {
	s, _ := compiledTestSet(t)
	c := s.Compile()
	if c.Graph() == nil || c.Priorities() == nil {
		t.Fatal("compiled snapshot missing graph or priorities")
	}
	if !c.Acyclic() {
		t.Fatal("acyclic instance reported cyclic")
	}
	if c.NumAttrs() != 2 {
		t.Fatalf("NumAttrs = %d, want 2", c.NumAttrs())
	}
	if c.TotalSize() != s.TotalSize() {
		t.Fatalf("TotalSize %d != set's %d", c.TotalSize(), s.TotalSize())
	}
	if c.HasUpperBounds() {
		t.Fatal("no upper bounds were added")
	}
	if err := constrWindowsErr(c, s.ConstraintsOn()); err != nil {
		t.Fatal(err)
	}
}

func TestCompileUpperBoundFixpointCached(t *testing.T) {
	lat := lattice.MustChain("c", "U", "C", "S", "TS")
	s := NewSet(lat)
	a, b := s.MustAttr("a"), s.MustAttr("b")
	cLvl, _ := lat.ParseLevel("C")
	sLvl, _ := lat.ParseLevel("S")
	s.MustAdd([]Attr{a}, AttrRHS(b))
	s.MustAddUpper(a, sLvl)
	s.MustAddUpper(b, cLvl)
	c := s.Compile()
	ub, conflicts := c.UpperBoundFixpoint()
	if conflicts != nil {
		t.Fatalf("unexpected conflicts: %v", conflicts)
	}
	if ub == nil {
		t.Fatal("no fixpoint cached for a set with upper bounds")
	}
	// a >= b with b capped at C tightens nothing on a (a's own cap S
	// stands), but b's firm bound must be C.
	if got := lat.FormatLevel(ub[b]); got != "C" {
		t.Fatalf("firm bound of b = %s, want C", got)
	}
}

// constrWindowsErr checks c's Constr[A] against on, Set.ConstraintsOn's
// lists: every attribute's window holds its list's indices and is capped
// at its length, so an append to one window cannot write into the next.
func constrWindowsErr(c *Compiled, on [][]int) error {
	if c.NumAttrs() != len(on) {
		return fmt.Errorf("compiled set has %d attributes, Set.ConstraintsOn %d", c.NumAttrs(), len(on))
	}
	for a, want := range on {
		w := c.ConstraintsOn(Attr(a))
		ok := len(w) == len(want) && cap(w) == len(w)
		for i := 0; ok && i < len(w); i++ {
			ok = int(w[i]) == want[i]
		}
		if !ok {
			return fmt.Errorf("Constr[%d] = %v (cap %d), Set.ConstraintsOn %v", a, w, cap(w), want)
		}
	}
	return nil
}
