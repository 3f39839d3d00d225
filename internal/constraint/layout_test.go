package constraint_test

import (
	"fmt"
	"reflect"
	"testing"

	"minup/internal/constraint"
	"minup/internal/graph"
	"minup/internal/lattice"
	"minup/internal/workload"
)

// TestCompiledLayoutMatchesSet: the snapshot's flat Constr[A], its
// on-demand ConstraintsInto and its SCC-derived Acyclic agree with the Set
// methods and with graph.IsAcyclic, on generated acyclic sets, cyclic sets
// and sets with §6 upper bounds.
func TestCompiledLayoutMatchesSet(t *testing.T) {
	lat := lattice.MustChain("mil", "U", "C", "S", "TS")
	specs := map[string]workload.ConstraintSpec{
		"acyclic": {NumAttrs: 40, NumConstraints: 90, MaxLHS: 3, LevelRHSFraction: 0.3},
		"cyclic":  {NumAttrs: 40, NumConstraints: 90, MaxLHS: 3, LevelRHSFraction: 0.3, Cyclic: true},
		"upper":   {NumAttrs: 40, NumConstraints: 60, MaxLHS: 2, LevelRHSFraction: 0.2, Cyclic: true, UpperBoundFraction: 0.3},
	}
	for name, spec := range specs {
		for seed := int64(1); seed <= 20; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", name, seed), func(t *testing.T) {
				spec.Seed = seed
				s, err := workload.Constraints(lat, spec)
				if err != nil {
					t.Fatal(err)
				}
				c := s.Snapshot()
				if got, want := c.Acyclic(), graph.IsAcyclic(s.Graph()); got != want {
					t.Fatalf("Compiled.Acyclic() = %v, graph.IsAcyclic = %v", got, want)
				}
				if name == "acyclic" && !c.Acyclic() {
					t.Fatal("an acyclic spec compiled as cyclic")
				}
				on := s.ConstraintsOn()
				if err := constraint.ConstrWindowsErr(c, on); err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(c.ConstraintsInto(), s.ConstraintsInto()) {
					t.Fatalf("Compiled.ConstraintsInto() = %v, Set = %v", c.ConstraintsInto(), s.ConstraintsInto())
				}
				// Constr[A] lists every lhs occurrence once, in constraint order.
				want := make([][]int, s.NumAttrs())
				for i, cn := range s.Constraints() {
					for _, a := range cn.LHS {
						want[a] = append(want[a], i)
					}
				}
				if !reflect.DeepEqual(on, want) {
					t.Fatalf("ConstraintsOn() = %v, want %v", on, want)
				}
			})
		}
	}
}

// TestConstraintsOnWindowsAreCapped: appending to one attribute's Constr[A]
// list, a Set's or a Compiled's, must not write into the next attribute's
// window of the shared array.
func TestConstraintsOnWindowsAreCapped(t *testing.T) {
	s := constraint.NewSet(lattice.MustChain("mil", "U", "C", "S", "TS"))
	if err := s.ParseString("a >= C\nb >= S\nlub(a, b) >= TS\n"); err != nil {
		t.Fatal(err)
	}
	on := s.ConstraintsOn()
	a, _ := s.AttrByName("a")
	b, _ := s.AttrByName("b")
	_ = append(on[a], 99)
	if want := []int{1, 2}; !reflect.DeepEqual(on[b], want) {
		t.Fatalf("appending to a's list changed b's to %v, want %v", on[b], want)
	}
	c := s.Snapshot()
	_ = append(c.ConstraintsOn(a), 99)
	if want := []int32{1, 2}; !reflect.DeepEqual(c.ConstraintsOn(b), want) {
		t.Fatalf("appending to a's window changed b's to %v, want %v", c.ConstraintsOn(b), want)
	}
	if err := constraint.ConstrWindowsErr(c, on); err != nil {
		t.Fatal(err)
	}
}
