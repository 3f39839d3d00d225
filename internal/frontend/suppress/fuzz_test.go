package suppress_test

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"minup/internal/constraint"
	"minup/internal/core"
	"minup/internal/frontend"
	"minup/internal/frontend/suppress"
	"minup/internal/lattice"
)

// FuzzSuppressCompile drives arbitrary bytes through parse → compile →
// solve → verify. Parsing may reject, but a parsed instance must compile,
// a compiled instance must solve (valid suppress instances always have a
// solution: classify everything at the top of the chain), the result must
// pass the engine verifier, and the emitted policy texts must reparse
// into the lattice and set that were compiled: the catalog and its
// replicas only ever see the texts.
func FuzzSuppressCompile(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		tab, err := suppress.Generate(suppress.GenSpec{Seed: seed, Rows: 3 + int(seed%4), Cols: 3 + int(seed%3)})
		if err != nil {
			f.Fatal(err)
		}
		raw, err := frontend.Marshal(tab)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add([]byte(`{"name":"x","levels":["a","b"],"rows":2,"cols":2,"sensitive":[{"row":0,"col":0,"level":"b"}]}`))
	// An NBSP inside a level name: the levels line of the stored lattice
	// text is split with strings.Fields, which splits there.
	f.Add([]byte(`{"name":"x","levels":["open","top\u00a0secret"],"rows":2,"cols":2,"sensitive":[{"row":0,"col":0,"level":"top\u00a0secret"}]}`))
	f.Add([]byte(`{"rows":-1}`))
	f.Add([]byte(`not json`))
	fe := suppress.Frontend{}
	f.Fuzz(func(t *testing.T, data []byte) {
		inst, err := fe.Parse(data)
		if err != nil {
			return
		}
		c, err := fe.Compile(inst)
		if err != nil {
			t.Fatalf("parsed instance failed to compile: %v", err)
		}
		res, err := core.Solve(c.Set, core.Options{})
		if err != nil {
			t.Fatalf("compiled instance failed to solve: %v", err)
		}
		if err := core.Verify(c.Set, res.Assignment); err != nil {
			t.Fatalf("solved assignment failed engine verify: %v", err)
		}
		lat, err := lattice.Parse(strings.NewReader(c.LatticeText))
		if err != nil {
			t.Fatalf("lattice text does not reparse: %v", err)
		}
		set := constraint.NewSet(lat)
		if err := set.ParseString(c.ConstraintText); err != nil {
			t.Fatalf("constraint text does not reparse: %v", err)
		}
		if got, want := levelNames(lat), levelNames(c.Lattice); !slices.Equal(got, want) {
			t.Fatalf("lattice text reparses to levels %q, compiled to %q", got, want)
		}
		if got, want := attrNames(set), attrNames(c.Set); !slices.Equal(got, want) {
			t.Fatalf("constraint text reparses to attributes %q, compiled to %q", got, want)
		}
		if !reflect.DeepEqual(set.Constraints(), c.Set.Constraints()) {
			t.Fatalf("constraint text reparses to other constraints:\n%s", c.ConstraintText)
		}
		if !reflect.DeepEqual(set.UpperBounds(), c.Set.UpperBounds()) {
			t.Fatalf("constraint text reparses to other upper bounds:\n%s", c.ConstraintText)
		}
	})
}

// levelNames lists a lattice's name and then its levels in element order.
// Equal lists mean equal level handles, so the constraints of two sets
// over such lattices compare directly.
func levelNames(lat lattice.Lattice) []string {
	names := []string{lat.Name()}
	for _, l := range lat.(lattice.Enumerable).Elements() {
		names = append(names, lat.FormatLevel(l))
	}
	return names
}

// attrNames lists a set's attribute names in id order.
func attrNames(s *constraint.Set) []string {
	names := make([]string, s.NumAttrs())
	for i := range names {
		names[i] = s.AttrName(constraint.Attr(i))
	}
	return names
}
