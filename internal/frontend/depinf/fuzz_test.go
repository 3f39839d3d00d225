package depinf_test

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"minup/internal/constraint"
	"minup/internal/core"
	"minup/internal/frontend"
	"minup/internal/frontend/depinf"
	"minup/internal/lattice"
)

// FuzzDepinfCompile drives arbitrary bytes through parse → compile →
// solve → verify. Parsing may reject, but a parsed instance must compile,
// a compiled instance must solve (classifying every attribute at the
// lattice top satisfies every floor and inference constraint), the result
// must pass the engine verifier, and the emitted policy texts must
// reparse into the lattice and set that were compiled: the catalog and
// its replicas only ever see the texts.
func FuzzDepinfCompile(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		rel, err := depinf.Generate(depinf.GenSpec{Seed: seed, Depth: 2 + int(seed%4)})
		if err != nil {
			f.Fatal(err)
		}
		raw, err := frontend.Marshal(rel)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add([]byte(`{"name":"x","lattice":"chain c\nlevels a b\n","attrs":["p","q"],"sensitive":{"q":"b"},"deps":[{"from":["p"],"to":"q"}]}`))
	// An NBSP inside an attribute name: the attrs line of the stored text
	// is split with strings.Fields, which splits there.
	f.Add([]byte(`{"name":"x","lattice":"chain c\nlevels a b\n","attrs":["p\u00a0r","q"],"sensitive":{"q":"b"},"deps":[{"from":["p\u00a0r"],"to":"q"}]}`))
	f.Add([]byte(`{"attrs":[]}`))
	f.Add([]byte(`not json`))
	fe := depinf.Frontend{}
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
