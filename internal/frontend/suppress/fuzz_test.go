package suppress_test

import (
	"strings"
	"testing"

	"minup/internal/constraint"
	"minup/internal/core"
	"minup/internal/frontend"
	"minup/internal/frontend/suppress"
)

// FuzzSuppressCompile drives arbitrary bytes through parse → compile →
// parse the texts → solve → verify. Parsing the instance may reject, but a
// parsed instance must compile, its texts must parse through
// constraint.ParsePolicy (the catalog and its replicas only ever see the
// texts), the set must solve (valid suppress instances always have a
// solution: classify everything at the top of the chain), the result must
// pass the engine verifier, and the constraint text must be canonical: the
// parsed set writes it back byte for byte.
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
	// A level named like a cell: the stored text would read the cell as
	// the level.
	f.Add([]byte(`{"name":"x","levels":["open","r1c1"],"rows":2,"cols":2,"sensitive":[{"row":0,"col":0,"level":"r1c1"}]}`))
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
		set, err := constraint.ParsePolicy(c.LatticeText, c.ConstraintText)
		if err != nil {
			t.Fatalf("compiled texts do not parse: %v", err)
		}
		res, err := core.Solve(set, core.Options{})
		if err != nil {
			t.Fatalf("compiled instance failed to solve: %v", err)
		}
		if err := core.Verify(set, res.Assignment); err != nil {
			t.Fatalf("solved assignment failed engine verify: %v", err)
		}
		var b strings.Builder
		if _, err := set.WriteTo(&b); err != nil {
			t.Fatal(err)
		}
		if b.String() != c.ConstraintText {
			t.Fatalf("constraint text is not canonical:\n%s\nwrites back as\n%s", c.ConstraintText, b.String())
		}
	})
}
