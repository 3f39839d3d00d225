package depinf_test

import (
	"strings"
	"testing"

	"minup/internal/constraint"
	"minup/internal/core"
	"minup/internal/frontend"
	"minup/internal/frontend/depinf"
)

// FuzzDepinfCompile drives arbitrary bytes through parse → compile →
// parse the texts → solve → verify. Parsing the instance may reject, but a
// parsed instance must compile, its texts must parse through
// constraint.ParsePolicy (the catalog and its replicas only ever see the
// texts), the set must solve (classifying every attribute at the lattice
// top satisfies every floor and inference constraint), the result must
// pass the engine verifier, and the constraint text must be canonical: the
// parsed set writes it back byte for byte.
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
	// A duplicated premise, a self-dependency and a level the lattice
	// formats differently from how the instance spells it.
	f.Add([]byte(`{"name":"x","lattice":"explicit e\nelements U S\ncover S U\n","attrs":["p","q"],"sensitive":{"q":" S"},"deps":[{"from":["p","p"],"to":"q"},{"from":["q","p"],"to":"q"}]}`))
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
