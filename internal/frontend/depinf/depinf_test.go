package depinf_test

import (
	"reflect"
	"strings"
	"testing"

	"minup/internal/constraint"
	"minup/internal/core"
	"minup/internal/frontend"
	"minup/internal/frontend/depinf"
	"minup/internal/lattice"
)

func TestDepinfRoundTrip(t *testing.T) {
	fe := depinf.Frontend{}
	for seed := int64(0); seed < 20; seed++ {
		rel, err := depinf.Generate(depinf.GenSpec{Seed: seed})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		raw, err := frontend.Marshal(rel)
		if err != nil {
			t.Fatalf("seed %d: marshal: %v", seed, err)
		}
		got, err := fe.Parse(raw)
		if err != nil {
			t.Fatalf("seed %d: parse: %v", seed, err)
		}
		if !reflect.DeepEqual(got, rel) {
			t.Fatalf("seed %d: round trip changed the instance:\n%s", seed, raw)
		}
	}
}

func TestDepinfGenerateDeterministic(t *testing.T) {
	a, err := depinf.Generate(depinf.GenSpec{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, err := depinf.Generate(depinf.GenSpec{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("Generate is not deterministic in the seed")
	}
	ca, err := depinf.Frontend{}.Compile(a)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := depinf.Frontend{}.Compile(b)
	if err != nil {
		t.Fatal(err)
	}
	if ca.ConstraintText != cb.ConstraintText || ca.LatticeText != cb.LatticeText {
		t.Fatal("Compile is not deterministic")
	}
}

func TestDepinfValidateRejects(t *testing.T) {
	base := func() *depinf.Relation {
		return &depinf.Relation{
			Name:      "r",
			Lattice:   "chain mil\nlevels U C S\n",
			Attrs:     []string{"a", "b", "c"},
			Sensitive: map[string]string{"c": "S"},
			Deps:      []depinf.Dependency{{From: []string{"a", "b"}, To: "c"}},
		}
	}
	cases := []struct {
		name   string
		break_ func(*depinf.Relation)
	}{
		{"no name", func(r *depinf.Relation) { r.Name = "" }},
		{"one attr", func(r *depinf.Relation) { r.Attrs = []string{"a"} }},
		{"dup attr", func(r *depinf.Relation) { r.Attrs = []string{"a", "a", "c"} }},
		{"attr with space", func(r *depinf.Relation) { r.Attrs = []string{"a b", "c", "d"} }},
		{"attr shadows level", func(r *depinf.Relation) { r.Attrs = []string{"U", "b", "c"} }},
		{"bad lattice", func(r *depinf.Relation) { r.Lattice = "nonsense" }},
		{"no sensitive", func(r *depinf.Relation) { r.Sensitive = nil }},
		{"unknown sensitive", func(r *depinf.Relation) { r.Sensitive = map[string]string{"z": "S"} }},
		{"unknown level", func(r *depinf.Relation) { r.Sensitive = map[string]string{"c": "Z"} }},
		{"bottom-level sensitive", func(r *depinf.Relation) { r.Sensitive = map[string]string{"c": "U"} }},
		{"empty premises", func(r *depinf.Relation) { r.Deps = []depinf.Dependency{{From: nil, To: "c"}} }},
		{"unknown premise", func(r *depinf.Relation) { r.Deps = []depinf.Dependency{{From: []string{"z"}, To: "c"}} }},
		{"unknown consequent", func(r *depinf.Relation) { r.Deps = []depinf.Dependency{{From: []string{"a"}, To: "z"}} }},
	}
	for _, tc := range cases {
		rel := base()
		tc.break_(rel)
		if err := rel.Validate(); err == nil {
			t.Errorf("%s: Validate accepted an invalid relation", tc.name)
		}
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("base relation should be valid: %v", err)
	}
}

// TestDepinfRejectsNamesThePolicyTextMisreads: the catalog stores a
// compiled instance as policy text, so Validate must refuse every
// attribute name that text would read back as something else. An NBSP
// splits "p\u00a0r" into p and r on the attrs line, after which the
// dependency line declares a fourth attribute; a sensitive "#p" floor
// line is a comment and vanishes. Names that merely contain the
// characters somewhere harmless stay valid and round-trip.
func TestDepinfRejectsNamesThePolicyTextMisreads(t *testing.T) {
	fe := depinf.Frontend{}
	relation := func(name string) []byte {
		raw, err := frontend.Marshal(&depinf.Relation{
			Name:      "r",
			Lattice:   "chain c\nlevels a b\n",
			Attrs:     []string{name, "q"},
			Sensitive: map[string]string{name: "b"},
			Deps:      []depinf.Dependency{{From: []string{"q"}, To: name}, {From: []string{name}, To: "q"}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	for _, name := range []string{"p\u00a0r", "p\vr", "p\u2003r", "p\u0085r", "p\u3000", "#p", "attrs", "p>=r"} {
		if _, err := fe.Parse(relation(name)); err == nil {
			t.Errorf("Parse accepted attribute name %q", name)
		}
	}
	for _, name := range []string{"p_r", "p#r", "attrs2", "p>r", "p\u00e9r"} {
		inst, err := fe.Parse(relation(name))
		if err != nil {
			t.Fatalf("Parse rejected attribute name %q: %v", name, err)
		}
		c, err := fe.Compile(inst)
		if err != nil {
			t.Fatal(err)
		}
		lat, err := lattice.Parse(strings.NewReader(c.LatticeText))
		if err != nil {
			t.Fatal(err)
		}
		set := constraint.NewSet(lat)
		if err := set.ParseString(c.ConstraintText); err != nil {
			t.Fatalf("%q: %v", name, err)
		}
		if set.NumAttrs() != 2 || !reflect.DeepEqual(set.Constraints(), c.Set.Constraints()) {
			t.Errorf("%q: policy text reads back as a different set:\n%s", name, c.ConstraintText)
		}
	}
}

// TestDepinfOracleSweep is the property test the issue demands: across a
// seeded sweep of generated relations, the solver's minimal assignment
// must pass the source-level oracle — no dependency chain reaches a
// sensitive attribute below its assigned level, and every retained
// upgrade is load-bearing for some inference path.
func TestDepinfOracleSweep(t *testing.T) {
	fe := depinf.Frontend{}
	const instances = 220
	for seed := int64(0); seed < instances; seed++ {
		spec := depinf.GenSpec{
			Seed:   seed,
			Depth:  2 + int(seed%6),
			Width:  2 + int(seed%4),
			Levels: 2 + int(seed%4),
			Extra:  1 + int(seed%5),
		}
		rel, err := depinf.Generate(spec)
		if err != nil {
			t.Fatalf("seed %d: generate: %v", seed, err)
		}
		c, err := fe.Compile(rel)
		if err != nil {
			t.Fatalf("seed %d: compile: %v", seed, err)
		}
		res, err := core.Solve(c.Set, core.Options{})
		if err != nil {
			t.Fatalf("seed %d: solve: %v", seed, err)
		}
		if err := core.Verify(c.Set, res.Assignment); err != nil {
			t.Fatalf("seed %d: engine verify: %v", seed, err)
		}
		if err := fe.Oracle(c, res.Assignment); err != nil {
			t.Fatalf("seed %d: source oracle rejected the solved relation: %v", seed, err)
		}
	}
}

// TestDepinfOracleRejectsTampered proves the oracle has teeth.
func TestDepinfOracleRejectsTampered(t *testing.T) {
	fe := depinf.Frontend{}
	rel, err := depinf.Generate(depinf.GenSpec{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	c, err := fe.Compile(rel)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Solve(c.Set, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	attrOf := func(name string) constraint.Attr {
		a, ok := c.Set.AttrByName(name)
		if !ok {
			t.Fatalf("missing attribute %q", name)
		}
		return a
	}

	// Dropping a sensitive attribute to bottom violates its floor.
	var sensAttr string
	for a := range rel.Sensitive {
		sensAttr = a
		break
	}
	low := res.Assignment.Clone()
	low[attrOf(sensAttr)] = c.Lattice.Bottom()
	if err := fe.Oracle(c, low); err == nil {
		t.Fatal("oracle accepted a sensitive attribute below its floor")
	}

	// Raising a layer-0 attribute (never a dependency consequent, so never
	// derivable) keeps the relation secure but is not minimal.
	enum := c.Lattice.(lattice.Enumerable)
	top := enum.Elements()[0]
	for _, l := range enum.Elements() {
		if c.Lattice.Dominates(l, top) {
			top = l
		}
	}
	isConsequent := make(map[string]bool)
	for _, d := range rel.Deps {
		isConsequent[d.To] = true
	}
	raised := res.Assignment.Clone()
	found := false
	for _, name := range rel.Attrs {
		if _, sensitive := rel.Sensitive[name]; sensitive || isConsequent[name] {
			continue
		}
		if a := attrOf(name); raised[a] != top {
			raised[a] = top
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no non-consequent attribute below top to tamper with")
	}
	err = fe.Oracle(c, raised)
	if err == nil {
		t.Fatal("oracle accepted a gratuitous upgrade")
	}
	if !strings.Contains(err.Error(), "not minimal") {
		t.Fatalf("expected a minimality complaint, got: %v", err)
	}
}

// TestDepinfChainPropagation pins the core of the reduction: protection
// propagates backward through a dependency chain, so hiding the sensitive
// end forces enough of the chain's premises up to cut every derivation.
func TestDepinfChainPropagation(t *testing.T) {
	rel := &depinf.Relation{
		Name:      "chain3",
		Lattice:   "chain mil\nlevels U S\n",
		Attrs:     []string{"a", "b", "c"},
		Sensitive: map[string]string{"c": "S"},
		Deps: []depinf.Dependency{
			{From: []string{"a"}, To: "b"},
			{From: []string{"b"}, To: "c"},
		},
	}
	fe := depinf.Frontend{}
	c, err := fe.Compile(rel)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Solve(c.Set, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := fe.Oracle(c, res.Assignment); err != nil {
		t.Fatalf("oracle: %v", err)
	}
	// a derives b derives c, so all three must be secret: a U-cleared
	// viewer seeing a would close the whole chain.
	s, err := c.Lattice.ParseLevel("S")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range rel.Attrs {
		a, ok := c.Set.AttrByName(name)
		if !ok {
			t.Fatalf("missing attribute %q", name)
		}
		if res.Assignment[a] != s {
			t.Fatalf("attribute %q should be S, is %s", name, c.Lattice.FormatLevel(res.Assignment[a]))
		}
	}
}
