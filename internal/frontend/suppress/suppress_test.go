package suppress_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"minup/internal/constraint"
	"minup/internal/core"
	"minup/internal/frontend"
	"minup/internal/frontend/suppress"
	"minup/internal/lattice"
)

func TestSuppressRoundTrip(t *testing.T) {
	fe := suppress.Frontend{}
	for seed := int64(0); seed < 20; seed++ {
		tab, err := suppress.Generate(suppress.GenSpec{Seed: seed})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		raw, err := frontend.Marshal(tab)
		if err != nil {
			t.Fatalf("seed %d: marshal: %v", seed, err)
		}
		got, err := fe.Parse(raw)
		if err != nil {
			t.Fatalf("seed %d: parse: %v", seed, err)
		}
		if !reflect.DeepEqual(got, tab) {
			t.Fatalf("seed %d: round trip changed the instance:\n%s", seed, raw)
		}
	}
}

func TestSuppressGenerateDeterministic(t *testing.T) {
	a, err := suppress.Generate(suppress.GenSpec{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, err := suppress.Generate(suppress.GenSpec{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("Generate is not deterministic in the seed")
	}
	ca, err := suppress.Frontend{}.Compile(a)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := suppress.Frontend{}.Compile(b)
	if err != nil {
		t.Fatal(err)
	}
	if ca.ConstraintText != cb.ConstraintText || ca.LatticeText != cb.LatticeText {
		t.Fatal("Compile is not deterministic")
	}
}

func TestSuppressValidateRejects(t *testing.T) {
	base := func() *suppress.Table {
		return &suppress.Table{
			Name:      "t",
			Levels:    []string{"open", "secret"},
			Rows:      3,
			Cols:      3,
			Sensitive: []suppress.Cell{{Row: 1, Col: 1, Level: "secret"}},
		}
	}
	cases := []struct {
		name   string
		break_ func(*suppress.Table)
	}{
		{"no name", func(t *suppress.Table) { t.Name = "" }},
		{"too small", func(t *suppress.Table) { t.Rows = 1 }},
		{"too wide", func(t *suppress.Table) { t.Cols = 1000 }},
		{"one level", func(t *suppress.Table) { t.Levels = []string{"open"} }},
		{"dup level", func(t *suppress.Table) { t.Levels = []string{"open", "open"} }},
		{"level with space", func(t *suppress.Table) { t.Levels = []string{"open", "top secret"} }},
		{"no sensitive", func(t *suppress.Table) { t.Sensitive = nil }},
		{"cell out of bounds", func(t *suppress.Table) { t.Sensitive[0].Row = 9 }},
		{"negative cell", func(t *suppress.Table) { t.Sensitive[0].Col = -1 }},
		{"dup cell", func(t *suppress.Table) { t.Sensitive = append(t.Sensitive, t.Sensitive[0]) }},
		{"unknown level", func(t *suppress.Table) { t.Sensitive[0].Level = "mystery" }},
		{"bottom-level sensitive", func(t *suppress.Table) { t.Sensitive[0].Level = "open" }},
	}
	for _, tc := range cases {
		tab := base()
		tc.break_(tab)
		if err := tab.Validate(); err == nil {
			t.Errorf("%s: Validate accepted an invalid table", tc.name)
		}
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("base table should be valid: %v", err)
	}
}

// TestSuppressRejectsLevelsThePolicyTextSplits: the catalog stores a
// compiled table as policy text, and the levels line of its lattice text
// is split with strings.Fields. A level "top\u00a0secret" would come back
// as two levels, its floor line would name an unknown level and so
// declare a fifth attribute, and the sensitive cell would be served at
// the bottom level. Validate must refuse white space of any kind.
func TestSuppressRejectsLevelsThePolicyTextSplits(t *testing.T) {
	fe := suppress.Frontend{}
	for _, level := range []string{"top\u00a0secret", "top\vsecret", "top\u2003secret", "top\u0085secret", "top\u3000"} {
		raw, err := frontend.Marshal(&suppress.Table{
			Name:      "t",
			Levels:    []string{"open", level},
			Rows:      2,
			Cols:      2,
			Sensitive: []suppress.Cell{{Row: 0, Col: 0, Level: level}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fe.Parse(raw); err == nil {
			t.Errorf("Parse accepted level name %q", level)
		}
	}
}

// TestSuppressOracleSweep is the property test the issue demands: across a
// seeded sweep of generated tables, the solver's minimal assignment must
// pass the frontend's source-level oracle — no sensitive cell inferable
// from published marginals, and every retained upgrade load-bearing.
func TestSuppressOracleSweep(t *testing.T) {
	fe := suppress.Frontend{}
	const instances = 220
	for seed := int64(0); seed < instances; seed++ {
		spec := suppress.GenSpec{
			Seed:    seed,
			Rows:    3 + int(seed%7),
			Cols:    3 + int(seed%5),
			Levels:  2 + int(seed%4),
			Density: 0.08 + 0.04*float64(seed%8),
		}
		tab, err := suppress.Generate(spec)
		if err != nil {
			t.Fatalf("seed %d: generate: %v", seed, err)
		}
		c, err := fe.Compile(tab)
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
			t.Fatalf("seed %d: source oracle rejected the solved table: %v", seed, err)
		}
	}
}

// TestSuppressOracleRejectsTampered proves the oracle has teeth: a floor
// violation and a gratuitous upgrade are both caught.
func TestSuppressOracleRejectsTampered(t *testing.T) {
	fe := suppress.Frontend{}
	tab, err := suppress.Generate(suppress.GenSpec{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	c, err := fe.Compile(tab)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Solve(c.Set, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	attrOf := func(i, j int) constraint.Attr {
		a, ok := c.Set.AttrByName(fmt.Sprintf("r%dc%d", i, j))
		if !ok {
			t.Fatalf("missing cell (%d,%d)", i, j)
		}
		return a
	}

	// Dropping a sensitive cell to the published level violates its floor.
	low := res.Assignment.Clone()
	s0 := tab.Sensitive[0]
	low[attrOf(s0.Row, s0.Col)] = c.Lattice.Bottom()
	if err := fe.Oracle(c, low); err == nil {
		t.Fatal("oracle accepted a sensitive cell at the published level")
	}

	// Raising a non-sensitive published cell is secure but not minimal.
	top, err := c.Lattice.ParseLevel(tab.Levels[len(tab.Levels)-1])
	if err != nil {
		t.Fatal(err)
	}
	sens := make(map[[2]int]bool)
	for _, s := range tab.Sensitive {
		sens[[2]int{s.Row, s.Col}] = true
	}
	raised := res.Assignment.Clone()
	found := false
	for i := 0; i < tab.Rows && !found; i++ {
		for j := 0; j < tab.Cols && !found; j++ {
			if !sens[[2]int{i, j}] && raised[attrOf(i, j)] == c.Lattice.Bottom() {
				raised[attrOf(i, j)] = top
				found = true
			}
		}
	}
	if !found {
		t.Fatal("no published non-sensitive cell to tamper with")
	}
	err = fe.Oracle(c, raised)
	if err == nil {
		t.Fatal("oracle accepted a gratuitous upgrade")
	}
	if !strings.Contains(err.Error(), "not minimal") {
		t.Fatalf("expected a minimality complaint, got: %v", err)
	}
}

// TestSuppressComplementaryCount spot-checks the reduction on the classic
// single-sensitive-cell table: protecting one cell forces exactly three
// suppressions (the cell plus one row-mate plus one column-mate... the
// row/column complements themselves then being each other's cover).
func TestSuppressComplementaryCount(t *testing.T) {
	tab := &suppress.Table{
		Name:      "corner",
		Levels:    []string{"open", "secret"},
		Rows:      3,
		Cols:      3,
		Sensitive: []suppress.Cell{{Row: 0, Col: 0, Level: "secret"}},
	}
	fe := suppress.Frontend{}
	c, err := fe.Compile(tab)
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
	hidden := 0
	for _, l := range res.Assignment {
		if l != c.Lattice.Bottom() {
			hidden++
		}
	}
	// The sensitive cell, one row complement, one column complement, and
	// (since those complements are themselves hidden and must not be the
	// only hidden cells in their own lines at the attacked clearance —
	// which they are not, the sensitive cell covers them) nothing more is
	// strictly required by the single-equation model than 3; the solver may
	// legitimately settle on 4 (closing the rectangle) only if 3 is not
	// achievable, so accept the minimal pattern sizes.
	if hidden < 3 || hidden > 4 {
		t.Fatalf("expected 3-4 suppressed cells for one sensitive corner cell, got %d", hidden)
	}
	lat, err := lattice.Parse(strings.NewReader(c.LatticeText))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := lat.Name(), c.Lattice.Name(); got != want {
		t.Fatalf("lattice text names %q, compiled lattice is %q", got, want)
	}
}
