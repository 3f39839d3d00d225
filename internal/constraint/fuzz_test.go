package constraint

import (
	"reflect"
	"testing"

	"minup/internal/lattice"
)

// FuzzParseString checks the constraint parser never panics and that any
// accepted input produces a structurally valid set (non-empty lhs, rhs
// levels inside the lattice, rhs attribute not on the lhs). Each input is
// parsed over a chain, the Fig. 1(b) explicit lattice and the Fig. 1(a)
// MLS lattice. The parser resolves a token by looking it up among the
// declared attributes before asking the lattice, which is only sound if no
// declared name parses as a level; every accepted input checks that, and
// that re-parsing each constraint's Format resolves to the same attributes
// without declaring any. Run the seeds under plain `go test`; run
// `go test -fuzz=FuzzParseString` to explore.
func FuzzParseString(f *testing.F) {
	for _, seed := range []string{
		"a >= S",
		"lub(a, b) >= TS",
		"a >= b\nb >= C",
		"S >= a",
		"attrs x y\nx >= y",
		"# comment\n\nlub(p,q,r) >= s",
		"lub( >= S",
		"a >= >=",
		"lub(a,b) >= lub(c,d)",
		">= \x00\x01",
		"a\t>=\tS",
		// Level names of the three lattices inside lub(...), as a simple
		// lhs and as the rhs.
		"lub(a, S) >= b",
		"lub(L3, a) >= b",
		"lub(a, TS, b) >= c",
		"S >= a",
		"L4 >= a\na >= L2",
		"TS >= a\nb >= TS",
		"lub(a, b) >= L5\nL6 >= a",
		// MLS literals in each position.
		"a >= <TS,{Army}>",
		"<S,{Nuclear}> >= a",
		"lub(a, <S,{Army}>) >= b",
		"lub(<TS,{}>, a) >= <S,{Army,Nuclear}>",
		"<S,{}> >= <TS,{}>",
		// Attributes declared before a token that is a level of some of
		// the lattices, or looks like one, appears.
		"attrs L2 Army\nlub(L2, Army) >= S",
		"attrs U x\nx >= U\nlub(x, U) >= L1",
		"a >= Army\nlub(Army, b) >= TS\nNuclear >= Army",
		"attrs <S x\nlub(<S, x) >= C",
	} {
		f.Add(seed)
	}
	lats := []lattice.Lattice{
		lattice.MustChain("mil", "U", "C", "S", "TS"),
		lattice.FigureOneB(),
		lattice.FigureOneA(),
	}
	f.Fuzz(func(t *testing.T, input string) {
		for _, lat := range lats {
			s := NewSet(lat)
			if err := s.ParseString(input); err != nil {
				continue
			}
			for _, c := range s.Constraints() {
				if len(c.LHS) == 0 {
					t.Fatalf("accepted constraint with empty lhs from %q over %s", input, lat.Name())
				}
				if c.RHS.IsLevel && !lat.Contains(c.RHS.Level) {
					t.Fatalf("accepted foreign level from %q over %s", input, lat.Name())
				}
				if !c.RHS.IsLevel {
					for _, a := range c.LHS {
						if a == c.RHS.Attr {
							t.Fatalf("accepted trivial constraint from %q over %s", input, lat.Name())
						}
					}
				}
			}
			for _, u := range s.UpperBounds() {
				if !lat.Contains(u.Level) || int(u.Attr) >= s.NumAttrs() {
					t.Fatalf("accepted invalid upper bound from %q over %s", input, lat.Name())
				}
			}
			for _, a := range s.Attrs() {
				if _, err := lat.ParseLevel(s.AttrName(a)); err == nil {
					t.Fatalf("declared attribute %q parses as a level of %s (from %q)", s.AttrName(a), lat.Name(), input)
				}
			}
			// The line parser, not ParseString: a single-member lub over an
			// attribute named "#x" or "attrs" formats to a line that
			// ParseString reads as a comment or a declaration.
			re := s.Clone()
			for _, c := range s.Constraints() {
				line := s.Format(c)
				if _, err := re.parseConstraintLine(line, nil); err != nil {
					t.Fatalf("formatted constraint %q does not reparse over %s: %v (from %q)", line, lat.Name(), err, input)
				}
				if re.NumAttrs() != s.NumAttrs() {
					t.Fatalf("reparsing %q over %s declared %q (from %q)", line, lat.Name(), re.AttrName(Attr(s.NumAttrs())), input)
				}
				if got := re.Constraints()[len(re.Constraints())-1]; !reflect.DeepEqual(got, c) {
					t.Fatalf("reparsing %q over %s gave %+v, want %+v (from %q)", line, lat.Name(), got, c, input)
				}
			}
		}
	})
}
