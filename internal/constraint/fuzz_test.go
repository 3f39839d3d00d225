package constraint

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"minup/internal/graph"
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
// without declaring any. ParseInto must read the input as ParseString
// does, to the same error text and the same set. A clone and its original
// share their arrays, so after each input one more line is parsed into a
// clone, then another into the original, and each must leave the other
// set as it was. Every accepted set is also compiled in working storage
// that a larger set has just used (checkCompiledInUsedWork). Run the seeds
// under plain `go test`; run `go test -fuzz=FuzzParseString` to explore.
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
		// No attributes: an empty compile.
		" ",
	} {
		f.Add(seed)
	}
	lats := []lattice.Lattice{
		lattice.MustChain("mil", "U", "C", "S", "TS"),
		lattice.FigureOneB(),
		lattice.FigureOneA(),
	}
	big := bigCompileSet(f)
	f.Fuzz(func(t *testing.T, input string) {
		for _, lat := range lats {
			s := NewSet(lat)
			err := s.ParseString(input)
			r := NewSet(lat)
			rerr := r.ParseInto(strings.NewReader(input))
			if fmt.Sprint(rerr) != fmt.Sprint(err) {
				t.Fatalf("ParseInto error %v, ParseString error %v (from %q over %s)", rerr, err, input, lat.Name())
			}
			if got, want := stateOf(t, r).text, stateOf(t, s).text; got != want {
				t.Fatalf("ParseInto read\n%s\nParseString read\n%s\n(from %q over %s)", got, want, input, lat.Name())
			}
			if err != nil {
				continue
			}
			// r is a second copy of s to extend, and a clone of it. Each
			// extension must leave the other set as it was whether or not
			// its line parses, so its error is not checked.
			orig := stateOf(t, r)
			ext := r.Clone()
			_ = ext.ParseString("lub(fz0, fz1) >= fz2\n")
			if got := stateOf(t, r); !reflect.DeepEqual(got, orig) {
				t.Fatalf("extending a clone changed its original from\n%s\nto\n%s\n(from %q over %s)", orig.text, got.text, input, lat.Name())
			}
			cloned := stateOf(t, ext)
			_ = r.ParseString("lub(fz3, fz1) >= fz0\n")
			if got := stateOf(t, ext); !reflect.DeepEqual(got, cloned) {
				t.Fatalf("extending the original changed its clone from\n%s\nto\n%s\n(from %q over %s)", cloned.text, got.text, input, lat.Name())
			}
			checkCompiledInUsedWork(t, big, s)
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

// bigCompileSet returns a cyclic set of 96 attributes with level
// right-hand sides and upper bounds, larger than any seed, whose compile
// leaves working storage longer than the fuzzed sets need.
func bigCompileSet(tb testing.TB) *Set {
	tb.Helper()
	const n = 96
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "b%d >= b%d\n", i, (i*7+3)%n)
		fmt.Fprintf(&b, "lub(b%d, b%d) >= b%d\n", i, (i+1)%n, (i+5)%n)
		if i%4 == 0 {
			fmt.Fprintf(&b, "b%d >= S\nTS >= b%d\n", i, (i+2)%n)
		}
	}
	s := NewSet(lattice.MustChain("mil", "U", "C", "S", "TS"))
	if err := s.ParseString(b.String()); err != nil {
		tb.Fatal(err)
	}
	return s
}

// checkCompiledInUsedWork compiles s in working storage that big's compile
// has just used, and checks the result: its priority sets are
// graph.TarjanSCC's partition of s's digraph and its numbering is the one
// a fresh compile gives, no edge goes from a higher priority to a lower
// one, and its Constr[A] is Set.ConstraintsOn's. Compiling big again in the
// same storage must leave all of that as it was, since nothing a Compiled
// keeps may alias the storage.
func checkCompiledInUsedWork(t *testing.T, big, s *Set) {
	t.Helper()
	var w compileWork
	big.compile(nil, &w)
	c := s.compile(nil, &w)
	g := s.Graph()
	pr := c.Priorities()
	fresh := graph.PrioritySCC(g)
	if !reflect.DeepEqual(pr, fresh) {
		t.Fatalf("compile in used storage numbered %+v, a fresh one %+v", pr, fresh)
	}
	if got, want := partitionOf(pr.Sets[1:]), partitionOf(graph.TarjanSCC(g).Components); !reflect.DeepEqual(got, want) {
		t.Fatalf("priority sets %v, Tarjan's components %v", got, want)
	}
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Succ(u) {
			if pr.Priority[u] > pr.Priority[v] {
				t.Fatalf("edge %d -> %d goes from priority %d to %d", u, v, pr.Priority[u], pr.Priority[v])
			}
		}
	}
	on := s.ConstraintsOn()
	if err := constrWindowsErr(c, on); err != nil {
		t.Fatal(err)
	}
	big.compile(nil, &w)
	if !reflect.DeepEqual(pr, fresh) || constrWindowsErr(c, on) != nil {
		t.Fatal("compiling another set in the same storage changed an earlier result")
	}
}

// partitionOf returns the member lists, each already sorted, ordered by
// their least member, in a non-nil slice.
func partitionOf(comps [][]int) [][]int {
	out := append([][]int{}, comps...)
	slices.SortFunc(out, func(a, b []int) int { return a[0] - b[0] })
	return out
}
