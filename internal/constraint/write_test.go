package constraint

import (
	"strings"
	"testing"
	"unicode"

	"minup/internal/lattice"
)

func TestWriteToRoundTrip(t *testing.T) {
	lat := chain4(t)
	s := NewSet(lat)
	// Include an attribute no constraint mentions to check id preservation.
	s.MustAttr("orphan")
	if err := s.ParseString(`
salary >= C
lub(name, salary) >= TS
bonus >= salary
S >= rank
`); err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	if _, err := s.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	s2 := NewSet(lat)
	if err := s2.ParseString(sb.String()); err != nil {
		t.Fatalf("round trip parse: %v\ntext:\n%s", err, sb.String())
	}
	if s2.NumAttrs() != s.NumAttrs() {
		t.Fatalf("attrs %d != %d", s2.NumAttrs(), s.NumAttrs())
	}
	for _, a := range s.Attrs() {
		if s2.AttrName(a) != s.AttrName(a) {
			t.Fatalf("attribute id %d renamed: %q vs %q", a, s2.AttrName(a), s.AttrName(a))
		}
	}
	if len(s2.Constraints()) != len(s.Constraints()) || len(s2.UpperBounds()) != len(s.UpperBounds()) {
		t.Fatal("constraint counts differ after round trip")
	}
	for i, c := range s.Constraints() {
		if s2.Format(s2.Constraints()[i]) != s.Format(c) {
			t.Fatalf("constraint %d differs", i)
		}
	}
}

func TestStats(t *testing.T) {
	lat := chain4(t)
	s := NewSet(lat)
	a, b, c := s.MustAttr("a"), s.MustAttr("b"), s.MustAttr("c")
	s.MustAdd([]Attr{a}, AttrRHS(b))
	s.MustAdd([]Attr{b}, AttrRHS(a)) // cycle
	s.MustAdd([]Attr{a, b, c}, LevelRHS(lat.Top()))
	s.MustAddUpper(c, lat.Top())
	st := s.Stats()
	if st.Attrs != 3 || st.Constraints != 3 || st.Simple != 2 || st.Complex != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.MaxLHS != 3 || st.TotalSize != 2+2+4 || st.UpperBounds != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Acyclic || st.LargestSCC != 2 || st.Components != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if !strings.Contains(st.String(), "cyclic") || !strings.Contains(st.String(), "S=8") {
		t.Errorf("String() = %q", st.String())
	}

	s2 := NewSet(lat)
	x := s2.MustAttr("x")
	s2.MustAdd([]Attr{x}, LevelRHS(lat.Top()))
	if st2 := s2.Stats(); !st2.Acyclic {
		t.Errorf("acyclic set stats = %+v", st2)
	}
}

func TestDiffAssignments(t *testing.T) {
	lat := lattice.FigureOneB()
	s := NewSet(lat)
	s.MustAttr("a")
	s.MustAttr("b")
	s.MustAttr("c")
	lv := func(n string) lattice.Level { x, _ := lat.ParseLevel(n); return x }

	from := Assignment{lv("L1"), lv("L4"), lv("L2")}
	to := Assignment{lv("L3"), lv("L4"), lv("L3")} // a raised, b same, c incomparable
	diff, err := s.DiffAssignments(from, to)
	if err != nil {
		t.Fatal(err)
	}
	if len(diff) != 2 {
		t.Fatalf("diff = %+v", diff)
	}
	if !diff[0].Raised || diff[0].Incomparable {
		t.Errorf("a: %+v", diff[0])
	}
	if !diff[1].Incomparable {
		t.Errorf("c: %+v", diff[1])
	}
	out := s.FormatDiff(diff)
	if !strings.Contains(out, "a: L1 raised to L3") ||
		!strings.Contains(out, "c: L2 moved (incomparably) to L3") {
		t.Errorf("FormatDiff = %q", out)
	}
	if s.FormatDiff(nil) != "no changes" {
		t.Error("empty diff format")
	}
	if _, err := s.DiffAssignments(from[:1], to); err == nil {
		t.Error("short assignment accepted")
	}

	// A lowering.
	down := Assignment{lv("1"), lv("L4"), lv("L2")}
	diff, _ = s.DiffAssignments(from, down)
	if len(diff) != 1 || diff[0].Raised || diff[0].Incomparable {
		t.Fatalf("lowering diff = %+v", diff)
	}
	if !strings.Contains(s.FormatDiff(diff), "lowered to") {
		t.Error("lowering format")
	}
}

// TestTextName: TextName accepts exactly the declarable names whose set
// reads back from WriteTo as the same set, with the name on each side of a
// simple constraint and inside a lub.
func TestTextName(t *testing.T) {
	lat := chain4(t)
	for _, name := range []string{
		"salary", "x_1", "ü", "a.b", "lub", "attrsX", "x#", "a>", "=a", ">",
		"x\u00a0y", "x\u2003y", "x\vy", "x\u0085y", "#x", "attrs", "a>=b", "x>=",
	} {
		s := NewSet(lat)
		a := s.MustAttr(name)
		b := s.MustAttr("b")
		s.MustAdd([]Attr{a}, LevelRHS(lat.Top()))
		s.MustAdd([]Attr{b}, AttrRHS(a))
		s.MustAdd([]Attr{a, b}, LevelRHS(lat.Top()))
		var text strings.Builder
		if _, err := s.WriteTo(&text); err != nil {
			t.Fatal(err)
		}
		var again strings.Builder
		back := NewSet(lat)
		roundTrips := back.ParseString(text.String()) == nil
		if roundTrips {
			back.WriteTo(&again)
			roundTrips = again.String() == text.String()
		}
		if got := TextName(name); got != roundTrips {
			t.Errorf("TextName(%q) = %v, but the set round-trips: %v\n%s", name, got, roundTrips, text.String())
		}
	}
	for _, name := range []string{"", "a b", "a\tb", "f(x)", "a,b"} {
		if TextName(name) {
			t.Errorf("TextName(%q) = true for a name AddAttr refuses", name)
		}
	}
}

// textNameBefore is TextName as it was written before its byte table.
func textNameBefore(name string) bool {
	return name != "" && name != "attrs" && !strings.HasPrefix(name, "#") && !strings.Contains(name, ">=") &&
		!strings.ContainsAny(name, "(),") && !strings.ContainsFunc(name, unicode.IsSpace)
}

// TestTextNameMatchesStringsForm: TextName's one pass over its byte table
// accepts exactly what the strings functions accepted, on ASCII and
// non-ASCII white space, invalid UTF-8, a leading '#', ">=" and "attrs",
// and on every rune between two letters; declare refuses exactly the names
// holding one of "(), \t".
func TestTextNameMatchesStringsForm(t *testing.T) {
	names := []string{
		"", "a", "attrs", "attrs2", "#", "#a", "a#", ">=", "a>=b", "a>", ">", "=", "a=>b", "a>b=",
		"a b", "a\tb", "a\nb", "a\vb", "a\fb", "a\rb", "(", ")", ",", "a(b", "a)b", "a,b",
		"a\xc2\x85b", "a\xc2\xa0b", "a\xe2\x80\xa8b", "a\xe3\x80\x80b", "a\xe1\x9a\x80b", "\xe2\x80\x8a",
		"a\xc2b", "a\xc2", "\xc2\x85", "\x85", "a\xe2\x80b", "\xe2\x80", "\xff", "a\xed\xa0\x80b", "\xc3\xa9",
	}
	lat := chain4(t)
	for _, name := range names {
		if got, want := TextName(name), textNameBefore(name); got != want {
			t.Errorf("TextName(%q) = %v, the strings form says %v", name, got, want)
		}
		_, err := NewSet(lat).declare(name, false)
		if refused, want := err != nil, name == "" || strings.ContainsAny(name, "(), \t"); refused != want {
			t.Errorf("declare(%q) refused: %v, want %v (%v)", name, refused, want, err)
		}
	}
	for r := rune(0); r <= unicode.MaxRune; r++ {
		if name := "a" + string(r) + "b"; TextName(name) != textNameBefore(name) {
			t.Errorf("TextName(%q) = %v, the strings form says otherwise", name, TextName(name))
		}
	}
}
