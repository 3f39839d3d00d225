package lattice

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// allFixtures returns one instance of every enumerable lattice family for
// law checking.
func allFixtures(t *testing.T) map[string]Enumerable {
	t.Helper()
	ps := MustPowerset("cats3", "a", "b", "c")
	ch := MustChain("mil4", "U", "C", "S", "TS")
	return map[string]Enumerable{
		"figure1b": FigureOneB(),
		"chain":    ch,
		"powerset": ps,
		"product":  MustProduct("chain×cats", ch, ps),
		"diamond":  diamond(t),
	}
}

// diamond is the classic M2 lattice: ⊤ over two incomparable atoms over ⊥.
func diamond(t *testing.T) *Explicit {
	t.Helper()
	e, err := NewExplicit("diamond",
		[]string{"bot", "a", "b", "top"},
		map[string][]string{"top": {"a", "b"}, "a": {"bot"}, "b": {"bot"}})
	if err != nil {
		t.Fatalf("diamond: %v", err)
	}
	return e
}

func TestCheckAllFixtures(t *testing.T) {
	for name, l := range allFixtures(t) {
		if err := Check(l); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestLatticeLaws property-tests commutativity, associativity, absorption,
// idempotence, and the order-lub consistency law on random elements of
// every fixture.
func TestLatticeLaws(t *testing.T) {
	for name, l := range allFixtures(t) {
		elems := l.Elements()
		pick := func(rng *rand.Rand) Level { return elems[rng.Intn(len(elems))] }
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			a, b, c := pick(rng), pick(rng), pick(rng)
			if l.Lub(a, b) != l.Lub(b, a) || l.Glb(a, b) != l.Glb(b, a) {
				return false // commutativity
			}
			if l.Lub(a, l.Lub(b, c)) != l.Lub(l.Lub(a, b), c) {
				return false // associativity
			}
			if l.Glb(a, l.Glb(b, c)) != l.Glb(l.Glb(a, b), c) {
				return false
			}
			if l.Lub(a, l.Glb(a, b)) != a || l.Glb(a, l.Lub(a, b)) != a {
				return false // absorption
			}
			if l.Lub(a, a) != a || l.Glb(a, a) != a {
				return false // idempotence
			}
			// a ≽ b iff lub(a,b)=a iff glb(a,b)=b.
			if l.Dominates(a, b) != (l.Lub(a, b) == a) {
				return false
			}
			if l.Dominates(a, b) != (l.Glb(a, b) == b) {
				return false
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestFigureOneBStructure(t *testing.T) {
	l := FigureOneB()
	lv := func(s string) Level {
		x, err := l.ParseLevel(s)
		if err != nil {
			t.Fatalf("ParseLevel(%s): %v", s, err)
		}
		return x
	}
	if got := l.FormatLevel(l.Top()); got != "L6" {
		t.Errorf("top = %s, want L6", got)
	}
	if got := l.FormatLevel(l.Bottom()); got != "1" {
		t.Errorf("bottom = %s, want 1", got)
	}
	if l.Height() != 4 {
		t.Errorf("height = %d, want 4", l.Height())
	}
	// The structural facts the Figure 2(b) trace depends on.
	if got := l.Glb(lv("L4"), lv("L5")); got != lv("L3") {
		t.Errorf("glb(L4,L5) = %s, want L3", l.FormatLevel(got))
	}
	if got := l.Lub(lv("L2"), lv("L3")); got != lv("L4") {
		t.Errorf("lub(L2,L3) = %s, want L4", l.FormatLevel(got))
	}
	if Comparable(l, lv("L2"), lv("L3")) {
		t.Error("L2 and L3 must be incomparable")
	}
	if Comparable(l, lv("L2"), lv("L5")) {
		t.Error("L2 and L5 must be incomparable")
	}
	if Comparable(l, lv("L4"), lv("L5")) {
		t.Error("L4 and L5 must be incomparable")
	}
	if !l.Dominates(lv("L5"), lv("L3")) || !l.Dominates(lv("L3"), lv("L1")) {
		t.Error("expected L5 ≽ L3 ≽ L1")
	}
	// Descent order under L4 must try L2 before L3 (paper's left-to-right).
	cov := l.Covers(lv("L4"))
	if len(cov) != 2 || cov[0] != lv("L2") || cov[1] != lv("L3") {
		t.Errorf("Covers(L4) = %v, want [L2 L3]", cov)
	}
	if b := Branching(l); b != 2 {
		t.Errorf("branching = %d, want 2", b)
	}
	if m := PathSumM(l); m <= 0 || m > Branching(l)*l.Height()+2 {
		t.Errorf("PathSumM = %d out of plausible range", m)
	}
}

func TestFigureOneA(t *testing.T) {
	m := FigureOneA()
	top := m.MustLevel("TS", "Army", "Nuclear")
	if m.Top() != top {
		t.Errorf("top = %s", m.FormatLevel(m.Top()))
	}
	if m.Bottom() != m.MustLevel("S") {
		t.Errorf("bottom = %s", m.FormatLevel(m.Bottom()))
	}
	if m.Count() != 8 {
		t.Errorf("count = %d, want 8", m.Count())
	}
	sArmy := m.MustLevel("S", "Army")
	tsNuc := m.MustLevel("TS", "Nuclear")
	if m.Dominates(sArmy, tsNuc) || m.Dominates(tsNuc, sArmy) {
		t.Error("<S,{Army}> and <TS,{Nuclear}> must be incomparable")
	}
	if got := m.Lub(sArmy, tsNuc); got != top {
		t.Errorf("lub = %s, want top", m.FormatLevel(got))
	}
	if got := m.Glb(sArmy, tsNuc); got != m.MustLevel("S") {
		t.Errorf("glb = %s, want <S,{}>", m.FormatLevel(got))
	}
	if m.Height() != 3 {
		t.Errorf("height = %d, want 3", m.Height())
	}
}

func TestMLSCoversRoundTrip(t *testing.T) {
	m := MustMLS("m", []string{"U", "C", "S"}, []string{"x", "y", "z"})
	a := m.MustLevel("C", "x", "z")
	covers := m.Covers(a)
	// Expect: remove x, remove z, drop classification: 3 covers.
	if len(covers) != 3 {
		t.Fatalf("covers = %d, want 3", len(covers))
	}
	for _, c := range covers {
		if !StrictlyDominates(m, a, c) {
			t.Errorf("cover %s not strictly below %s", m.FormatLevel(c), m.FormatLevel(a))
		}
		// Immediacy: nothing strictly between.
		for _, mid := range m.CoveredBy(c) {
			if mid != a && StrictlyDominates(m, a, mid) {
				t.Errorf("%s lies between %s and its cover %s",
					m.FormatLevel(mid), m.FormatLevel(a), m.FormatLevel(c))
			}
		}
	}
	up := m.CoveredBy(a)
	if len(up) != 2 { // add y, raise classification
		t.Fatalf("coveredBy = %d, want 2", len(up))
	}
}

// TestMLSLawsRandom property-tests the MLS lattice laws on random packed
// levels (the lattice is too large to enumerate).
func TestMLSLawsRandom(t *testing.T) {
	m := MustMLS("big", []string{"U", "C", "S", "TS"},
		[]string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j"})
	randLevel := func(rng *rand.Rand) Level {
		return Level(uint64(rng.Intn(4))<<mlsLevelShift | uint64(rng.Intn(1<<10)))
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b, c := randLevel(rng), randLevel(rng), randLevel(rng)
		lub, glb := m.Lub(a, b), m.Glb(a, b)
		if !m.Dominates(lub, a) || !m.Dominates(lub, b) {
			return false
		}
		if !m.Dominates(a, glb) || !m.Dominates(b, glb) {
			return false
		}
		// lub is least: any common dominator of a and b dominates lub.
		if m.Dominates(c, a) && m.Dominates(c, b) && !m.Dominates(c, lub) {
			return false
		}
		if m.Dominates(a, c) && m.Dominates(b, c) && !m.Dominates(glb, c) {
			return false
		}
		return m.Lub(a, m.Lub(b, c)) == m.Lub(m.Lub(a, b), c) &&
			m.Glb(a, m.Glb(b, c)) == m.Glb(m.Glb(a, b), c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestMinComplement checks the footnote-4 closed form on MLS, Powerset and
// Chain against the defining property: MinComplement(o,r) is minimal among
// levels l with lub(l,o) ≽ r.
func TestMinComplement(t *testing.T) {
	type cm interface {
		Lattice
		MinComplement(others, rhs Level) Level
	}
	m := MustMLS("m", []string{"U", "C", "S"}, []string{"x", "y"})
	lattices := []cm{
		m,
		MustPowerset("p", "x", "y", "z"),
		MustChain("c", "U", "C", "S", "TS"),
	}
	// For enumerable ones check exhaustively; for MLS sample.
	for _, l := range lattices {
		var elems []Level
		if en, ok := l.(Enumerable); ok {
			elems = en.Elements()
		} else {
			for cl := uint64(0); cl < 3; cl++ {
				for cat := uint64(0); cat < 4; cat++ {
					elems = append(elems, Level(cl<<mlsLevelShift|cat))
				}
			}
		}
		for _, o := range elems {
			for _, r := range elems {
				got := l.MinComplement(o, r)
				if !l.Dominates(l.Lub(got, o), r) {
					t.Fatalf("%s: MinComplement(%s,%s)=%s does not satisfy",
						l.Name(), l.FormatLevel(o), l.FormatLevel(r), l.FormatLevel(got))
				}
				for _, cand := range elems {
					if l.Dominates(l.Lub(cand, o), r) && StrictlyDominates(l, got, cand) {
						t.Fatalf("%s: MinComplement(%s,%s)=%s not minimal; %s works",
							l.Name(), l.FormatLevel(o), l.FormatLevel(r),
							l.FormatLevel(got), l.FormatLevel(cand))
					}
				}
			}
		}
	}
}

func TestChainBasics(t *testing.T) {
	c := MustChain("mil", "U", "C", "S", "TS")
	if c.Height() != 3 || c.Size() != 4 {
		t.Fatalf("height=%d size=%d", c.Height(), c.Size())
	}
	u, _ := c.ParseLevel("U")
	ts, _ := c.ParseLevel("TS")
	if !c.Dominates(ts, u) || c.Dominates(u, ts) {
		t.Error("chain order wrong")
	}
	if len(c.Covers(u)) != 0 || len(c.CoveredBy(ts)) != 0 {
		t.Error("extremes must have no covers beyond the chain")
	}
	if _, err := c.ParseLevel("nope"); err == nil {
		t.Error("ParseLevel accepted unknown name")
	}
	if _, err := NewChain("dup", "a", "a"); err == nil {
		t.Error("NewChain accepted duplicate level")
	}
	if _, err := NewChain("empty"); err == nil {
		t.Error("NewChain accepted zero levels")
	}
}

func TestPowersetBasics(t *testing.T) {
	p := MustPowerset("p", "a", "b", "c")
	ab, err := p.LevelOf("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if got := p.FormatLevel(ab); got != "{a,b}" {
		t.Errorf("format = %q", got)
	}
	back, err := p.ParseLevel("{a, b}")
	if err != nil || back != ab {
		t.Errorf("parse round-trip: %v %v", back, err)
	}
	empty, err := p.ParseLevel("{}")
	if err != nil || empty != p.Bottom() {
		t.Errorf("empty set parse: %v %v", empty, err)
	}
	if _, err := p.LevelOf("zz"); err == nil {
		t.Error("LevelOf accepted unknown category")
	}
	if _, err := NewPowerset("big", make([]string, 21)...); err == nil {
		t.Error("NewPowerset accepted oversized universe")
	}
}

func TestExplicitErrors(t *testing.T) {
	cases := []struct {
		name   string
		elems  []string
		covers map[string][]string
	}{
		{"no elements", nil, nil},
		{"duplicate", []string{"a", "a"}, nil},
		{"unknown source", []string{"a"}, map[string][]string{"b": {"a"}}},
		{"unknown target", []string{"a"}, map[string][]string{"a": {"b"}}},
		{"self cover", []string{"a", "b"}, map[string][]string{"a": {"a"}}},
		{"cycle", []string{"a", "b"}, map[string][]string{"a": {"b"}, "b": {"a"}}},
		{"two tops", []string{"a", "b", "c"}, map[string][]string{"a": {"c"}, "b": {"c"}}},
		{"two bottoms", []string{"a", "b", "c"}, map[string][]string{"a": {"b", "c"}}},
		// a and b share two incomparable minimal upper bounds x and y, so
		// lub(a,b) does not exist even though upper bounds do.
		{"no lub", []string{"t", "x", "y", "a", "b", "bot"},
			map[string][]string{
				"t": {"x", "y"},
				"x": {"a", "b"}, "y": {"a", "b"},
				"a": {"bot"}, "b": {"bot"},
			}},
	}
	for _, tc := range cases {
		if _, err := NewExplicit(tc.name, tc.elems, tc.covers); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

func TestNaiveOpsAgree(t *testing.T) {
	for name, l := range allFixtures(t) {
		e, ok := l.(*Explicit)
		if !ok {
			continue
		}
		n := NaiveOps{e}
		for _, a := range e.Elements() {
			for _, b := range e.Elements() {
				if n.Dominates(a, b) != e.Dominates(a, b) {
					t.Fatalf("%s: naive Dominates(%s,%s) disagrees", name,
						e.FormatLevel(a), e.FormatLevel(b))
				}
				if n.Lub(a, b) != e.Lub(a, b) {
					t.Fatalf("%s: naive Lub(%s,%s)=%s want %s", name,
						e.FormatLevel(a), e.FormatLevel(b),
						e.FormatLevel(n.Lub(a, b)), e.FormatLevel(e.Lub(a, b)))
				}
				if n.Glb(a, b) != e.Glb(a, b) {
					t.Fatalf("%s: naive Glb(%s,%s) disagrees", name,
						e.FormatLevel(a), e.FormatLevel(b))
				}
			}
		}
	}
}

func TestCoversAbove(t *testing.T) {
	l := FigureOneB()
	lv := func(s string) Level { x, _ := l.ParseLevel(s); return x }
	got := CoversAbove(l, lv("L6"), lv("L4"))
	if len(got) != 1 || got[0] != lv("L4") {
		t.Errorf("CoversAbove(L6,L4) = %v", got)
	}
	got = CoversAbove(l, lv("L4"), l.Bottom())
	if len(got) != 2 {
		t.Errorf("CoversAbove(L4,⊥) = %v, want both covers", got)
	}
	if got := CoversAbove(l, lv("L1"), lv("L1")); len(got) != 0 {
		t.Errorf("CoversAbove(L1,L1) = %v, want empty", got)
	}
}

func TestLubAllGlbAll(t *testing.T) {
	l := FigureOneB()
	lv := func(s string) Level { x, _ := l.ParseLevel(s); return x }
	if got := LubAll(l); got != l.Bottom() {
		t.Errorf("LubAll() = %s, want bottom", l.FormatLevel(got))
	}
	if got := GlbAll(l); got != l.Top() {
		t.Errorf("GlbAll() = %s, want top", l.FormatLevel(got))
	}
	if got := LubAll(l, lv("L2"), lv("L3"), lv("L1")); got != lv("L4") {
		t.Errorf("LubAll(L2,L3,L1) = %s, want L4", l.FormatLevel(got))
	}
	if got := GlbAll(l, lv("L4"), lv("L5")); got != lv("L3") {
		t.Errorf("GlbAll(L4,L5) = %s, want L3", l.FormatLevel(got))
	}
}

func TestChainDown(t *testing.T) {
	l := FigureOneB()
	chain := ChainDown(l, l.Top())
	if chain[0] != l.Top() || chain[len(chain)-1] != l.Bottom() {
		t.Fatalf("ChainDown endpoints wrong: %v", chain)
	}
	for i := 1; i < len(chain); i++ {
		if !StrictlyDominates(l, chain[i-1], chain[i]) {
			t.Fatalf("chain step %d not descending", i)
		}
	}
}

func TestCompleteToLattice(t *testing.T) {
	// Two maximal elements, one minimal: needs a dummy top only.
	l, comp, err := CompleteToLattice("semi",
		[]string{"a", "b", "z"},
		map[string][]string{"a": {"z"}, "b": {"z"}})
	if err != nil {
		t.Fatal(err)
	}
	if !comp.AddedTop || comp.AddedBottom {
		t.Errorf("completion = %+v, want top only", comp)
	}
	if !IsDummy(l, l.Top()) {
		t.Error("top should be the dummy")
	}
	if IsDummy(l, l.Bottom()) {
		t.Error("bottom should be real")
	}
	if err := Check(l); err != nil {
		t.Errorf("completed lattice invalid: %v", err)
	}

	// Missing both extremes.
	l2, comp2, err := CompleteToLattice("semi2",
		[]string{"a", "b"}, map[string][]string{})
	if err != nil {
		t.Fatal(err)
	}
	if !comp2.AddedTop || !comp2.AddedBottom {
		t.Errorf("completion = %+v, want both", comp2)
	}
	if err := Check(l2); err != nil {
		t.Errorf("completed lattice invalid: %v", err)
	}

	// Reserved name rejected.
	if _, _, err := CompleteToLattice("bad", []string{DummyTopName}, nil); err == nil {
		t.Error("reserved name accepted")
	}
}

func TestParseFormats(t *testing.T) {
	chainSrc := `
# military chain
chain mil
levels U C S TS
`
	l, err := ParseString(chainSrc)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := l.(*Chain); !ok || l.Height() != 3 {
		t.Errorf("chain parse gave %T height %d", l, l.Height())
	}

	mlsSrc := `
mls fig1a
levels S TS
categories Army Nuclear
`
	l, err = ParseString(mlsSrc)
	if err != nil {
		t.Fatal(err)
	}
	if m, ok := l.(*MLS); !ok || m.Count() != 8 {
		t.Errorf("mls parse gave %T", l)
	}

	expSrc := `
explicit fig1b
elements 1 L1 L2 L3 L4 L5 L6
cover L6 L5 L4
cover L5 L3
cover L4 L2 L3
cover L3 L1
cover L2 L1
cover L1 1
`
	l, err = ParseString(expSrc)
	if err != nil {
		t.Fatal(err)
	}
	want := FigureOneB()
	e := l.(*Explicit)
	for _, a := range want.Elements() {
		for _, b := range want.Elements() {
			pa, _ := e.ParseLevel(want.FormatLevel(a))
			pb, _ := e.ParseLevel(want.FormatLevel(b))
			if e.Dominates(pa, pb) != want.Dominates(a, b) {
				t.Fatalf("parsed fig1b disagrees on %s ≽ %s",
					want.FormatLevel(a), want.FormatLevel(b))
			}
		}
	}

	semiSrc := `
semilattice s
elements a b z
cover a z
cover b z
`
	l, err = ParseString(semiSrc)
	if err != nil {
		t.Fatal(err)
	}
	if l.FormatLevel(l.Top()) != DummyTopName {
		t.Errorf("semilattice parse: top = %s", l.FormatLevel(l.Top()))
	}

	for _, bad := range []string{
		"", "bogus x", "chain a\nchain b\nlevels x",
		"explicit e\nelements a\ncover a",
		"chain", "mls m\ncategories x",
	} {
		if _, err := ParseString(bad); err == nil {
			t.Errorf("ParseString(%q) accepted invalid input", bad)
		}
	}
}

func TestWriteDOT(t *testing.T) {
	var sb strings.Builder
	if err := WriteDOT(&sb, FigureOneB()); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"digraph", `"L6" -> "L5"`, `"L1" -> "1"`} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT output missing %q", want)
		}
	}
}

func TestProductSplitPack(t *testing.T) {
	ch := MustChain("c", "lo", "hi")
	ps := MustPowerset("p", "x", "y")
	pr := MustProduct("c×p", ch, ps)
	hi, _ := ch.ParseLevel("hi")
	xy, _ := ps.LevelOf("x", "y")
	lvl, err := pr.ParseLevel("(hi,{x,y})")
	if err != nil {
		t.Fatal(err)
	}
	a, b := pr.Split(lvl)
	if a != hi || b != xy {
		t.Errorf("split = %v,%v", a, b)
	}
	if lvl != pr.Top() {
		t.Error("(hi,{x,y}) should be top")
	}
	if got := pr.FormatLevel(pr.Bottom()); got != "(lo,{})" {
		t.Errorf("bottom format = %q", got)
	}
	if len(pr.Covers(pr.Top())) != 3 {
		t.Errorf("top covers = %v", pr.Covers(pr.Top()))
	}
}

func TestForeignHandlePanics(t *testing.T) {
	l := FigureOneB()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on foreign handle")
		}
	}()
	l.Dominates(Level(999), l.Top())
}

// TestParseLevelErrorText pins the messages of failed level lookups, which
// are formatted only when read, to their exact text.
func TestParseLevelErrorText(t *testing.T) {
	ch := MustChain("c", "lo", "hi")
	ps := MustPowerset("p", "x", "y")
	pr := MustProduct("c×p", ch, ps)
	mls := FigureOneA()
	cases := []struct {
		lat  Lattice
		in   string
		want string
	}{
		{ch, "mid", `chain "c": unknown level "mid"`},
		{FigureOneB(), " L9\t", `lattice "figure-1b": unknown level " L9\t"`},
		{mls, "C", `mls "figure-1a": unknown classification "C"`},
		{mls, "<TS,{Army,Navy}>", `mls "figure-1a": unknown category "Navy"`},
		{mls, "<S,{}", `mls "figure-1a": level "<S,{}" not of the form <CL,{a,b}>`},
		{ps, "x", `powerset "p": level "x" not of the form {a,b}`},
		{ps, "{x, z}", `powerset "p": unknown category "z"`},
		{pr, "lo", `product "c×p": level "lo" not of the form (a,b)`},
		{pr, "(mid,{x})", `chain "c": unknown level "mid"`},
		{pr, "(hi,{z})", `powerset "p": unknown category "z"`},
		{pr, "(hi{x})", `product "c×p": level "(hi{x})" missing component separator`},
		{ch, "a\u00a0b", `chain "c": unknown level "a\u00a0b"`},
	}
	for _, tc := range cases {
		_, err := tc.lat.ParseLevel(tc.in)
		if err == nil {
			t.Errorf("%s: ParseLevel(%q) succeeded", tc.lat.Name(), tc.in)
			continue
		}
		if got := err.Error(); got != tc.want {
			t.Errorf("%s: ParseLevel(%q) error\n got %s\nwant %s", tc.lat.Name(), tc.in, got, tc.want)
		}
	}
	if _, err := mls.LevelOf("TS", "Navy"); err == nil || err.Error() != `mls "figure-1a": unknown category "Navy"` {
		t.Errorf("LevelOf error = %v", err)
	}
}
