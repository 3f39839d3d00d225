package frontend_test

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"sort"
	"strings"
	"testing"

	"minup/internal/constraint"
	"minup/internal/core"
	"minup/internal/frontend"
	"minup/internal/frontend/depinf"
	"minup/internal/frontend/suppress"
	"minup/internal/lattice"
	"minup/internal/workload"
)

func TestRegistryFamilies(t *testing.T) {
	fams := frontend.Families()
	if !sort.StringsAreSorted(fams) {
		t.Fatalf("Families() not sorted: %v", fams)
	}
	for _, want := range []string{"depinf", "suppress"} {
		fe, ok := frontend.Lookup(want)
		if !ok {
			t.Fatalf("family %q not registered (have %v)", want, fams)
		}
		if fe.Family() != want {
			t.Fatalf("Lookup(%q) returned family %q", want, fe.Family())
		}
		if fe.Describe() == "" {
			t.Fatalf("family %q has an empty description", want)
		}
		if _, ok := workload.LookupFamily(want); !ok {
			t.Fatalf("family %q not mirrored into the workload registry", want)
		}
	}
	if _, ok := frontend.Lookup("no-such-family"); ok {
		t.Fatal("Lookup of an unknown family succeeded")
	}
}

// stubFrontend exists to provoke registration panics; its methods are
// never called.
type stubFrontend struct{ family string }

func (s stubFrontend) Family() string   { return s.family }
func (s stubFrontend) Describe() string { return "stub" }
func (s stubFrontend) Parse([]byte) (frontend.Instance, error) {
	return nil, nil
}
func (s stubFrontend) Generate(int64, int) (frontend.Instance, error) {
	return nil, nil
}
func (s stubFrontend) Compile(frontend.Instance) (*frontend.Compiled, error) {
	return nil, nil
}
func (s stubFrontend) Oracle(frontend.Instance, *constraint.Set, constraint.Assignment) error {
	return nil
}

func TestRegisterPanicsOnDuplicate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Register of a duplicate family did not panic")
		}
	}()
	frontend.Register(stubFrontend{family: "suppress"})
}

func TestRegisterPanicsOnInvalidName(t *testing.T) {
	for _, bad := range []string{"", "two words", "a/b"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Register of family %q did not panic", bad)
				}
			}()
			frontend.Register(stubFrontend{family: bad})
		}()
	}
}

// TestWorkloadMirrorMatchesFrontend pins the adapter Register installs in
// the workload family registry to the frontend's own Generate → Compile →
// Marshal pipeline, and checks the emitted JSON round-trips through Parse
// into an instance that compiles to the same policy texts.
func TestWorkloadMirrorMatchesFrontend(t *testing.T) {
	for _, name := range frontend.Families() {
		fe, ok := frontend.Lookup(name)
		if !ok {
			t.Fatalf("Lookup(%q) failed", name)
		}
		fi, err := workload.GenerateFamily(name, 11, 3)
		if err != nil {
			t.Fatalf("GenerateFamily(%q): %v", name, err)
		}
		inst, err := fe.Generate(11, 3)
		if err != nil {
			t.Fatalf("%s.Generate: %v", name, err)
		}
		c, err := fe.Compile(inst)
		if err != nil {
			t.Fatalf("%s.Compile: %v", name, err)
		}
		if fi.Name != inst.InstanceName() {
			t.Errorf("%s: mirror name %q, frontend name %q", name, fi.Name, inst.InstanceName())
		}
		if fi.Lattice != c.LatticeText {
			t.Errorf("%s: mirror lattice text differs from compiled text", name)
		}
		if fi.Constraints != c.ConstraintText {
			t.Errorf("%s: mirror constraint text differs from compiled text", name)
		}
		if len(fi.JSON) == 0 {
			t.Fatalf("%s: mirror emitted no instance JSON", name)
		}
		inst2, err := fe.Parse(fi.JSON)
		if err != nil {
			t.Fatalf("%s: reparsing mirror JSON: %v", name, err)
		}
		c2, err := fe.Compile(inst2)
		if err != nil {
			t.Fatalf("%s: recompiling reparsed instance: %v", name, err)
		}
		if c2.ConstraintText != c.ConstraintText || c2.LatticeText != c.LatticeText {
			t.Errorf("%s: reparsed instance compiles to different texts", name)
		}
	}
}

// TestCompiledTextsAreValidPolicySource checks, over seeds 0–49 of every
// frontend, that the emitted texts parse through the catalog's own path,
// that the set they describe solves to an assignment the engine verifier
// accepts, and that the constraint text is canonical: the parsed set
// writes it back byte for byte, so text and set cannot disagree.
func TestCompiledTextsAreValidPolicySource(t *testing.T) {
	for _, name := range frontend.Families() {
		fe, _ := frontend.Lookup(name)
		for seed := int64(0); seed < 50; seed++ {
			inst, err := fe.Generate(seed, 2+int(seed%6))
			if err != nil {
				t.Fatalf("%s seed %d: generate: %v", name, seed, err)
			}
			c, err := fe.Compile(inst)
			if err != nil {
				t.Fatalf("%s seed %d: compile: %v", name, seed, err)
			}
			set, err := constraint.ParsePolicy(c.LatticeText, c.ConstraintText)
			if err != nil {
				t.Fatalf("%s seed %d: texts do not parse: %v", name, seed, err)
			}
			res, err := core.Solve(set, core.Options{})
			if err != nil {
				t.Fatalf("%s seed %d: solve: %v", name, seed, err)
			}
			if err := core.Verify(set, res.Assignment); err != nil {
				t.Fatalf("%s seed %d: engine verify: %v", name, seed, err)
			}
			var b strings.Builder
			if _, err := set.WriteTo(&b); err != nil {
				t.Fatal(err)
			}
			if b.String() != c.ConstraintText {
				t.Fatalf("%s seed %d: constraint text is not canonical:\n%s\nwrites back as\n%s", name, seed, c.ConstraintText, b.String())
			}
		}
	}
}

// TestCompiledTextsDigest pins the texts both frontends compile to over a
// 4 000-instance sweep: 400 seeds of six suppress grid shapes and four
// depinf relation shapes, among them perfbench's cold_create shapes. The
// catalog, its WAL and its replicas keep a compiled problem only as these
// texts, so a writer change that moves one byte must be deliberate and
// update the digest.
func TestCompiledTextsDigest(t *testing.T) {
	h := sha256.New()
	add := func(fe frontend.Frontend, inst frontend.Instance, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		c, err := fe.Compile(inst)
		if err != nil {
			t.Fatal(err)
		}
		io.WriteString(h, c.LatticeText)
		h.Write([]byte{0})
		io.WriteString(h, c.ConstraintText)
		h.Write([]byte{0})
	}
	for seed := int64(0); seed < 400; seed++ {
		for _, shape := range [][2]int{{2, 2}, {2, 3}, {3, 2}, {5, 6}, {7, 7}, {20, 21}} {
			tab, err := suppress.Generate(suppress.GenSpec{Seed: seed, Rows: shape[0], Cols: shape[1], Levels: 2 + int(seed%7)})
			add(suppress.Frontend{}, tab, err)
		}
		for _, spec := range []depinf.GenSpec{
			{},
			{Depth: 3, Width: 2, Fanout: 1, Levels: 6, Extra: 5},
			{Depth: 8, Width: 5, Fanout: 3, Levels: 4, Extra: 12},
			{Depth: 24, Width: 21, Fanout: 4, Extra: 128},
		} {
			spec.Seed = seed
			rel, err := depinf.Generate(spec)
			add(depinf.Frontend{}, rel, err)
		}
	}
	const want = "577815b63ef9861e1812e81f5ba166063009eb0c9379180f76c26a660a3a4435"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("compiled texts digest %s, want %s", got, want)
	}
}

func TestLatticeStringParses(t *testing.T) {
	text := frontend.LatticeString("demo", []string{"low", "mid", "high"})
	lat, err := lattice.Parse(strings.NewReader(text))
	if err != nil {
		t.Fatalf("LatticeString output does not parse: %v\n%s", err, text)
	}
	lo, err := lat.ParseLevel("low")
	if err != nil {
		t.Fatal(err)
	}
	hi, err := lat.ParseLevel("high")
	if err != nil {
		t.Fatal(err)
	}
	if !lat.Dominates(hi, lo) || lat.Dominates(lo, hi) {
		t.Fatal("LatticeString chain order is wrong")
	}
}
