package minup_test

import (
	"errors"
	"fmt"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"minup"
)

// TestFacadeQuickstart exercises the README quick-start path through the
// public API only.
func TestFacadeQuickstart(t *testing.T) {
	lat := minup.MustChainLattice("mil", "U", "C", "S", "TS")
	set := minup.NewConstraintSet(lat)
	if err := set.ParseString(`
salary >= C
lub(name, salary) >= TS
rank >= salary
`); err != nil {
		t.Fatal(err)
	}
	res, err := minup.Solve(set, minup.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := set.FormatAssignment(res.Assignment); got != "name=TS rank=C salary=C" {
		t.Fatalf("quickstart = %q", got)
	}
}

// TestFacadeLatticeConstructors covers every public lattice constructor.
func TestFacadeLatticeConstructors(t *testing.T) {
	if _, err := minup.NewChainLattice("c", "a", "b"); err != nil {
		t.Error(err)
	}
	if _, err := minup.NewMLSLattice("m", []string{"U", "TS"}, []string{"x"}); err != nil {
		t.Error(err)
	}
	if _, err := minup.NewPowersetLattice("p", "x", "y"); err != nil {
		t.Error(err)
	}
	if _, err := minup.NewExplicitLattice("e", []string{"t", "b"},
		map[string][]string{"t": {"b"}}); err != nil {
		t.Error(err)
	}
	semi, err := minup.CompleteSemiLattice("s", []string{"a", "b"}, nil)
	if err != nil {
		t.Error(err)
	}
	if semi.Size() != 4 { // a, b, dummy top, dummy bottom
		t.Errorf("semi size = %d", semi.Size())
	}
	if l, err := minup.ParseLattice(strings.NewReader("chain c\nlevels a b\n")); err != nil || l.Height() != 1 {
		t.Errorf("ParseLattice: %v %v", l, err)
	}
	if minup.Figure1A().Count() != 8 {
		t.Error("Figure1A shape")
	}
	if minup.Figure1B().Size() != 7 {
		t.Error("Figure1B shape")
	}
}

// TestFacadeUpperBoundFlow covers CheckSolvable and DeriveUpperBounds.
func TestFacadeUpperBoundFlow(t *testing.T) {
	lat := minup.MustChainLattice("c", "lo", "hi")
	set := minup.NewConstraintSet(lat)
	if err := set.ParseString("a >= hi\nlo >= a\n"); err != nil {
		t.Fatal(err)
	}
	if err := minup.CheckSolvable(set); err == nil {
		t.Fatal("inconsistency not detected")
	}
	if _, err := minup.DeriveUpperBounds(set); err == nil {
		t.Fatal("DeriveUpperBounds missed inconsistency")
	}
	var ie *minup.InconsistencyError
	_, err := minup.Solve(set, minup.Options{})
	if !errors.As(err, &ie) {
		t.Fatalf("error type: %v", err)
	}
}

// TestFacadeSchemaFlow covers the database layer through the facade.
func TestFacadeSchemaFlow(t *testing.T) {
	lat := minup.MustChainLattice("c", "Public", "Secret")
	schema := minup.NewSchema(lat)
	schema.MustAddRelation("t", []string{"k", "v"}, []string{"k"})
	secret, _ := lat.ParseLevel("Secret")
	set, err := schema.Constraints(
		[]minup.Requirement{{Rel: "t", Attr: "v", Level: secret}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := minup.Solve(set, minup.Options{})
	if err != nil {
		t.Fatal(err)
	}
	lab, err := schema.ApplyAssignment(set, res.Assignment)
	if err != nil {
		t.Fatal(err)
	}
	store := minup.NewStore(schema, lab)
	if err := store.Insert("t", secret, map[string]string{"k": "1", "v": "x"}); err != nil {
		t.Fatal(err)
	}
	pub, _ := lat.ParseLevel("Public")
	rows, err := store.Select("t", pub, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Fatalf("public subject sees secret rows: %v", rows)
	}
}

// TestFacadeSAT covers the Theorem 6.1 entry points.
func TestFacadeSAT(t *testing.T) {
	clauses := []minup.SATClause{{0, 1}, {^0, 1}}
	if _, ok := minup.SolveSAT(2, clauses); !ok {
		t.Fatal("satisfiable formula rejected")
	}
	red, err := minup.ReduceSAT(2, clauses)
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := red.Instance.Solve(0)
	if err != nil {
		t.Fatal(err)
	}
	if m == nil {
		t.Fatal("reduced instance unsatisfiable")
	}
	asg := red.Extract(m)
	if !asg[1] { // Q must be true in every solution of (P∨Q)∧(¬P∨Q)
		t.Errorf("extracted assignment %v", asg)
	}
	if minup.Figure4B().IsPartialLattice() {
		t.Error("Figure4B must not be a partial lattice")
	}
	if _, err := minup.NewPoset("p", []string{"a"}, nil); err != nil {
		t.Error(err)
	}
}

// TestFacadeTrace covers trace access through the facade types.
func TestFacadeTrace(t *testing.T) {
	lat := minup.Figure1B()
	set := minup.NewConstraintSet(lat)
	if err := set.ParseString("a >= L3\nb >= a\n"); err != nil {
		t.Fatal(err)
	}
	res, err := minup.Solve(set, minup.Options{RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil || !strings.Contains(res.Trace.Table(), "L3") {
		t.Fatal("trace missing or empty")
	}
}

// TestFacadeImports pins the facade's scope: the package presents the
// paper's library, and minupd runs on the service packages directly, so
// no service type has a second name in the facade.
func TestFacadeImports(t *testing.T) {
	imports := func(path string) []string {
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, spec := range f.Imports {
			p, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, p)
		}
		return out
	}
	for _, p := range imports("minup.go") {
		switch p {
		case "minup/internal/catalog", "minup/internal/cluster", "minup/internal/wal", "minup/internal/workload":
			t.Errorf("minup.go imports %s, a service package", p)
		}
	}
	files, err := filepath.Glob(filepath.Join("cmd", "minupd", "*.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no minupd sources: %v", err)
	}
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		for _, p := range imports(file) {
			if p == "minup" {
				t.Errorf("%s imports the minup facade", file)
			}
		}
	}
}

func ExampleSolve() {
	lat := minup.MustChainLattice("mil", "U", "C", "S", "TS")
	set := minup.NewConstraintSet(lat)
	if err := set.ParseString(`
salary >= C
lub(name, salary) >= TS
bonus >= salary
`); err != nil {
		panic(err)
	}
	res, err := minup.Solve(set, minup.Options{})
	if err != nil {
		panic(err)
	}
	fmt.Println(set.FormatAssignment(res.Assignment))
	// Output: bonus=C name=TS salary=C
}
