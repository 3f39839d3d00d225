// Package frontend compiles adjacent problem classes from the related
// literature into the engine's constraint language, so the solver, the
// policy catalog, and the whole serving stack run unchanged on instance
// shapes the paper-shaped workload generator never produces.
//
// A Frontend owns one source-problem family. It parses a round-trippable
// JSON instance format, compiles an instance straight to policy source
// text (a lattice text and a constraint text, the two halves of a catalog
// Put), generates seeded random instances, and — the part that keeps the
// reductions honest — checks a solved assignment against a source-level
// oracle: security and minimality stated in the vocabulary of the source
// problem, not of the constraint engine. Every consumer that needs a
// constraint set, the catalog included, parses the texts with
// constraint.ParsePolicy, so the oracle judges the very set the catalog
// serves. Property tests sweep seeded instances through compile → parse →
// solve → oracle, so a bug in a reduction cannot hide behind the engine's
// own (constraint-level) minimality guarantee.
//
// Two frontends register themselves here:
//
//   - suppress (frontend/suppress): two-dimensional cross-tab tables with
//     sensitive cells and published marginals, after Kao's "Data Security
//     Equals Graph Connectivity". Complementary suppression becomes
//     connectivity-shaped complex constraints on the cell grid.
//   - depinf (frontend/depinf): relation schemas with denial-style data
//     dependencies over sensitive attributes, after Pappachan et al.,
//     "Preventing Inferences through Data Dependencies on Sensitive
//     Data". The dependency closure becomes inference constraints the way
//     mlsdb association/inference requirements do.
//
// Registration also installs each frontend as an instance family in
// internal/workload's family registry, so benches and the load harness
// draw frontend instances through the same seeded-generator surface as
// paper-shaped ones.
package frontend

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"

	"minup/internal/constraint"
	"minup/internal/workload"
)

// Instance is one parsed source-problem instance. Concrete types are
// plain JSON-taggable structs; Marshal re-serializes them into the same
// round-trippable format Parse accepts.
type Instance interface {
	// Family names the frontend the instance belongs to.
	Family() string
	// InstanceName is the instance's own name, used as the default policy
	// name when the instance is stored in the catalog.
	InstanceName() string
	// Validate checks structural well-formedness and the size caps that
	// keep fuzzed instances bounded.
	Validate() error
}

// Compiled is a source instance compiled to the catalog's policy source
// grammar: the two texts POST /problems/{family} stores with an ordinary
// catalog Put, so a compiled instance inherits sharding, replication,
// memoized solves, flight records, and SLO gates unchanged.
// constraint.ParsePolicy turns the texts into the set Algorithm 3.1 runs
// on.
type Compiled struct {
	LatticeText    string
	ConstraintText string
}

// Frontend compiles one source-problem family into the constraint engine.
// Implementations must be stateless (safe for concurrent use) and
// deterministic: Compile of equal instances yields equal texts, and
// Generate is a pure function of (seed, size).
type Frontend interface {
	// Family is the registry key and the {family} path element of
	// POST /problems/{family}.
	Family() string
	// Describe is a one-line human description for listings.
	Describe() string
	// Parse decodes the family's JSON instance format and validates it.
	Parse(data []byte) (Instance, error)
	// Generate builds a seeded random instance; size scales the instance
	// roughly linearly in each dimension (frontends expose richer spec
	// types for fine control).
	Generate(seed int64, size int) (Instance, error)
	// Compile validates a source instance and writes its lattice and
	// constraint texts.
	Compile(inst Instance) (*Compiled, error)
	// Oracle checks a solved assignment of set, the parse of inst's
	// compiled texts, in source-problem terms: the instance's security
	// condition holds, required levels are met, and no single element can
	// be declassified one step without breaking either — minimality stated
	// without reference to the compiled constraints. It takes attribute ids
	// and the lattice from set.
	Oracle(inst Instance, set *constraint.Set, m constraint.Assignment) error
}

var (
	regMu    sync.RWMutex
	registry = make(map[string]Frontend)
)

// Register installs a frontend under its family name and mirrors it into
// internal/workload's instance-family registry. It panics on a duplicate
// or empty family — registration happens from package init, where a
// conflict is a programming error.
func Register(f Frontend) {
	family := f.Family()
	if family == "" || strings.ContainsAny(family, "/ \t\n") {
		panic(fmt.Sprintf("frontend: invalid family name %q", family))
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[family]; dup {
		panic(fmt.Sprintf("frontend: family %q registered twice", family))
	}
	registry[family] = f
	workload.MustRegisterFamily(workload.Family{
		Name:     family,
		Describe: f.Describe(),
		Generate: func(seed int64, size int) (workload.FamilyInstance, error) {
			inst, err := f.Generate(seed, size)
			if err != nil {
				return workload.FamilyInstance{}, err
			}
			c, err := f.Compile(inst)
			if err != nil {
				return workload.FamilyInstance{}, err
			}
			raw, err := Marshal(inst)
			if err != nil {
				return workload.FamilyInstance{}, err
			}
			return workload.FamilyInstance{
				Name:        inst.InstanceName(),
				JSON:        raw,
				Lattice:     c.LatticeText,
				Constraints: c.ConstraintText,
			}, nil
		},
	})
}

// Lookup returns the frontend registered for a family.
func Lookup(family string) (Frontend, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	f, ok := registry[family]
	return f, ok
}

// Families returns the registered family names, sorted.
func Families() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Marshal serializes an instance into the JSON format its frontend's
// Parse accepts (indented, stable field order per encoding/json).
func Marshal(inst Instance) ([]byte, error) {
	return json.MarshalIndent(inst, "", "  ")
}

// LatticeString renders a lattice's textual form for the compiled policy
// source. Only chains need synthesizing today (the depinf format carries
// its lattice text verbatim); other kinds would extend this.
func LatticeString(name string, bottomUp []string) string {
	var b strings.Builder
	b.WriteString("chain ")
	b.WriteString(name)
	b.WriteString("\nlevels")
	for _, l := range bottomUp {
		b.WriteString(" ")
		b.WriteString(l)
	}
	b.WriteString("\n")
	return b.String()
}

// WriteAttrs and WriteConstraint write the lines of a compiled constraint
// text exactly as constraint.Set.WriteTo writes them, so the text is the
// canonical form of the set it parses to.

// WriteAttrs writes the attrs line declaring names, in order.
func WriteAttrs(b *strings.Builder, names []string) {
	b.WriteString("attrs")
	for _, n := range names {
		b.WriteByte(' ')
		b.WriteString(n)
	}
	b.WriteByte('\n')
}

// WriteConstraint writes the constraint lhs >= rhs: a simple constraint
// for one lhs name, lub(a, b, ...) for several.
func WriteConstraint(b *strings.Builder, lhs []string, rhs string) {
	if len(lhs) == 1 {
		b.WriteString(lhs[0])
	} else {
		b.WriteString("lub(")
		for i, n := range lhs {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(n)
		}
		b.WriteByte(')')
	}
	b.WriteString(" >= ")
	b.WriteString(rhs)
	b.WriteByte('\n')
}
