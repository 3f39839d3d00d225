// Package depinf compiles dependency-based inference control into the
// constraint engine, after Pappachan et al., "Preventing Inferences
// through Data Dependencies on Sensitive Data".
//
// The source problem: a relation schema with attributes, some of them
// sensitive with a required protection level, plus denial-style data
// dependencies X → y ("whoever knows all of X can derive y"). A
// classification assigns every attribute a level of a security lattice; a
// viewer cleared to l sees the attributes classified ≼ l and then closes
// that set under the dependencies. The classification is secure when the
// closure reveals nothing hidden: for every clearance l, no attribute
// classified above l is derivable from the attributes visible at l —
// in particular no dependency chain reaches a sensitive attribute from
// below its level.
//
// The reduction emits one inference constraint per dependency, the way
// mlsdb schemas turn functional dependencies into inference requirements:
//
//	a >= L          for each sensitive attribute a with requirement L
//	lub(X) >= y     for each dependency X → y
//
// The per-dependency constraints are exactly equivalent to closure
// security on any lattice — soundness is induction along a derivation
// chain, and for the converse take the clearance l = lub(λ(X)): every
// premise is visible at l, so security forces λ(y) ≼ l. Transitive chains
// need no explicit closure computation at compile time; the solver
// propagates levels through the attribute right-hand sides. The Oracle
// recomputes closures from the source definition alone and also sweeps
// one-step declassifications, certifying the engine's minimal assignment
// as minimal inference protection.
package depinf

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"

	"minup/internal/constraint"
	"minup/internal/frontend"
	"minup/internal/lattice"
)

// FamilyName is the registry key and URL path element for this frontend.
const FamilyName = "depinf"

// Size caps bound parsed (and fuzzed) instances; the oracle sweep is
// O(attrs × levels × closure), with closure O(deps × fanout) per level.
const (
	maxAttrs       = 512
	maxDeps        = 2048
	maxFanout      = 16
	maxLevels      = 64
	maxLatticeText = 64 << 10
)

// Dependency is one denial-style data dependency: knowing every attribute
// in From derives To.
type Dependency struct {
	From []string `json:"from"`
	To   string   `json:"to"`
}

// Relation is the round-trippable JSON instance format. Lattice carries a
// full lattice description in the lattice.Parse grammar (chain, mls,
// explicit, semilattice), so instances can be stated over richer level
// structures than a chain; the oracle requires it to be enumerable.
type Relation struct {
	Name    string `json:"name"`
	Lattice string `json:"lattice"`
	// Attrs is the attribute universe in declaration order.
	Attrs []string `json:"attrs"`
	// Sensitive maps attribute names to required protection levels.
	Sensitive map[string]string `json:"sensitive"`
	Deps      []Dependency      `json:"deps"`
	// parsed is the lattice Parse validated the instance against, which
	// Compile formats the floors' levels with instead of validating the
	// instance again. It is nil on a relation that did not come from
	// Parse.
	parsed lattice.Lattice
}

// Family implements frontend.Instance.
func (r *Relation) Family() string { return FamilyName }

// InstanceName implements frontend.Instance.
func (r *Relation) InstanceName() string { return r.Name }

// lat parses the instance's lattice text, enforcing the enumerability and
// size caps the oracle depends on.
func (r *Relation) lat() (lattice.Lattice, error) {
	if len(r.Lattice) > maxLatticeText {
		return nil, fmt.Errorf("depinf: lattice text exceeds %d bytes", maxLatticeText)
	}
	lat, err := lattice.Parse(strings.NewReader(r.Lattice))
	if err != nil {
		return nil, fmt.Errorf("depinf: parsing lattice: %w", err)
	}
	enum, ok := lat.(lattice.Enumerable)
	if !ok {
		return nil, fmt.Errorf("depinf: oracle needs an enumerable lattice, %q is not", lat.Name())
	}
	if n := len(enum.Elements()); n > maxLevels {
		return nil, fmt.Errorf("depinf: lattice has %d levels, cap is %d", n, maxLevels)
	}
	return lat, nil
}

// Validate implements frontend.Instance.
func (r *Relation) Validate() error {
	_, err := r.validate()
	return err
}

// validate is Validate returning the lattice it parsed, which Compile
// formats the floors' levels with.
func (r *Relation) validate() (lattice.Lattice, error) {
	if r.Name == "" {
		return nil, fmt.Errorf("depinf: instance has no name")
	}
	if len(r.Attrs) < 2 || len(r.Attrs) > maxAttrs {
		return nil, fmt.Errorf("depinf: need 2..%d attributes, have %d", maxAttrs, len(r.Attrs))
	}
	lat, err := r.lat()
	if err != nil {
		return nil, err
	}
	index := make(map[string]bool, len(r.Attrs))
	for _, a := range r.Attrs {
		// The stored policy text must read every name back as that one
		// attribute.
		if !constraint.TextName(a) {
			return nil, fmt.Errorf("depinf: invalid attribute name %q", a)
		}
		if index[a] {
			return nil, fmt.Errorf("depinf: duplicate attribute %q", a)
		}
		if _, ok := lat.Lookup(a); ok {
			return nil, fmt.Errorf("depinf: attribute %q collides with a level of the lattice", a)
		}
		index[a] = true
	}
	if len(r.Sensitive) == 0 {
		return nil, fmt.Errorf("depinf: no sensitive attributes")
	}
	for a, l := range r.Sensitive {
		if !index[a] {
			return nil, fmt.Errorf("depinf: sensitive attribute %q not declared", a)
		}
		lvl, err := lat.ParseLevel(l)
		if err != nil {
			return nil, fmt.Errorf("depinf: sensitive attribute %q: %w", a, err)
		}
		if lvl == lat.Bottom() {
			return nil, fmt.Errorf("depinf: sensitive attribute %q required at the bottom level %q (no protection demanded)", a, l)
		}
	}
	if len(r.Deps) > maxDeps {
		return nil, fmt.Errorf("depinf: %d dependencies exceed the %d cap", len(r.Deps), maxDeps)
	}
	for i, d := range r.Deps {
		if len(d.From) == 0 || len(d.From) > maxFanout {
			return nil, fmt.Errorf("depinf: dependency %d: need 1..%d premises, have %d", i, maxFanout, len(d.From))
		}
		if !index[d.To] {
			return nil, fmt.Errorf("depinf: dependency %d: unknown consequent %q", i, d.To)
		}
		for _, f := range d.From {
			if !index[f] {
				return nil, fmt.Errorf("depinf: dependency %d: unknown premise %q", i, f)
			}
		}
	}
	return lat, nil
}

// GenSpec shapes a seeded random relation. Zero fields take defaults. The
// generator lays attributes out in Depth layers of Width and draws each
// layer-(i+1) attribute's dependency premises from layer i, producing the
// deep derivation chains the paper-shaped workload never emits; Extra
// forward dependencies cross layers.
type GenSpec struct {
	Seed  int64
	Depth int // dependency chain depth (layers), default 4
	Width int // attributes per layer, default 4
	// Fanout is the premises per dependency (default 2).
	Fanout int
	// Levels is the chain height (default 4, max 6).
	Levels int
	// Extra adds that many random cross-layer dependencies (default Depth).
	Extra int
}

// genLevelNames are the chain levels generated relations use, bottom-up.
var genLevelNames = []string{"U", "C", "S", "TS", "X5", "X6"}

// Generate builds a seeded random instance; deterministic in the spec
// (private RNG derived from Seed alone, per the workload family
// registry's independence contract).
func Generate(spec GenSpec) (*Relation, error) {
	if spec.Depth == 0 {
		spec.Depth = 4
	}
	if spec.Width == 0 {
		spec.Width = 4
	}
	if spec.Fanout == 0 {
		spec.Fanout = 2
	}
	if spec.Levels == 0 {
		spec.Levels = 4
	}
	if spec.Extra == 0 {
		spec.Extra = spec.Depth
	}
	if spec.Depth < 2 || spec.Width < 1 || spec.Depth*spec.Width > maxAttrs {
		return nil, fmt.Errorf("depinf: generator shape %dx%d out of range", spec.Depth, spec.Width)
	}
	if spec.Levels < 2 || spec.Levels > len(genLevelNames) {
		return nil, fmt.Errorf("depinf: generator levels must be 2..%d, have %d", len(genLevelNames), spec.Levels)
	}
	if spec.Fanout > spec.Width || spec.Fanout > maxFanout {
		return nil, fmt.Errorf("depinf: fanout %d exceeds layer width %d", spec.Fanout, spec.Width)
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	levels := genLevelNames[:spec.Levels]
	r := &Relation{
		Name:      fmt.Sprintf("depinf-s%d-d%dw%d", spec.Seed, spec.Depth, spec.Width),
		Lattice:   frontend.LatticeString("mil", levels),
		Sensitive: make(map[string]string),
	}
	attrAt := func(layer, k int) string { return fmt.Sprintf("f%02d_%02d", layer, k) }
	for layer := 0; layer < spec.Depth; layer++ {
		for k := 0; k < spec.Width; k++ {
			r.Attrs = append(r.Attrs, attrAt(layer, k))
		}
	}
	// Layered chains: each deeper attribute is derivable from Fanout
	// attributes of the previous layer.
	for layer := 1; layer < spec.Depth; layer++ {
		for k := 0; k < spec.Width; k++ {
			perm := rng.Perm(spec.Width)
			from := make([]string, spec.Fanout)
			for f := 0; f < spec.Fanout; f++ {
				from[f] = attrAt(layer-1, perm[f])
			}
			r.Deps = append(r.Deps, Dependency{From: from, To: attrAt(layer, k)})
		}
	}
	// Extra forward cross-layer dependencies keep the graph from being a
	// clean tree.
	for i := 0; i < spec.Extra; i++ {
		toLayer := 1 + rng.Intn(spec.Depth-1)
		fromLayer := rng.Intn(toLayer)
		perm := rng.Perm(spec.Width)
		n := 1 + rng.Intn(spec.Fanout)
		from := make([]string, n)
		for f := 0; f < n; f++ {
			from[f] = attrAt(fromLayer, perm[f])
		}
		r.Deps = append(r.Deps, Dependency{From: from, To: attrAt(toLayer, rng.Intn(spec.Width))})
	}
	// Sensitive attributes live at the deep end of the chains, so
	// protection must propagate back through every derivation path.
	for k := 0; k < spec.Width; k++ {
		if rng.Float64() < 0.5 {
			r.Sensitive[attrAt(spec.Depth-1, k)] = levels[1+rng.Intn(len(levels)-1)]
		}
	}
	if len(r.Sensitive) == 0 {
		r.Sensitive[attrAt(spec.Depth-1, rng.Intn(spec.Width))] = levels[1+rng.Intn(len(levels)-1)]
	}
	return r, r.Validate()
}

// Frontend is the depinf implementation of frontend.Frontend.
type Frontend struct{}

// Family implements frontend.Frontend.
func (Frontend) Family() string { return FamilyName }

// Describe implements frontend.Frontend.
func (Frontend) Describe() string {
	return "relation with denial-style data dependencies over sensitive attributes (Pappachan et al.): dependency closure as inference constraints"
}

// Parse implements frontend.Frontend. It reads the instance in one pass
// (decode.go): the fields Marshal writes, each at most once and spelled
// exactly so, and nothing but white space after the object. The relation
// it returns is validated once: it keeps the lattice Parse validated it
// against, and Compile trusts it, so a caller that changes its fields
// compiles them unchecked.
func (Frontend) Parse(data []byte) (frontend.Instance, error) {
	r, err := decode(string(data))
	if err != nil {
		return nil, err
	}
	if r.parsed, err = r.validate(); err != nil {
		return nil, err
	}
	return r, nil
}

// Generate implements frontend.Frontend: size scales the chain depth.
func (Frontend) Generate(seed int64, size int) (frontend.Instance, error) {
	depth := size
	if depth < 2 {
		depth = 2
	}
	if depth > 24 {
		depth = 24
	}
	return Generate(GenSpec{Seed: seed, Depth: depth})
}

// Compile implements frontend.Frontend: floors for sensitive attributes
// (in sorted order, so compilation is deterministic despite the map) and
// one inference constraint per dependency, its premises deduplicated in
// first-seen order. Self-dependencies (To among From) are trivially
// satisfied and dropped, as mlsdb does. A relation Parse returned is not
// validated again; any other is.
func (Frontend) Compile(inst frontend.Instance) (*frontend.Compiled, error) {
	r, ok := inst.(*Relation)
	if !ok {
		return nil, fmt.Errorf("depinf: cannot compile %T", inst)
	}
	lat := r.parsed
	if lat == nil {
		var err error
		if lat, err = r.validate(); err != nil {
			return nil, err
		}
	}
	size := len("attrs\n")
	for _, a := range r.Attrs {
		size += len(a) + 1
	}
	for _, d := range r.Deps {
		size += len(d.To) + len("lub() >= \n")
		for _, f := range d.From {
			size += len(f) + len(", ")
		}
	}
	var b strings.Builder
	b.Grow(size)
	frontend.WriteAttrs(&b, r.Attrs)
	for _, pair := range sortedSensitive(r) {
		lvl, err := lat.ParseLevel(pair[1])
		if err != nil {
			return nil, err
		}
		frontend.WriteConstraint(&b, []string{pair[0]}, lat.FormatLevel(lvl))
	}
	var from []string
deps:
	for _, d := range r.Deps {
		from = from[:0]
		for _, f := range d.From {
			if f == d.To {
				continue deps
			}
			if !slices.Contains(from, f) {
				from = append(from, f)
			}
		}
		frontend.WriteConstraint(&b, from, d.To)
	}
	return &frontend.Compiled{LatticeText: r.Lattice, ConstraintText: b.String()}, nil
}

// secure checks the source-level security condition: sensitive floors
// hold, and for every clearance the dependency closure of the visible
// attributes contains nothing classified above that clearance.
func secure(r *Relation, lat lattice.Lattice, level func(name string) lattice.Level) error {
	for _, pair := range sortedSensitive(r) {
		req, err := lat.ParseLevel(pair[1])
		if err != nil {
			return err
		}
		if own := level(pair[0]); !lat.Dominates(own, req) {
			return fmt.Errorf("depinf: sensitive attribute %q classified %s below its required %s",
				pair[0], lat.FormatLevel(own), pair[1])
		}
	}
	enum := lat.(lattice.Enumerable)
	visible := make(map[string]bool, len(r.Attrs))
	for _, viewer := range enum.Elements() {
		clear(visible)
		for _, a := range r.Attrs {
			if lat.Dominates(viewer, level(a)) {
				visible[a] = true
			}
		}
		// Dependency closure to fixpoint: anything derivable from visible
		// attributes becomes visible.
		for changed := true; changed; {
			changed = false
			for _, d := range r.Deps {
				if visible[d.To] {
					continue
				}
				all := true
				for _, f := range d.From {
					if !visible[f] {
						all = false
						break
					}
				}
				if all {
					if !lat.Dominates(viewer, level(d.To)) {
						return fmt.Errorf("depinf: %q (classified %s) is derivable by a %s viewer via dependency chains",
							d.To, lat.FormatLevel(level(d.To)), lat.FormatLevel(viewer))
					}
					visible[d.To] = true
					changed = true
				}
			}
		}
	}
	return nil
}

// sortedSensitive returns (attr, requiredLevel) pairs in attr order for
// deterministic error reporting.
func sortedSensitive(r *Relation) [][2]string {
	out := make([][2]string, 0, len(r.Sensitive))
	for a, l := range r.Sensitive {
		out = append(out, [2]string{a, l})
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// Oracle implements frontend.Frontend: source-level security (no
// dependency chain reaches anything hidden, in particular no sensitive
// attribute below its level) plus the one-step declassification sweep for
// minimality, all stated without reference to the compiled constraints.
func (Frontend) Oracle(inst frontend.Instance, set *constraint.Set, m constraint.Assignment) error {
	r, ok := inst.(*Relation)
	if !ok {
		return fmt.Errorf("depinf: oracle on %T", inst)
	}
	lat := set.Lattice()
	enum, ok := lat.(lattice.Enumerable)
	if !ok {
		return fmt.Errorf("depinf: oracle needs an enumerable lattice")
	}
	if len(m) != set.NumAttrs() {
		return fmt.Errorf("depinf: assignment covers %d of %d attributes", len(m), set.NumAttrs())
	}
	ids := make(map[string]constraint.Attr, len(r.Attrs))
	for _, name := range r.Attrs {
		a, ok := set.AttrByName(name)
		if !ok {
			return fmt.Errorf("depinf: set has no attribute %q", name)
		}
		ids[name] = a
	}
	level := func(name string) lattice.Level { return m[ids[name]] }
	if err := secure(r, lat, level); err != nil {
		return err
	}
	lowered := m.Clone()
	for _, name := range r.Attrs {
		a := ids[name]
		own := m[a]
		for _, lower := range enum.Elements() {
			if lower == own || !lat.Dominates(own, lower) {
				continue
			}
			lowered[a] = lower
			err := secure(r, lat, func(n string) lattice.Level { return lowered[ids[n]] })
			lowered[a] = own
			if err == nil {
				return fmt.Errorf("depinf: not minimal: attribute %q can be lowered %s -> %s without enabling any inference",
					name, lat.FormatLevel(own), lat.FormatLevel(lower))
			}
		}
	}
	return nil
}

func init() { frontend.Register(Frontend{}) }
