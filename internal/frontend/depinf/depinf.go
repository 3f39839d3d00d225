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
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"unicode"

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
	if r.Name == "" {
		return fmt.Errorf("depinf: instance has no name")
	}
	if len(r.Attrs) < 2 || len(r.Attrs) > maxAttrs {
		return fmt.Errorf("depinf: need 2..%d attributes, have %d", maxAttrs, len(r.Attrs))
	}
	lat, err := r.lat()
	if err != nil {
		return err
	}
	index := make(map[string]bool, len(r.Attrs))
	for _, a := range r.Attrs {
		// The stored policy text must read every name back as that one
		// attribute: its attrs line is split with strings.Fields (white
		// space of any kind), a line starting with '#' is a comment, one
		// starting with "attrs " a declaration, and a constraint line is
		// cut at its first ">=".
		if a == "" || a == "attrs" || strings.HasPrefix(a, "#") || strings.Contains(a, ">=") ||
			strings.ContainsAny(a, "(),") || strings.ContainsFunc(a, unicode.IsSpace) {
			return fmt.Errorf("depinf: invalid attribute name %q", a)
		}
		if index[a] {
			return fmt.Errorf("depinf: duplicate attribute %q", a)
		}
		if _, err := lat.ParseLevel(a); err == nil {
			return fmt.Errorf("depinf: attribute %q collides with a level of the lattice", a)
		}
		index[a] = true
	}
	if len(r.Sensitive) == 0 {
		return fmt.Errorf("depinf: no sensitive attributes")
	}
	for a, l := range r.Sensitive {
		if !index[a] {
			return fmt.Errorf("depinf: sensitive attribute %q not declared", a)
		}
		lvl, err := lat.ParseLevel(l)
		if err != nil {
			return fmt.Errorf("depinf: sensitive attribute %q: %w", a, err)
		}
		if lvl == lat.Bottom() {
			return fmt.Errorf("depinf: sensitive attribute %q required at the bottom level %q (no protection demanded)", a, l)
		}
	}
	if len(r.Deps) > maxDeps {
		return fmt.Errorf("depinf: %d dependencies exceed the %d cap", len(r.Deps), maxDeps)
	}
	for i, d := range r.Deps {
		if len(d.From) == 0 || len(d.From) > maxFanout {
			return fmt.Errorf("depinf: dependency %d: need 1..%d premises, have %d", i, maxFanout, len(d.From))
		}
		if !index[d.To] {
			return fmt.Errorf("depinf: dependency %d: unknown consequent %q", i, d.To)
		}
		for _, f := range d.From {
			if !index[f] {
				return fmt.Errorf("depinf: dependency %d: unknown premise %q", i, f)
			}
		}
	}
	return nil
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

// Parse implements frontend.Frontend.
func (Frontend) Parse(data []byte) (frontend.Instance, error) {
	var r Relation
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		return nil, fmt.Errorf("depinf: decoding instance: %w", err)
	}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return &r, nil
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
// one inference constraint per dependency. Self-dependencies (To among
// From) are trivially satisfied and dropped, as mlsdb does.
func (Frontend) Compile(inst frontend.Instance) (*frontend.Compiled, error) {
	r, ok := inst.(*Relation)
	if !ok {
		return nil, fmt.Errorf("depinf: cannot compile %T", inst)
	}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	lat, err := r.lat()
	if err != nil {
		return nil, err
	}
	set := constraint.NewSet(lat)
	attrs := make(map[string]constraint.Attr, len(r.Attrs))
	for _, name := range r.Attrs {
		a, err := set.AddAttr(name)
		if err != nil {
			return nil, err
		}
		attrs[name] = a
	}
	sens := make([]string, 0, len(r.Sensitive))
	for a := range r.Sensitive {
		sens = append(sens, a)
	}
	sort.Strings(sens)
	for _, name := range sens {
		lvl, err := lat.ParseLevel(r.Sensitive[name])
		if err != nil {
			return nil, err
		}
		if err := set.Add([]constraint.Attr{attrs[name]}, constraint.LevelRHS(lvl)); err != nil {
			return nil, err
		}
	}
	for _, d := range r.Deps {
		from := make([]constraint.Attr, len(d.From))
		for i, f := range d.From {
			from[i] = attrs[f]
		}
		if _, err := set.AddIgnoreTrivial(from, constraint.AttrRHS(attrs[d.To])); err != nil {
			return nil, err
		}
	}
	consText, err := frontend.ConstraintString(set)
	if err != nil {
		return nil, err
	}
	return &frontend.Compiled{
		Family:         FamilyName,
		Name:           r.Name,
		Instance:       r,
		Lattice:        lat,
		Set:            set,
		LatticeText:    r.Lattice,
		ConstraintText: consText,
	}, nil
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
func (Frontend) Oracle(c *frontend.Compiled, m constraint.Assignment) error {
	r, ok := c.Instance.(*Relation)
	if !ok {
		return fmt.Errorf("depinf: oracle on %T", c.Instance)
	}
	lat := c.Lattice
	if len(m) != c.Set.NumAttrs() {
		return fmt.Errorf("depinf: assignment covers %d of %d attributes", len(m), c.Set.NumAttrs())
	}
	attrOf := func(name string) constraint.Attr {
		a, ok := c.Set.AttrByName(name)
		if !ok {
			panic(fmt.Sprintf("depinf: compiled set missing attribute %q", name))
		}
		return a
	}
	level := func(name string) lattice.Level { return m[attrOf(name)] }
	if err := secure(r, lat, level); err != nil {
		return err
	}
	enum := lat.(lattice.Enumerable)
	lowered := m.Clone()
	for _, name := range r.Attrs {
		a := attrOf(name)
		own := m[a]
		for _, lower := range enum.Elements() {
			if lower == own || !lat.Dominates(own, lower) {
				continue
			}
			lowered[a] = lower
			err := secure(r, lat, func(n string) lattice.Level { return lowered[attrOf(n)] })
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
