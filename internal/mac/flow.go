package mac

import (
	"fmt"
	"math/rand"
	"sort"

	"minup/internal/lattice"
)

// Information-flow simulation: the executable argument that a labeling
// plus the BLP rules prevents leakage. Objects carry taint sets — the set
// of source objects whose data may have influenced their contents.
// Sessions accumulate taint from every object they read and deposit their
// accumulated taint into every object they write. After any interleaving
// of permitted operations, an object's taint may only contain sources
// whose level is dominated by... precisely: every tainted object must
// dominate the levels of all its taint sources; hence a low reader can
// never observe high data. FlowSim.Check verifies that invariant.
type FlowSim struct {
	mon    *Monitor
	lat    lattice.Lattice
	levels map[string]lattice.Level
	taint  map[string]map[string]bool // object -> source objects
}

// NewFlowSim builds a simulation over labeled objects.
func NewFlowSim(mon *Monitor, levels map[string]lattice.Level) *FlowSim {
	f := &FlowSim{
		mon:    mon,
		lat:    mon.lat,
		levels: levels,
		taint:  make(map[string]map[string]bool, len(levels)),
	}
	for name := range levels {
		f.taint[name] = map[string]bool{name: true}
	}
	return f
}

// Actor is a session plus its accumulated read taint.
type Actor struct {
	sess *Session
	seen map[string]bool
}

// NewActor wraps a session for the simulation.
func (f *FlowSim) NewActor(sess *Session) *Actor {
	return &Actor{sess: sess, seen: make(map[string]bool)}
}

// Read attempts to read an object through the monitor; on success the
// actor absorbs the object's taint.
func (f *FlowSim) Read(a *Actor, object string) bool {
	lvl, ok := f.levels[object]
	if !ok {
		panic(fmt.Sprintf("mac: unknown object %q", object))
	}
	if !f.mon.CheckRead(a.sess, object, lvl).Allowed {
		return false
	}
	for src := range f.taint[object] {
		a.seen[src] = true
	}
	return true
}

// Write attempts to write an object through the monitor; on success the
// object absorbs the actor's taint.
func (f *FlowSim) Write(a *Actor, object string) bool {
	lvl, ok := f.levels[object]
	if !ok {
		panic(fmt.Sprintf("mac: unknown object %q", object))
	}
	if !f.mon.CheckWrite(a.sess, object, lvl).Allowed {
		return false
	}
	for src := range a.seen {
		f.taint[object][src] = true
	}
	return true
}

// Taint records that object's contents reveal src's data irrespective of
// access control — a real-world dependency such as a functional
// dependency, a derivation, or an out-of-band correlation. Check then
// treats src as one of object's sources.
func (f *FlowSim) Taint(object, src string) {
	if _, ok := f.levels[object]; !ok {
		panic(fmt.Sprintf("mac: unknown object %q", object))
	}
	if _, ok := f.levels[src]; !ok {
		panic(fmt.Sprintf("mac: unknown object %q", src))
	}
	f.taint[object][src] = true
}

// Check verifies the no-leak invariant: every object's level dominates the
// level of every source in its taint set. It returns descriptions of any
// violations (always empty when all accesses went through the monitor).
func (f *FlowSim) Check() []string {
	var out []string
	for obj, sources := range f.taint {
		for src := range sources {
			if !f.lat.Dominates(f.levels[obj], f.levels[src]) {
				out = append(out, fmt.Sprintf("object %s (%s) tainted by %s (%s)",
					obj, f.lat.FormatLevel(f.levels[obj]),
					src, f.lat.FormatLevel(f.levels[src])))
			}
		}
	}
	return out
}

// Run drives a random interleaving: each step a random actor reads or
// writes a random object (denials are fine — they are the policy working).
// Returns the number of permitted operations.
func (f *FlowSim) Run(rng *rand.Rand, actors []*Actor, steps int) int {
	names := make([]string, 0, len(f.levels))
	for n := range f.levels {
		names = append(names, n)
	}
	sort.Strings(names) // deterministic object order for reproducibility
	allowed := 0
	for i := 0; i < steps; i++ {
		a := actors[rng.Intn(len(actors))]
		obj := names[rng.Intn(len(names))]
		var ok bool
		if rng.Intn(2) == 0 {
			ok = f.Read(a, obj)
		} else {
			ok = f.Write(a, obj)
		}
		if ok {
			allowed++
		}
	}
	return allowed
}
