package depinf

import (
	"fmt"
	"strings"
	"sync"

	"minup/internal/jsoncodec"
)

// The instance reader. Parse reads an instance in one pass over its bytes
// with internal/jsoncodec, whose refusals it shares: an unknown field, a
// field given twice or spelled in another letter case, and anything but
// white space after the value. null is accepted wherever encoding/json
// accepts it, with the same result, and strings decode as encoding/json
// decodes them.
//
// A decoded string without escapes is a substring of one copy of the
// input. The attribute list, the dependency list and every dependency's
// premises collect in pooled scratch lists, and each is copied out at its
// final length once the whole instance has been read, so the instance
// keeps no list that grew while it was read: Attrs and Deps are exact, and
// every From is a capped window of one array. The instance's name and
// lattice text are copied out: they outlive the request as a stored
// policy's name and lattice text, and must not pin the whole body.

var (
	relationFields   = []string{"name", "lattice", "attrs", "sensitive", "deps"}
	dependencyFields = []string{"from", "to"}
)

// scratch is the storage decode collects an instance's lists in.
type scratch struct {
	attrs []string
	// from holds every dependency's premises, in order.
	from []string
	deps []depSpan
}

// depSpan is one dependency as decode reads it: its consequent, and its
// premises as from[start:end], or none at all (a null or absent "from")
// when start is -1.
type depSpan struct {
	to         string
	start, end int
}

// scratchPool keeps decode's scratch lists between instances. Scratch
// whose lists grew past twice the length a valid instance gives them,
// which append's growth never reaches on one, is dropped rather than kept,
// so one oversized body does not stay allocated.
var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// decode reads the instance src holds, without validating it.
func decode(src string) (*Relation, error) {
	sc := scratchPool.Get().(*scratch)
	defer sc.release()
	d := jsoncodec.NewDecoder(src)
	r := new(Relation)
	var err error
	if !d.Null() {
		err = relation(&d, r, sc)
	}
	if err == nil {
		err = d.Finish("instance")
	}
	if err != nil {
		return nil, fmt.Errorf("depinf: decoding instance: %w", err)
	}
	r.Name = strings.Clone(r.Name)
	r.Lattice = strings.Clone(r.Lattice)
	if r.Attrs != nil {
		r.Attrs = exact(sc.attrs)
	}
	if r.Deps != nil {
		from := exact(sc.from)
		r.Deps = make([]Dependency, len(sc.deps))
		for i, dep := range sc.deps {
			r.Deps[i].To = dep.to
			if dep.start >= 0 {
				r.Deps[i].From = from[dep.start:dep.end:dep.end]
			}
		}
	}
	return r, nil
}

// exact returns a copy of list at its length; an empty list yields an
// empty, non-nil slice.
func exact(list []string) []string {
	out := make([]string, len(list))
	copy(out, list)
	return out
}

// release empties sc, so that it keeps none of the instance's strings, and
// gives it back to scratchPool unless a list outgrew a valid instance.
func (sc *scratch) release() {
	clear(sc.attrs)
	clear(sc.from)
	clear(sc.deps)
	sc.attrs, sc.from, sc.deps = sc.attrs[:0], sc.from[:0], sc.deps[:0]
	if cap(sc.attrs) <= 2*maxAttrs && cap(sc.from) <= 2*maxDeps*maxFanout && cap(sc.deps) <= 2*maxDeps {
		scratchPool.Put(sc)
	}
}

// relation reads the instance object into r. Its attribute and dependency
// lists collect in sc; r.Attrs and r.Deps are only marked non-nil (an
// empty slice) when the instance gives them, and decode fills them in.
func relation(d *jsoncodec.Decoder, r *Relation, sc *scratch) error {
	return d.Object(relationFields, func(i int) (err error) {
		switch i {
		case 0:
			return d.OptStr(&r.Name)
		case 1:
			return d.OptStr(&r.Lattice)
		case 2:
			if d.Null() {
				return nil
			}
			r.Attrs = []string{}
			sc.attrs, err = d.Strings(sc.attrs)
			return err
		case 3:
			return sensitive(d, r)
		default:
			return deps(d, r, sc)
		}
	})
}

// sensitive reads the sensitive map: null leaves it nil, and a key given
// twice keeps its last level, as encoding/json does.
func sensitive(d *jsoncodec.Decoder, r *Relation) error {
	if d.Null() {
		return nil
	}
	r.Sensitive = make(map[string]string)
	return d.Map(func(key string) error {
		var level string
		if err := d.OptStr(&level); err != nil {
			return err
		}
		r.Sensitive[key] = level
		return nil
	})
}

// deps reads the dependency list into sc; a null element is a zero
// Dependency.
func deps(d *jsoncodec.Decoder, r *Relation, sc *scratch) error {
	if d.Null() {
		return nil
	}
	r.Deps = []Dependency{}
	return d.Array(func() error {
		dep := depSpan{start: -1}
		if !d.Null() {
			err := d.Object(dependencyFields, func(i int) (err error) {
				if i == 1 {
					return d.OptStr(&dep.to)
				}
				if d.Null() {
					return nil
				}
				dep.start = len(sc.from)
				sc.from, err = d.Strings(sc.from)
				dep.end = len(sc.from)
				return err
			})
			if err != nil {
				return err
			}
		}
		sc.deps = append(sc.deps, dep)
		return nil
	})
}
