package depinf

import (
	"fmt"
	"strings"

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
// input, and every dependency's premises are a capped window of one shared
// slice. The instance's name and lattice text are copied out: they outlive
// the request as a stored policy's name and lattice text, and must not pin
// the whole body.

var (
	relationFields   = []string{"name", "lattice", "attrs", "sensitive", "deps"}
	dependencyFields = []string{"from", "to"}
)

// decode reads the instance src holds, without validating it.
func decode(src string) (*Relation, error) {
	d := jsoncodec.NewDecoder(src)
	r := new(Relation)
	var err error
	if !d.Null() {
		err = relation(&d, r)
	}
	if err == nil {
		err = d.Finish("instance")
	}
	if err != nil {
		return nil, fmt.Errorf("depinf: decoding instance: %w", err)
	}
	r.Name = strings.Clone(r.Name)
	r.Lattice = strings.Clone(r.Lattice)
	return r, nil
}

// relation reads the instance object into r.
func relation(d *jsoncodec.Decoder, r *Relation) error {
	// from holds every dependency's premises, each From a window of it
	// capped at its length.
	var from []string
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
			r.Attrs, err = d.Strings(nil)
			return err
		case 3:
			return sensitive(d, r)
		default:
			return deps(d, r, &from)
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

// deps reads the dependency list, appending premises to *from; a null
// element is a zero Dependency.
func deps(d *jsoncodec.Decoder, r *Relation, from *[]string) error {
	if d.Null() {
		return nil
	}
	r.Deps = []Dependency{}
	return d.Array(func() error {
		var dep Dependency
		if !d.Null() {
			err := d.Object(dependencyFields, func(i int) (err error) {
				if i == 1 {
					return d.OptStr(&dep.To)
				}
				if d.Null() {
					return nil
				}
				start := len(*from)
				if *from, err = d.Strings(*from); err != nil {
					return err
				}
				dep.From = (*from)[start:len(*from):len(*from)]
				return nil
			})
			if err != nil {
				return err
			}
		}
		r.Deps = append(r.Deps, dep)
		return nil
	})
}
