package depinf

import (
	"fmt"
	"strings"
	"unicode/utf16"
	"unicode/utf8"
)

// The instance reader. Parse reads an instance in one pass over its bytes,
// with no reflection and no decoder buffer. It accepts one JSON value
// (RFC 8259) whose fields are named exactly as frontend.Marshal writes
// them; it refuses an unknown field, a field given twice or spelled in
// another letter case, and anything but white space after the value. null
// is accepted wherever encoding/json accepts it, with the same result, and
// strings decode as encoding/json decodes them: escapes and surrogate
// pairs, with invalid UTF-8 and lone surrogates becoming U+FFFD.
//
// A decoded string without escapes is a substring of one copy of the
// input, and every dependency's premises are a capped window of one shared
// slice. The instance's name and lattice text are copied out: they outlive
// the request as a stored policy's name and lattice text, and must not pin
// the whole body.

// decoder walks one instance's JSON text.
type decoder struct {
	src string
	pos int
	// from holds every dependency's premises, each From a window of it
	// capped at its length.
	from []string
}

// decode reads the instance src holds, without validating it.
func decode(src string) (*Relation, error) {
	d := decoder{src: src}
	r := new(Relation)
	d.space()
	if !d.null() {
		if err := d.relation(r); err != nil {
			return nil, err
		}
	}
	d.space()
	if d.pos < len(d.src) {
		return nil, d.errorf("data after the instance")
	}
	r.Name = strings.Clone(r.Name)
	r.Lattice = strings.Clone(r.Lattice)
	return r, nil
}

func (d *decoder) errorf(format string, args ...any) error {
	return fmt.Errorf("depinf: decoding instance: offset %d: %s", d.pos, fmt.Sprintf(format, args...))
}

// space skips JSON white space.
func (d *decoder) space() {
	for d.pos < len(d.src) {
		switch d.src[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// next reports whether the next byte is c, consuming it if so.
func (d *decoder) next(c byte) bool {
	if d.pos < len(d.src) && d.src[d.pos] == c {
		d.pos++
		return true
	}
	return false
}

// null consumes a null literal if one is next.
func (d *decoder) null() bool {
	if strings.HasPrefix(d.src[d.pos:], "null") {
		d.pos += len("null")
		return true
	}
	return false
}

// want names the byte the reader expected, for errors.
func (d *decoder) want(what string) error {
	if d.pos >= len(d.src) {
		return d.errorf("unexpected end of input, want %s", what)
	}
	return d.errorf("unexpected %q, want %s", d.src[d.pos], what)
}

// object reads an object whose opening brace is next, calling field with
// each key once the reader stands at its value; field reads the value.
// fields names a struct's fields, and a key not among them or given twice
// is refused; a map's object passes nil and takes any key.
func (d *decoder) object(fields []string, field func(key string) error) error {
	if !d.next('{') {
		return d.want("'{'")
	}
	var seen uint
	d.space()
	if d.next('}') {
		return nil
	}
	for {
		d.space()
		at := d.pos
		key, err := d.str()
		if err != nil {
			return err
		}
		if fields != nil {
			i := 0
			for i < len(fields) && fields[i] != key {
				i++
			}
			if i == len(fields) {
				d.pos = at
				return d.errorf("unknown field %q", key)
			}
			if seen&(1<<i) != 0 {
				d.pos = at
				return d.errorf("field %q given twice", key)
			}
			seen |= 1 << i
		}
		d.space()
		if !d.next(':') {
			return d.want("':'")
		}
		d.space()
		if err := field(key); err != nil {
			return err
		}
		d.space()
		if d.next('}') {
			return nil
		}
		if !d.next(',') {
			return d.want("',' or '}'")
		}
	}
}

// array reads an array whose opening bracket is next, calling elem with
// the reader at each element; elem reads it.
func (d *decoder) array(elem func() error) error {
	if !d.next('[') {
		return d.want("'['")
	}
	d.space()
	if d.next(']') {
		return nil
	}
	for {
		d.space()
		if err := elem(); err != nil {
			return err
		}
		d.space()
		if d.next(']') {
			return nil
		}
		if !d.next(',') {
			return d.want("',' or ']'")
		}
	}
}

var (
	relationFields   = []string{"name", "lattice", "attrs", "sensitive", "deps"}
	dependencyFields = []string{"from", "to"}
)

// relation reads the instance object into r.
func (d *decoder) relation(r *Relation) error {
	return d.object(relationFields, func(key string) (err error) {
		switch key {
		case "name":
			return d.optString(&r.Name)
		case "lattice":
			return d.optString(&r.Lattice)
		case "attrs":
			if d.null() {
				return nil
			}
			r.Attrs, err = d.strings([]string{})
			return err
		case "sensitive":
			return d.sensitive(r)
		default:
			return d.deps(r)
		}
	})
}

// sensitive reads the sensitive map: null leaves it nil, and a key given
// twice keeps its last level, as encoding/json does.
func (d *decoder) sensitive(r *Relation) error {
	if d.null() {
		return nil
	}
	r.Sensitive = make(map[string]string)
	return d.object(nil, func(key string) error {
		var level string
		if err := d.optString(&level); err != nil {
			return err
		}
		r.Sensitive[key] = level
		return nil
	})
}

// deps reads the dependency list; a null element is a zero Dependency.
func (d *decoder) deps(r *Relation) error {
	if d.null() {
		return nil
	}
	r.Deps = []Dependency{}
	return d.array(func() error {
		var dep Dependency
		if !d.null() {
			err := d.object(dependencyFields, func(key string) (err error) {
				if key == "to" {
					return d.optString(&dep.To)
				}
				if d.null() {
					return nil
				}
				start := len(d.from)
				if d.from, err = d.strings(d.from); err != nil {
					return err
				}
				dep.From = d.from[start:len(d.from):len(d.from)]
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

// strings reads a string array, appending its elements to dst; a null
// element is "", as encoding/json decodes it. The caller reads a null
// array.
func (d *decoder) strings(dst []string) ([]string, error) {
	if dst == nil {
		// An empty array decodes to an empty slice, not to nil.
		dst = []string{}
	}
	err := d.array(func() error {
		var s string
		if err := d.optString(&s); err != nil {
			return err
		}
		dst = append(dst, s)
		return nil
	})
	return dst, err
}

// optString reads a string into dst, or null, which leaves dst alone.
func (d *decoder) optString(dst *string) error {
	if d.null() {
		return nil
	}
	s, err := d.str()
	if err != nil {
		return err
	}
	*dst = s
	return nil
}

// str reads a string literal. Unless it has escapes or invalid UTF-8, the
// result is a substring of the input.
func (d *decoder) str() (string, error) {
	if !d.next('"') {
		return "", d.want("a string")
	}
	start := d.pos
	for i := start; i < len(d.src); {
		switch c := d.src[i]; {
		case c == '"':
			d.pos = i + 1
			return d.src[start:i], nil
		case c == '\\':
			return d.unquote(start, i)
		case c < ' ':
			d.pos = i
			return "", d.errorf("control character %q in string", c)
		case c < utf8.RuneSelf:
			i++
		default:
			r, size := utf8.DecodeRuneInString(d.src[i:])
			if r == utf8.RuneError && size == 1 {
				return d.unquote(start, i)
			}
			i += size
		}
	}
	d.pos = len(d.src)
	return "", d.errorf("unterminated string")
}

// unquote decodes the string literal starting at start into a new string;
// src[start:i] is known to be plain.
func (d *decoder) unquote(start, i int) (string, error) {
	b := make([]byte, 0, i-start+16)
	b = append(b, d.src[start:i]...)
	for i < len(d.src) {
		c := d.src[i]
		switch {
		case c == '"':
			d.pos = i + 1
			return string(b), nil
		case c == '\\':
			if i+1 == len(d.src) {
				d.pos = i
				return "", d.errorf("unterminated string")
			}
			switch e := d.src[i+1]; e {
			case '"', '\\', '/':
				b = append(b, e)
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				r := hex4(d.src, i+2)
				if r < 0 {
					d.pos = i
					return "", d.errorf("invalid \\u escape")
				}
				if utf16.IsSurrogate(r) {
					// A pair decodes to one rune; any other surrogate is
					// U+FFFD, and what follows it is read on its own.
					r2 := rune(-1)
					if strings.HasPrefix(d.src[i+6:], `\u`) {
						r2 = hex4(d.src, i+8)
					}
					if r = utf16.DecodeRune(r, r2); r != utf8.RuneError {
						i += 6
					}
				}
				b = utf8.AppendRune(b, r)
				i += 6
				continue
			default:
				d.pos = i
				return "", d.errorf("invalid escape %q", d.src[i:i+2])
			}
			i += 2
		case c < ' ':
			d.pos = i
			return "", d.errorf("control character %q in string", c)
		case c < utf8.RuneSelf:
			b = append(b, c)
			i++
		default:
			// An invalid byte decodes as U+FFFD, one per byte.
			r, size := utf8.DecodeRuneInString(d.src[i:])
			b = utf8.AppendRune(b, r)
			i += size
		}
	}
	d.pos = len(d.src)
	return "", d.errorf("unterminated string")
}

// hex4 reads the four hex digits at s[i:], or returns -1.
func hex4(s string, i int) rune {
	if i+4 > len(s) {
		return -1
	}
	var r rune
	for _, c := range []byte(s[i : i+4]) {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}
