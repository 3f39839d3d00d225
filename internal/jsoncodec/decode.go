// Package jsoncodec is the one JSON reader and writer of minup's write
// path: request bodies, problem instances, WAL records and the cluster's
// envelopes are read with its Decoder, and solve bodies, policy answers,
// WAL records, shard snapshots and envelopes are written with
// AppendString. Neither uses
// reflection, and both are fuzzed against encoding/json, whose results
// they reproduce.
//
// The Decoder reads one JSON value (RFC 8259) in one pass over its bytes,
// through callbacks that name the fields a caller's struct has. It
// refuses a field the caller does not name, a field given twice or spelled
// in another letter case (encoding/json takes the last one, or matches
// without case), and anything but white space after the value (Finish).
// Everything else decodes as encoding/json decodes it: null wherever a
// caller takes it, escapes and surrogate pairs, U+FFFD for invalid UTF-8
// and lone surrogates, and numbers by strconv's grammar for the field's
// type.
//
// A string is copied in runs: each stretch between escapes or invalid
// bytes moves in one step, into a result whose length was measured first.
// What a decoded string shares with the input depends on the decoder:
// NewDecoder's strings are substrings of its input where they have no
// escapes, and NewCopyingDecoder's strings each own exactly their bytes,
// so that a string kept after the call pins nothing else.
package jsoncodec

import (
	"encoding/base64"
	"fmt"
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"
	"unsafe"
)

// Decoder walks one JSON text.
type Decoder struct {
	src string
	pos int
	// copy makes every string Str returns a copy.
	copy bool
}

// NewDecoder returns a decoder of src, positioned at its value. A string
// it decodes without escapes or invalid UTF-8 is a substring of src.
func NewDecoder(src string) Decoder {
	d := Decoder{src: src}
	d.space()
	return d
}

// NewCopyingDecoder returns a decoder of b, positioned at its value. Every
// string it returns is a copy, so none keeps b alive; b must not change
// while the decoder reads it.
func NewCopyingDecoder(b []byte) Decoder {
	d := Decoder{src: unsafe.String(unsafe.SliceData(b), len(b)), copy: true}
	d.space()
	return d
}

// errorf returns an error at the decoder's offset: "offset N: " and the
// message.
func (d *Decoder) errorf(format string, args ...any) error {
	return fmt.Errorf("offset %d: %s", d.pos, fmt.Sprintf(format, args...))
}

// Finish reports an error unless only white space follows the value just
// read; what names the value in the error ("data after the <what>").
func (d *Decoder) Finish(what string) error {
	d.space()
	if d.pos < len(d.src) {
		return d.errorf("data after the %s", what)
	}
	return nil
}

// space skips JSON white space.
func (d *Decoder) space() {
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
func (d *Decoder) next(c byte) bool {
	if d.pos < len(d.src) && d.src[d.pos] == c {
		d.pos++
		return true
	}
	return false
}

// Null consumes a null literal if one is next, and reports whether it did.
func (d *Decoder) Null() bool {
	if strings.HasPrefix(d.src[d.pos:], "null") {
		d.pos += len("null")
		return true
	}
	return false
}

// want names the byte the reader expected, for errors.
func (d *Decoder) want(what string) error {
	if d.pos >= len(d.src) {
		return d.errorf("unexpected end of input, want %s", what)
	}
	return d.errorf("unexpected %q, want %s", d.src[d.pos], what)
}

// Object reads an object whose opening brace is next, as a struct with the
// named fields (at most 64): field is called with the index of each key
// in fields once the reader stands at its value, and reads the value. A
// key not among fields, or given twice, is refused.
func (d *Decoder) Object(fields []string, field func(i int) error) error {
	var seen uint64
	return d.object(func(at int, key string, _ bool) error {
		i := 0
		for i < len(fields) && fields[i] != key {
			i++
		}
		switch {
		case i == len(fields):
			d.pos = at
			return d.errorf("unknown field %q", key)
		case seen&(1<<i) != 0:
			d.pos = at
			return d.errorf("field %q given twice", key)
		}
		seen |= 1 << i
		return field(i)
	})
}

// Map reads an object whose opening brace is next, as a map: entry is
// called with each key once the reader stands at its value, and reads the
// value. Any key is taken, and a key given twice is passed twice. The key
// shares memory with the input as a string Str returns would.
func (d *Decoder) Map(entry func(key string) error) error {
	return d.object(func(_ int, key string, fresh bool) error {
		if d.copy && !fresh {
			key = strings.Clone(key)
		}
		return entry(key)
	})
}

// object reads an object whose opening brace is next, calling member with
// each key, where the key starts and whether it is a new string rather
// than a substring of the input, once the reader stands at its value;
// member reads the value.
func (d *Decoder) object(member func(at int, key string, fresh bool) error) error {
	if !d.next('{') {
		return d.want("'{'")
	}
	d.space()
	if d.next('}') {
		return nil
	}
	for {
		d.space()
		at := d.pos
		key, fresh, err := d.str()
		if err != nil {
			return err
		}
		d.space()
		if !d.next(':') {
			return d.want("':'")
		}
		d.space()
		if err := member(at, key, fresh); err != nil {
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

// Array reads an array whose opening bracket is next, calling elem with
// the reader at each element; elem reads it.
func (d *Decoder) Array(elem func() error) error {
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

// Strings reads a string array, appending its elements to dst; a null
// element is "", as encoding/json decodes it. An empty array yields an
// empty, non-nil slice. The caller reads a null array.
func (d *Decoder) Strings(dst []string) ([]string, error) {
	if dst == nil {
		dst = []string{}
	}
	err := d.Array(func() error {
		var s string
		if err := d.OptStr(&s); err != nil {
			return err
		}
		dst = append(dst, s)
		return nil
	})
	return dst, err
}

// Uints reads an array of numbers into dst's array, as Uint reads each; a
// null element is 0, as encoding/json decodes it. An empty array yields an
// empty, non-nil slice. The caller reads a null array.
func (d *Decoder) Uints(dst []uint64) ([]uint64, error) {
	if dst == nil {
		dst = []uint64{}
	}
	err := d.Array(func() error {
		var n uint64
		var err error
		if !d.Null() {
			n, err = d.Uint()
		}
		dst = append(dst, n)
		return err
	})
	return dst, err
}

// Ints reads an array of numbers into dst's array, as Int reads each; a
// null element is 0. An empty array yields an empty, non-nil slice. The
// caller reads a null array.
func (d *Decoder) Ints(dst []int) ([]int, error) {
	if dst == nil {
		dst = []int{}
	}
	err := d.Array(func() error {
		var n int
		var err error
		if !d.Null() {
			n, err = d.Int()
		}
		dst = append(dst, n)
		return err
	})
	return dst, err
}

// Bool reads true or false.
func (d *Decoder) Bool() (bool, error) {
	switch {
	case strings.HasPrefix(d.src[d.pos:], "true"):
		d.pos += len("true")
		return true, nil
	case strings.HasPrefix(d.src[d.pos:], "false"):
		d.pos += len("false")
		return false, nil
	}
	return false, d.want("true or false")
}

// Base64 reads a value as encoding/json reads a []byte: a string literal
// holds standard base64 with padding, line breaks skipped, and an array
// holds one number from 0 to 255 per byte, read as Uint reads it, where a
// null element is 0. The result owns its bytes; an empty string or array
// yields an empty, non-nil slice.
func (d *Decoder) Base64() ([]byte, error) {
	if d.pos < len(d.src) && d.src[d.pos] == '[' {
		b := []byte{}
		err := d.Array(func() error {
			var n uint64
			if !d.Null() {
				at := d.pos
				var err error
				if n, err = d.Uint(); err != nil {
					return err
				}
				if n > 255 {
					d.pos = at
					return d.errorf("number %d does not fit a byte", n)
				}
			}
			b = append(b, byte(n))
			return nil
		})
		return b, err
	}
	at := d.pos
	s, _, err := d.str()
	if err != nil {
		return nil, err
	}
	// Decode reads its source only, so the string's bytes stand in for it.
	src := unsafe.Slice(unsafe.StringData(s), len(s))
	b := make([]byte, base64.StdEncoding.DecodedLen(len(s)))
	n, err := base64.StdEncoding.Decode(b, src)
	if err != nil {
		d.pos = at
		return nil, d.errorf("invalid base64 string: %v", err)
	}
	return b[:n], nil
}

// StrKnown reads a string literal and, when it decodes to one of known,
// returns that string: it neither allocates nor shares the input. Any
// other string is what Str returns.
func (d *Decoder) StrKnown(known ...string) (string, error) {
	s, fresh, err := d.str()
	if err != nil {
		return "", err
	}
	for _, k := range known {
		if s == k {
			return k, nil
		}
	}
	if d.copy && !fresh {
		s = strings.Clone(s)
	}
	return s, nil
}

// OptStr reads a string into dst, or null, which leaves dst alone.
func (d *Decoder) OptStr(dst *string) error {
	if d.Null() {
		return nil
	}
	s, err := d.Str()
	if err != nil {
		return err
	}
	*dst = s
	return nil
}

// Str reads a string literal.
func (d *Decoder) Str() (string, error) {
	s, fresh, err := d.str()
	if d.copy && !fresh {
		s = strings.Clone(s)
	}
	return s, err
}

// Uint reads a number into a uint64, as encoding/json does: an integer
// without sign, fraction or exponent that fits.
func (d *Decoder) Uint() (uint64, error) {
	at := d.pos
	lit, err := d.number()
	if err != nil {
		return 0, err
	}
	n, err := strconv.ParseUint(lit, 10, 64)
	if err != nil {
		d.pos = at
		return 0, d.errorf("number %s does not fit an unsigned integer", lit)
	}
	return n, nil
}

// Int reads a number into an int, as encoding/json does: an integer
// without fraction or exponent that fits.
func (d *Decoder) Int() (int, error) {
	at := d.pos
	lit, err := d.number()
	if err != nil {
		return 0, err
	}
	n, err := strconv.ParseInt(lit, 10, strconv.IntSize)
	if err != nil {
		d.pos = at
		return 0, d.errorf("number %s does not fit an integer", lit)
	}
	return int(n), nil
}

// number reads a number literal by RFC 8259's grammar and returns it.
func (d *Decoder) number() (string, error) {
	start := d.pos
	d.next('-')
	switch {
	case d.next('0'):
	case d.digits() == 0:
		return "", d.want("a number")
	}
	if d.next('.') && d.digits() == 0 {
		return "", d.want("a digit")
	}
	if d.next('e') || d.next('E') {
		if !d.next('+') {
			d.next('-')
		}
		if d.digits() == 0 {
			return "", d.want("a digit")
		}
	}
	return d.src[start:d.pos], nil
}

// digits consumes a run of decimal digits and returns its length.
func (d *Decoder) digits() int {
	start := d.pos
	for d.pos < len(d.src) && '0' <= d.src[d.pos] && d.src[d.pos] <= '9' {
		d.pos++
	}
	return d.pos - start
}

// plain marks the bytes a string literal holds as themselves: the ASCII
// bytes from space on but " and \.
var plain = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// str reads a string literal. Unless it has escapes or invalid UTF-8, the
// result is a substring of the input, and fresh is false; otherwise a
// first walk measures the new string and a second writes it.
func (d *Decoder) str() (s string, fresh bool, err error) {
	if !d.next('"') {
		return "", false, d.want("a string")
	}
	start := d.pos
	n, same, err := d.walk(start, nil)
	switch {
	case err != nil:
		return "", false, err
	case same:
		return d.src[start : d.pos-1], false, nil
	}
	var b strings.Builder
	b.Grow(n)
	d.walk(start, &b)
	return b.String(), true, nil
}

// walk decodes the literal body starting at start up to its closing
// quote, and leaves the reader past it. It writes the decoded string to b,
// or only measures it when b is nil, and returns its length and whether
// the body decodes to itself. Plain runs are written whole.
func (d *Decoder) walk(start int, b *strings.Builder) (n int, same bool, err error) {
	i, run := start, start
	// flush writes the plain run before i, then a decoded rune.
	flush := func(r rune) {
		if b != nil {
			b.WriteString(d.src[run:i])
			b.WriteRune(r)
		}
		n += i - run + utf8.RuneLen(r)
	}
	for i < len(d.src) {
		c := d.src[i]
		if plain[c] {
			i++
			continue
		}
		switch {
		case c == '"':
			if b != nil {
				b.WriteString(d.src[run:i])
			}
			d.pos = i + 1
			return n + i - run, run == start, nil
		case c == '\\':
			if i+1 == len(d.src) {
				d.pos = i
				return 0, false, d.errorf("unterminated string")
			}
			size := 2
			var r rune
			switch e := d.src[i+1]; e {
			case '"', '\\', '/':
				r = rune(e)
			case 'b':
				r = '\b'
			case 'f':
				r = '\f'
			case 'n':
				r = '\n'
			case 'r':
				r = '\r'
			case 't':
				r = '\t'
			case 'u':
				if r = hex4(d.src, i+2); r < 0 {
					d.pos = i
					return 0, false, d.errorf("invalid \\u escape")
				}
				size = 6
				if utf16.IsSurrogate(r) {
					// A pair decodes to one rune; any other surrogate is
					// U+FFFD, and what follows it is read on its own.
					r2 := rune(-1)
					if strings.HasPrefix(d.src[i+6:], `\u`) {
						r2 = hex4(d.src, i+8)
					}
					if r = utf16.DecodeRune(r, r2); r != utf8.RuneError {
						size = 12
					}
				}
			default:
				d.pos = i
				return 0, false, d.errorf("invalid escape %q", d.src[i:i+2])
			}
			flush(r)
			i += size
			run = i
		case c < ' ':
			d.pos = i
			return 0, false, d.errorf("control character %q in string", c)
		default:
			r, size := utf8.DecodeRuneInString(d.src[i:])
			if r == utf8.RuneError && size == 1 {
				// An invalid byte decodes as U+FFFD, one per byte.
				flush(r)
				run = i + 1
			}
			i += size
		}
	}
	d.pos = len(d.src)
	return 0, false, d.errorf("unterminated string")
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
