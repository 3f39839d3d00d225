package depinf_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"slices"
	"strings"
	"testing"

	"minup/internal/constraint"
	"minup/internal/core"
	"minup/internal/frontend"
	"minup/internal/frontend/depinf"
)

// FuzzDepinfCompile drives arbitrary bytes through parse → compile →
// parse the texts → solve → verify. Parsing the instance may reject, but a
// parsed instance must compile, its texts must parse through
// constraint.ParsePolicy (the catalog and its replicas only ever see the
// texts), the set must solve (classifying every attribute at the lattice
// top satisfies every floor and inference constraint), the result must
// pass the engine verifier, and the constraint text must be canonical: the
// parsed set writes it back byte for byte.
func FuzzDepinfCompile(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		rel, err := depinf.Generate(depinf.GenSpec{Seed: seed, Depth: 2 + int(seed%4)})
		if err != nil {
			f.Fatal(err)
		}
		raw, err := frontend.Marshal(rel)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add([]byte(`{"name":"x","lattice":"chain c\nlevels a b\n","attrs":["p","q"],"sensitive":{"q":"b"},"deps":[{"from":["p"],"to":"q"}]}`))
	// An NBSP inside an attribute name: the attrs line of the stored text
	// is split with strings.Fields, which splits there.
	f.Add([]byte(`{"name":"x","lattice":"chain c\nlevels a b\n","attrs":["p\u00a0r","q"],"sensitive":{"q":"b"},"deps":[{"from":["p\u00a0r"],"to":"q"}]}`))
	f.Add([]byte(`{"attrs":[]}`))
	f.Add([]byte(`not json`))
	// A duplicated premise, a self-dependency and a level the lattice
	// formats differently from how the instance spells it.
	f.Add([]byte(`{"name":"x","lattice":"explicit e\nelements U S\ncover S U\n","attrs":["p","q"],"sensitive":{"q":" S"},"deps":[{"from":["p","p"],"to":"q"},{"from":["q","p"],"to":"q"}]}`))
	fe := depinf.Frontend{}
	f.Fuzz(func(t *testing.T, data []byte) {
		inst, err := fe.Parse(data)
		if err != nil {
			return
		}
		c, err := fe.Compile(inst)
		if err != nil {
			t.Fatalf("parsed instance failed to compile: %v", err)
		}
		set, err := constraint.ParsePolicy(c.LatticeText, c.ConstraintText)
		if err != nil {
			t.Fatalf("compiled texts do not parse: %v", err)
		}
		res, err := core.Solve(set, core.Options{})
		if err != nil {
			t.Fatalf("compiled instance failed to solve: %v", err)
		}
		if err := core.Verify(set, res.Assignment); err != nil {
			t.Fatalf("solved assignment failed engine verify: %v", err)
		}
		var b strings.Builder
		if _, err := set.WriteTo(&b); err != nil {
			t.Fatal(err)
		}
		if b.String() != c.ConstraintText {
			t.Fatalf("constraint text is not canonical:\n%s\nwrites back as\n%s", c.ConstraintText, b.String())
		}
	})
}

// FuzzDepinfParse checks Parse's one-pass reader against encoding/json,
// the decoder it replaced: a Decoder with DisallowUnknownFields into a
// Relation, then Validate. The codec under the reader, strings and escapes
// included, is fuzzed on its own by jsoncodec's FuzzDecoder; this target
// checks the instance's layout on top of it: its fields, nulls, nesting
// and the premises' shared slice. Whatever Parse accepts, the reference accepts
// too, as an equal instance. Whatever the reference accepts, Parse accepts
// as well unless the input uses one of the reader's two deliberate
// refusals: a key given twice in one object or a field spelled other than
// exactly as Marshal writes it, and data after the value.
func FuzzDepinfParse(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		rel, err := depinf.Generate(depinf.GenSpec{Seed: seed, Depth: 2 + int(seed%4)})
		if err != nil {
			f.Fatal(err)
		}
		raw, err := frontend.Marshal(rel)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	for _, s := range []string{
		// FuzzDepinfCompile's hand-written seeds.
		`{"name":"x","lattice":"chain c\nlevels a b\n","attrs":["p","q"],"sensitive":{"q":"b"},"deps":[{"from":["p"],"to":"q"}]}`,
		`{"name":"x","lattice":"chain c\nlevels a b\n","attrs":["p\u00a0r","q"],"sensitive":{"q":"b"},"deps":[{"from":["p\u00a0r"],"to":"q"}]}`,
		`{"attrs":[]}`,
		`not json`,
		`{"name":"x","lattice":"explicit e\nelements U S\ncover S U\n","attrs":["p","q"],"sensitive":{"q":" S"},"deps":[{"from":["p","p"],"to":"q"},{"from":["q","p"],"to":"q"}]}`,
		// Instances that validate, with white space around the value, a null
		// list, a sensitive attribute given twice, escapes, a surrogate
		// pair, lone surrogates and invalid UTF-8.
		" \n" + `{"name":"x","lattice":"chain c\nlevels a b\n","attrs":["p","q"],"sensitive":{"q":"a","q":"b"},"deps":null}` + "\t\r\n",
		`{"name":"😀\ud800x\udc00é\/\"\\\b\f\n\r\t\u2028<>&","lattice":"chain c\nlevels a b\n","attrs":["p1","q` + "\xff" + `","r` + "\xed\xa0\x80" + `"],"sensitive":{"r���":"b"},"deps":[{"from":["p1","q�"],"to":"r` + "\xed\xa0\x80" + `"}]}`,
		// null everywhere encoding/json takes it; Validate refuses each.
		`{"name":null,"lattice":"chain c\nlevels a b\n","attrs":["p",null],"sensitive":{"q":null},"deps":[null,{"from":null,"to":null},{"from":["p",null],"to":"q"}]}`,
		// The reader's refusals.
		`null`,
		`{"name":"x","name":"y"}`,
		`{"Name":"x"}`,
		`{"name":"x"} {"name":"y"}`,
		`{"name":"x"} trailing garbage`,
		`{"name":"x","attrs":["p",],"deps":[{"from":["p"],"to":"q","to":"r"}]}`,
	} {
		f.Add([]byte(s))
	}
	fe := depinf.Frontend{}
	f.Fuzz(func(t *testing.T, data []byte) {
		inst, err := fe.Parse(data)
		want, refErr := referenceParse(data)
		if err == nil {
			if refErr != nil {
				t.Fatalf("Parse accepted what encoding/json refuses (%v):\n%q", refErr, data)
			}
			if !reflect.DeepEqual(depinf.ExportedFields(inst.(*depinf.Relation)), want) {
				t.Fatalf("Parse and encoding/json disagree on\n%q\nParse: %#v\nencoding/json: %#v", data, inst, want)
			}
			return
		}
		if !strings.HasPrefix(err.Error(), "depinf: ") {
			t.Fatalf("error %q lacks the depinf prefix", err)
		}
		if refErr == nil && plainValue(data) {
			t.Fatalf("Parse refused what encoding/json accepts (%v):\n%q", err, data)
		}
	})
}

// referenceParse is Parse as it was, through encoding/json.
func referenceParse(data []byte) (*depinf.Relation, error) {
	var r depinf.Relation
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		return nil, err
	}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return &r, nil
}

// plainValue reports whether data is one JSON value followed by nothing
// but white space, in which no object gives a key twice and every key of
// the instance and of its dependencies is a field name spelled exactly as
// Marshal writes it: the inputs outside Parse's two deliberate refusals.
func plainValue(data []byte) bool {
	type frame struct {
		object   bool
		fields   []string // the keys an object may have; nil for any
		role     string   // "deps" on the dependency array
		seen     map[string]bool
		wantKey  bool
		lastKey  string
		children int
	}
	relation := []string{"name", "lattice", "attrs", "sensitive", "deps"}
	dependency := []string{"from", "to"}
	dec := json.NewDecoder(bytes.NewReader(data))
	var stack []*frame
	for {
		tok, err := dec.Token()
		if err != nil {
			return false
		}
		var top *frame
		if len(stack) > 0 {
			top = stack[len(stack)-1]
		}
		if top != nil && top.object && top.wantKey {
			if tok == json.Delim('}') {
				stack = stack[:len(stack)-1]
			} else {
				key := tok.(string)
				if top.seen[key] || (top.fields != nil && !slices.Contains(top.fields, key)) {
					return false
				}
				top.seen[key], top.wantKey, top.lastKey = true, false, key
				continue
			}
		} else {
			switch tok {
			case json.Delim('{'):
				fr := &frame{object: true, seen: map[string]bool{}, wantKey: true}
				switch {
				case top == nil:
					fr.fields = relation
				case top.role == "deps":
					fr.fields = dependency
				}
				stack = append(stack, fr)
				continue
			case json.Delim('['):
				fr := &frame{}
				if top != nil && top.object && top.fields != nil && top.lastKey == "deps" && len(stack) == 1 {
					fr.role = "deps"
				}
				stack = append(stack, fr)
				continue
			case json.Delim(']'):
				stack = stack[:len(stack)-1]
			}
		}
		// A value ended: its object, if any, wants a key next.
		if len(stack) == 0 {
			rest := data[dec.InputOffset():]
			return len(bytes.TrimLeft(rest, " \t\r\n")) == 0
		}
		if top := stack[len(stack)-1]; top.object {
			top.wantKey = true
		}
	}
}
