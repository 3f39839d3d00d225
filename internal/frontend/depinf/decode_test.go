package depinf

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

// TestDecodeNullsAsEncodingJSON: before validation, the reader decodes
// null, empty lists and escapes exactly as encoding/json does, including
// where Validate then refuses the instance, which FuzzDepinfParse cannot
// compare.
func TestDecodeNullsAsEncodingJSON(t *testing.T) {
	for _, in := range []string{
		`null`,
		`{}`,
		`{"name":null,"lattice":null,"attrs":null,"sensitive":null,"deps":null}`,
		`{"attrs":[],"sensitive":{},"deps":[]}`,
		`{"attrs":[null,"a",null],"sensitive":{"a":null,"b":"x","b":"y"}}`,
		`{"deps":[null,{},{"from":null,"to":null},{"from":[]},{"from":[null,"a"],"to":"b"},{"from":["c"]}]}`,
		`{"name":"\u0041\ud834\udd1e\ud834\ud834\udd1e\udd1e\ud834x\\\/","lattice":"` + "\xc3\x28\xff" + `"}`,
	} {
		got, err := decode(in)
		if err != nil {
			t.Errorf("%s: %v", in, err)
			continue
		}
		var want Relation
		dec := json.NewDecoder(strings.NewReader(in))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&want); err != nil {
			t.Fatalf("%s: encoding/json: %v", in, err)
		}
		if !reflect.DeepEqual(got, &want) {
			t.Errorf("%s:\n got %#v\nwant %#v", in, got, &want)
		}
	}
}

// TestParseRefusals: the reader's two deliberate refusals (a field given
// twice or spelled in another letter case, and data after the object),
// and its plain syntax errors, each answer with the decoding prefix and
// the offset of the fault.
func TestParseRefusals(t *testing.T) {
	valid := `{"name":"x","lattice":"chain c\nlevels a b\n","attrs":["p","q"],"sensitive":{"q":"b"},"deps":[{"from":["p"],"to":"q"}]}`
	if _, err := (Frontend{}).Parse([]byte(valid + "\n")); err != nil {
		t.Fatalf("valid instance with a trailing newline: %v", err)
	}
	for _, tc := range []struct{ in, want string }{
		{`{"name":"x","name":"y"}`, `offset 12: field "name" given twice`},
		{`{"Name":"x"}`, `offset 1: unknown field "Name"`},
		{`{"deps":[{"to":"a","TO":"b"}]}`, `offset 19: unknown field "TO"`},
		{`{"deps":[{"from":["a"],"from":["b"]}]}`, `offset 23: field "from" given twice`},
		{valid + ` trailing garbage`, `offset 120: data after the instance`},
		{valid + valid, `offset 119: data after the instance`},
		{`{"name":"x",}`, `offset 12: unexpected '}', want a string`},
		{`{"name":"a` + "\x01" + `"}`, `offset 10: control character '\x01' in string`},
		{`{"name":"\x"}`, `offset 9: invalid escape "\\x"`},
		{`{"attrs":["a"`, `offset 13: unexpected end of input, want ',' or ']'`},
		{`{"name":5}`, `offset 8: unexpected '5', want a string`},
	} {
		_, err := (Frontend{}).Parse([]byte(tc.in))
		if err == nil {
			t.Errorf("%s: accepted", tc.in)
			continue
		}
		if want := "depinf: decoding instance: " + tc.want; err.Error() != want {
			t.Errorf("%s:\n got %s\nwant %s", tc.in, err, want)
		}
	}
}

// TestDecodeKeepsNoBodyInNameOrLattice: the instance's name and lattice
// text become a stored policy's name and lattice text, so they must not
// be windows of the request body, which would then live as long as the
// policy; the attribute names, which no stored policy keeps, are.
func TestDecodeKeepsNoBodyInNameOrLattice(t *testing.T) {
	src := `{"name":"rel","lattice":"chain c\nlevels a b\n","attrs":["p","q"],"sensitive":{"q":"b"},"deps":[{"from":["p"],"to":"q"}]}`
	r, err := decode(src)
	if err != nil {
		t.Fatal(err)
	}
	lo := uintptr(unsafe.Pointer(unsafe.StringData(src)))
	inBody := func(s string) bool {
		p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
		return lo <= p && p < lo+uintptr(len(src))
	}
	if !inBody(r.Attrs[0]) || !inBody(r.Deps[0].From[0]) {
		t.Fatal("attribute names are copies; the check below would prove nothing")
	}
	c, err := Frontend{}.Compile(r)
	if err != nil {
		t.Fatal(err)
	}
	for what, s := range map[string]string{
		"name": r.Name, "instance name": r.InstanceName(), "lattice": r.Lattice, "compiled lattice text": c.LatticeText,
	} {
		if inBody(s) {
			t.Errorf("the %s %q shares memory with the request body", what, s)
		}
	}
}
