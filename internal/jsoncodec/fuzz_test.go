package jsoncodec

import (
	"bytes"
	"encoding/json"
	"reflect"
	"slices"
	"testing"
	"unsafe"
)

// item is the shape FuzzDecoder reads: every kind of value the Decoder
// has a reader for, a map, and a list of nested items.
type item struct {
	S     string            `json:"s"`
	K     string            `json:"k"`
	L     []string          `json:"l"`
	M     map[string]string `json:"m"`
	U     uint64            `json:"u"`
	I     int               `json:"i"`
	B     bool              `json:"b"`
	Y     []byte            `json:"y"`
	N     []uint64          `json:"n"`
	Z     []int             `json:"z"`
	Items []item            `json:"items"`
}

var itemFields = []string{"s", "k", "l", "m", "u", "i", "b", "y", "n", "z", "items"}

// decodeItem reads an item the way the codec's callers read theirs: null
// wherever encoding/json takes it, with encoding/json's result.
func decodeItem(d *Decoder, it *item) error {
	if d.Null() {
		return nil
	}
	return d.Object(itemFields, func(i int) (err error) {
		if d.Null() {
			return nil
		}
		switch itemFields[i] {
		case "s":
			it.S, err = d.Str()
		case "k":
			it.K, err = d.StrKnown("x", "é")
		case "l":
			it.L, err = d.Strings(nil)
		case "m":
			it.M = make(map[string]string)
			err = d.Map(func(key string) error {
				var v string
				if err := d.OptStr(&v); err != nil {
					return err
				}
				it.M[key] = v
				return nil
			})
		case "u":
			it.U, err = d.Uint()
		case "i":
			it.I, err = d.Int()
		case "b":
			it.B, err = d.Bool()
		case "y":
			it.Y, err = d.Base64()
		case "n":
			it.N, err = d.Uints(nil)
		case "z":
			it.Z, err = d.Ints(nil)
		default:
			it.Items = []item{}
			err = d.Array(func() error {
				var sub item
				if err := decodeItem(d, &sub); err != nil {
					return err
				}
				it.Items = append(it.Items, sub)
				return nil
			})
		}
		return err
	})
}

// referenceItem decodes data with encoding/json as the codec's callers
// did before it: a Decoder with DisallowUnknownFields and one value.
func referenceItem(data []byte) (item, error) {
	var it item
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	err := dec.Decode(&it)
	return it, err
}

// plainItem reports whether data is one JSON value followed by nothing but
// white space, in which every item object's keys are field names spelled
// exactly and given once: the inputs outside the Decoder's refusals.
func plainItem(data []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(data))
	// value reads one value; object says whether an object there is an
	// item (else a map, or a value no field takes).
	var value func(object bool) bool
	value = func(object bool) bool {
		tok, err := dec.Token()
		if err != nil {
			return false
		}
		switch tok {
		case json.Delim('['):
			for dec.More() {
				if !value(object) {
					return false
				}
			}
			_, err := dec.Token()
			return err == nil
		case json.Delim('{'):
			seen := map[string]bool{}
			for dec.More() {
				tok, err := dec.Token()
				if err != nil {
					return false
				}
				key := tok.(string)
				if object && (seen[key] || !slices.Contains(itemFields, key)) {
					return false
				}
				seen[key] = true
				if !value(object && (key == "items")) {
					return false
				}
			}
			_, err := dec.Token()
			return err == nil
		}
		return true
	}
	if !value(true) {
		return false
	}
	return len(bytes.TrimLeft(data[dec.InputOffset():], " \t\r\n")) == 0
}

// FuzzDecoder checks the Decoder against encoding/json two ways. Read as
// an item, whatever the Decoder accepts encoding/json accepts as an equal
// item, and whatever encoding/json accepts the Decoder accepts unless the
// input has a key twice or differently cased, or data after the value.
// Read as the body of a string literal, both accept the same literals as
// the same strings, and a copying decoder's string shares no memory with
// its input.
func FuzzDecoder(f *testing.F) {
	for _, s := range []string{
		`{"s":"x","l":["a","b"],"m":{"k":"v"},"u":18446744073709551615,"i":-9223372036854775808,"items":[{"s":"y"},null]}`,
		" \n" + `{"s":null,"l":null,"m":null,"u":null,"i":null,"items":null}` + "\t\r\n",
		`{"l":[],"m":{},"items":[]}`,
		`{"l":[null,"a"],"m":{"k":null,"k":"w"},"items":[{"items":[{"u":0}]}]}`,
		`{"s":"\ud83d\ude00\ud800x\udc00\\u00e9\/\"\\\b\f\n\r\t\\u2028<>&` + "\xff\xed\xa0\x80\xc3" + `"}`,
		`{"s":"\\u0041\ud834\udd1e\ud834\ud834\udd1e\udd1e\ud834x"}`,
		`{"u":-0,"i":-0}`,
		`{"k":"x","b":true,"y":"AAEC/w==","n":[1,null,18446744073709551615],"z":[-1,0,null]}`,
		`{"k":"\u00e9","b":false,"y":"","n":[],"z":[]}`,
		`{"k":"y","y":"QU\nJD\u000d\nRA==","n":[-1]}`,
		`{"b":1,"y":"A","z":[1.5]}`,
		`{"u":1.0}`,
		// encoding/json also reads a []byte from an array of numbers.
		`{"y":[]}`,
		`{"y":[0,255,null]}`,
		`{"y":[256]}`,
		`{"y":[-1]}`,
		`{"y":[1.5]}`,
		`{"i":1e2}`,
		`{"i":01}`,
		`{"u":18446744073709551616}`,
		`null`,
		`{"s":"x","s":"y"}`,
		`{"S":"x"}`,
		`{"\\u0073":"x"}`,
		`{"s":"x"} {"s":"y"}`,
		`{"s":"x"} trailing`,
		`{"l":["a",]}`,
		`{"s":"a` + "\x01" + `"}`,
		`{"s":"\x"}`,
		`{"s":"\u12"}`,
		`not json`,
		``,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var got item
		d := NewDecoder(string(data))
		err := decodeItem(&d, &got)
		if err == nil {
			err = d.Finish("value")
		}
		want, refErr := referenceItem(data)
		switch {
		case err == nil && refErr != nil:
			t.Fatalf("Decoder accepted what encoding/json refuses (%v):\n%q", refErr, data)
		case err == nil && !reflect.DeepEqual(got, want):
			t.Fatalf("Decoder and encoding/json disagree on\n%q\nDecoder: %#v\nencoding/json: %#v", data, got, want)
		case err != nil && refErr == nil && plainItem(data):
			t.Fatalf("Decoder refused what encoding/json accepts (%v):\n%q", err, data)
		}

		lit := append(append([]byte{'"'}, data...), '"')
		d = NewCopyingDecoder(lit)
		s, err := d.Str()
		if err == nil {
			err = d.Finish("value")
		}
		var ref string
		refErr = json.Unmarshal(lit, &ref)
		if (err == nil) != (refErr == nil) || err == nil && s != ref {
			t.Fatalf("string literal %q: Decoder %q, %v; encoding/json %q, %v", lit, s, err, ref, refErr)
		}
		if p := uintptr(unsafe.Pointer(unsafe.StringData(s))); s != "" &&
			uintptr(unsafe.Pointer(&lit[0])) <= p && p < uintptr(unsafe.Pointer(&lit[0]))+uintptr(len(lit)) {
			t.Fatalf("copying decoder's string %q shares memory with its input", s)
		}
	})
}

// FuzzAppendString checks the writer against encoding/json: AppendString
// writes the bytes json.Marshal writes for the string, StringLen measures
// them exactly, and the Decoder reads them back as encoding/json does.
func FuzzAppendString(f *testing.F) {
	for _, s := range []string{
		"", "plain", "salary >= S\nlub(a, b) >= TS\n",
		"q\"uote back\\slash ctl\x01\x1f\x7f \b\f\n\r\t html<>& \xe2\x80\xa8\xe2\x80\xa9",
		"bad\xff\xed\xa0\x80\xc3 \xc3\xa9\xf0\x9f\x98\x80",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got := AppendString(nil, s)
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("AppendString(%q) = %s, json.Marshal writes %s", s, got, want)
		}
		if n := StringLen(s); n != len(got) {
			t.Fatalf("StringLen(%q) = %d, AppendString wrote %d bytes", s, n, len(got))
		}
		d := NewCopyingDecoder(got)
		back, err := d.Str()
		if err == nil {
			err = d.Finish("value")
		}
		var ref string
		if refErr := json.Unmarshal(got, &ref); err != nil || refErr != nil || back != ref {
			t.Fatalf("read back %s: Decoder %q, %v; encoding/json %q, %v", got, back, err, ref, refErr)
		}
	})
}
