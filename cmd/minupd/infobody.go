package main

import (
	"strconv"

	"minup/internal/catalog"
	"minup/internal/jsoncodec"
)

// infoTail is what an answer that describes a policy version writes after
// the version's own fields: nothing for GET /policies/{name} and PUT,
// refresh_pending for an append left to a shard worker, and the family
// and instance of a problem POST /problems stored.
type infoTail struct {
	refreshPending   bool
	problem          bool
	family, instance string
}

// infoRoom bounds what infoBody writes besides its strings: every key and
// its punctuation, the longest numbers and the longest booleans.
const infoRoom = 400

// infoBody writes the JSON body of GET /policies/{name} and of the PUT,
// append and POST /problems acks. The bytes are encodeJSON's for info, or
// for info embedded in a struct with the tail's fields (the references in
// the tests): two-space indent, info's fields in declaration order with
// the source texts omitted when empty, then refresh_pending when set, or
// family and instance, and a trailing newline. The body is measured
// first, so it is allocated once.
func infoBody(info catalog.PolicyInfo, tail infoTail) []byte {
	b := make([]byte, 0, infoRoom+jsoncodec.StringLen(info.Name)+jsoncodec.StringLen(info.Lattice)+
		jsoncodec.StringLen(info.ConstraintText)+jsoncodec.StringLen(tail.family)+jsoncodec.StringLen(tail.instance))
	b = append(b, "{\n  \"name\": "...)
	b = jsoncodec.AppendString(b, info.Name)
	b = append(b, ",\n  \"version\": "...)
	b = strconv.AppendUint(b, info.Version, 10)
	b = append(b, ",\n  \"attrs\": "...)
	b = strconv.AppendInt(b, int64(info.Attrs), 10)
	b = append(b, ",\n  \"constraints\": "...)
	b = strconv.AppendInt(b, int64(info.Constraints), 10)
	b = append(b, ",\n  \"upper_bounds\": "...)
	b = strconv.AppendInt(b, int64(info.UpperBounds), 10)
	b = append(b, ",\n  \"shard\": "...)
	b = strconv.AppendInt(b, int64(info.Shard), 10)
	b = append(b, ",\n  \"compiled\": "...)
	b = strconv.AppendBool(b, info.Compiled)
	b = append(b, ",\n  \"solved\": "...)
	b = strconv.AppendBool(b, info.Solved)
	if info.Lattice != "" {
		b = append(b, ",\n  \"lattice\": "...)
		b = jsoncodec.AppendString(b, info.Lattice)
	}
	if info.ConstraintText != "" {
		b = append(b, ",\n  \"constraints_text\": "...)
		b = jsoncodec.AppendString(b, info.ConstraintText)
	}
	if tail.refreshPending {
		b = append(b, ",\n  \"refresh_pending\": true"...)
	}
	if tail.problem {
		b = append(b, ",\n  \"family\": "...)
		b = jsoncodec.AppendString(b, tail.family)
		b = append(b, ",\n  \"instance\": "...)
		b = jsoncodec.AppendString(b, tail.instance)
	}
	return append(b, "\n}\n"...)
}
