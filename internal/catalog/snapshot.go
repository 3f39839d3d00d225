package catalog

import (
	"sort"
	"strconv"

	"minup/internal/jsoncodec"
)

// encodeSnapshot serializes policies deterministically: sorted by name,
// in the bytes json.MarshalIndent(snapshotFile{...}, "", "  ") writes,
// plus a trailing newline, so every snapshot file the catalog wrote with
// encoding/json reads back and compares equal. It measures the snapshot
// first and writes it into one allocation of that length.
func encodeSnapshot(lastSeq uint64, pols []snapshotPolicy) []byte {
	sort.Slice(pols, func(i, j int) bool { return pols[i].Name < pols[j].Name })
	return appendSnapshot(make([]byte, 0, snapshotLen(lastSeq, pols)), lastSeq, pols)
}

// The pieces of a snapshot's layout between its values.
const (
	snapHead        = "{\n  \"last_seq\": "
	snapPolicies    = ",\n  \"policies\": "
	snapName        = "\n    {\n      \"name\": "
	snapVersion     = ",\n      \"version\": "
	snapLattice     = ",\n      \"lattice\": "
	snapConstraints = ",\n      \"constraints\": "
	snapText        = "\n        "
	snapTextsEnd    = "\n      ]"
	snapPolicyEnd   = "\n    }"
	snapPoliciesEnd = "\n  ]"
	snapEnd         = "\n}\n"
)

// appendSnapshot writes the snapshot of pols, in their order, to b.
func appendSnapshot(b []byte, lastSeq uint64, pols []snapshotPolicy) []byte {
	b = append(b, snapHead...)
	b = strconv.AppendUint(b, lastSeq, 10)
	b = append(b, snapPolicies...)
	switch {
	case pols == nil:
		b = append(b, "null"...)
	case len(pols) == 0:
		b = append(b, "[]"...)
	default:
		b = append(b, '[')
		for i, p := range pols {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, snapName...)
			b = jsoncodec.AppendString(b, p.Name)
			b = append(b, snapVersion...)
			b = strconv.AppendUint(b, p.Version, 10)
			b = append(b, snapLattice...)
			b = jsoncodec.AppendString(b, p.Lattice)
			b = append(b, snapConstraints...)
			b = appendTexts(b, p.Constraints)
			b = append(b, snapPolicyEnd...)
		}
		b = append(b, snapPoliciesEnd...)
	}
	return append(b, snapEnd...)
}

// appendTexts writes a policy's constraint texts, in the layout of
// appendSnapshot, to b.
func appendTexts(b []byte, texts []string) []byte {
	switch {
	case texts == nil:
		return append(b, "null"...)
	case len(texts) == 0:
		return append(b, "[]"...)
	}
	b = append(b, '[')
	for i, t := range texts {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, snapText...)
		b = jsoncodec.AppendString(b, t)
	}
	return append(b, snapTextsEnd...)
}

// snapshotLen is the length appendSnapshot writes.
func snapshotLen(lastSeq uint64, pols []snapshotPolicy) int {
	n := len(snapHead) + uintLen(lastSeq) + len(snapPolicies) + len(snapEnd)
	switch {
	case pols == nil:
		return n + len("null")
	case len(pols) == 0:
		return n + len("[]")
	}
	n += len("[") + len(snapPoliciesEnd)
	for i, p := range pols {
		if i > 0 {
			n += len(",")
		}
		n += len(snapName) + jsoncodec.StringLen(p.Name) + len(snapVersion) + uintLen(p.Version) +
			len(snapLattice) + jsoncodec.StringLen(p.Lattice) + len(snapConstraints) + len(snapPolicyEnd)
		switch {
		case p.Constraints == nil:
			n += len("null")
		case len(p.Constraints) == 0:
			n += len("[]")
		default:
			n += len("[") + len(snapTextsEnd)
			for j, t := range p.Constraints {
				if j > 0 {
					n += len(",")
				}
				n += len(snapText) + jsoncodec.StringLen(t)
			}
		}
	}
	return n
}

// uintLen is the number of decimal digits of v.
func uintLen(v uint64) int {
	n := 1
	for ; v >= 10; v /= 10 {
		n++
	}
	return n
}
