package catalog

import (
	"strconv"
	"sync"

	"minup/internal/jsoncodec"
)

// walRecord is the JSON payload of one store record. Its bytes are those
// json.Marshal writes for it, so that every log written before the
// catalog had its own codec replays, and so do its replication payloads.
type walRecord struct {
	Seq         uint64 `json:"seq"`
	Op          string `json:"op"` // "put" | "append" | "delete"
	Name        string `json:"name"`
	Lattice     string `json:"lattice,omitempty"`
	Constraints string `json:"constraints,omitempty"`
}

// seqRoom is the room encodeRecord leaves in front of a record's other
// fields for `{"seq":N`: the key and the 20 digits of the largest uint64.
const seqRoom = len(`{"seq":`) + 20

// encodeRecord writes rec without its sequence number, which a mutation
// learns only under the shard's lock: the fields after seq as json.Marshal
// writes them, after seqRoom free bytes. The fields are escaped in one
// pass into a pooled scratch buffer and then copied into the record's own
// buffer, allocated once at its final size; sequenced fills the room in
// place.
func encodeRecord(rec walRecord) []byte {
	sp := recordScratch.Get().(*[]byte)
	b := append((*sp)[:0], `,"op":`...)
	b = jsoncodec.AppendString(b, rec.Op)
	b = append(b, `,"name":`...)
	b = jsoncodec.AppendString(b, rec.Name)
	if rec.Lattice != "" {
		b = append(b, `,"lattice":`...)
		b = jsoncodec.AppendString(b, rec.Lattice)
	}
	if rec.Constraints != "" {
		b = append(b, `,"constraints":`...)
		b = jsoncodec.AppendString(b, rec.Constraints)
	}
	b = append(b, '}')
	out := make([]byte, seqRoom+len(b))
	copy(out[seqRoom:], b)
	if cap(b) <= maxScratch {
		*sp = b
		recordScratch.Put(sp)
	}
	return out
}

// recordScratch holds the buffers encodeRecord escapes records into, each
// kept up to maxScratch bytes so that one outsized record does not stay
// allocated.
var recordScratch = sync.Pool{New: func() any { return new([]byte) }}

const maxScratch = 1 << 20

// sequenced writes `{"seq":seq` into the room in front of buf, which
// encodeRecord wrote, and returns the record that starts there: the bytes
// json.Marshal writes for the record at seq.
func sequenced(buf []byte, seq uint64) []byte {
	var digits [20]byte
	n := strconv.AppendUint(digits[:0], seq, 10)
	start := seqRoom - len(`{"seq":`) - len(n)
	copy(buf[start+copy(buf[start:], `{"seq":`):], n)
	return buf[start:]
}

var recordFields = []string{"seq", "op", "name", "lattice", "constraints"}

// decodeRecord reads a record as json.Unmarshal reads what json.Marshal
// wrote, except that it refuses a field walRecord does not have, a field
// given twice or spelled in another letter case, and data after the
// object, none of which json.Marshal writes. Each string it returns owns
// its bytes, so a version that keeps the name or a text does not keep the
// payload, or the log file's buffer it is a window of.
func decodeRecord(payload []byte) (walRecord, error) {
	var rec walRecord
	d := jsoncodec.NewCopyingDecoder(payload)
	var err error
	if !d.Null() {
		err = d.Object(recordFields, func(i int) (err error) {
			if d.Null() {
				return nil
			}
			switch i {
			case 0:
				rec.Seq, err = d.Uint()
			case 1:
				rec.Op, err = d.Str()
			case 2:
				rec.Name, err = d.Str()
			case 3:
				rec.Lattice, err = d.Str()
			default:
				rec.Constraints, err = d.Str()
			}
			return err
		})
	}
	if err == nil {
		err = d.Finish("record")
	}
	return rec, err
}
