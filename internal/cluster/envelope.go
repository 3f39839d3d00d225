package cluster

import (
	"encoding/base64"
	"fmt"
	"strconv"

	"minup/internal/jsoncodec"
)

// The envelope codec: a message or reply is written as the bytes
// json.Marshal writes for it, so nodes of builds that still encode it with
// encoding/json exchange frames with this one, and read with
// internal/jsoncodec, which refuses an unknown field, a field given twice
// or spelled in another letter case, and data after the object. Neither
// side reflects or boxes, and both work in buffers their callers keep: a
// read fills a reused value in place, and only a shipped payload is a new
// allocation, because the WAL and the RecordLog keep it.

// maxKeptFrame bounds the frame buffers a connection keeps between frames.
// It keeps a replicated put's frame (tens of KiB, its record in base64)
// and drops a shipped shard snapshot's, so one catch-up does not stay
// allocated for the life of the connection.
const maxKeptFrame = 64 << 10

// kept returns buf emptied for the next frame, or nil once it has grown
// past maxKeptFrame.
func kept(buf []byte) []byte {
	if cap(buf) > maxKeptFrame {
		return nil
	}
	return buf[:0]
}

// appendMessage appends m as json.Marshal writes it.
func appendMessage(b []byte, m *message) []byte {
	b = append(b, `{"kind":`...)
	b = jsoncodec.AppendString(b, m.Kind)
	b = append(b, `,"from":`...)
	b = strconv.AppendInt(b, int64(m.From), 10)
	b = append(b, `,"term":`...)
	b = strconv.AppendUint(b, m.Term, 10)
	if m.LeaderHTTP != "" {
		b = append(b, `,"leader_http":`...)
		b = jsoncodec.AppendString(b, m.LeaderHTTP)
	}
	if m.Shards != 0 {
		b = append(b, `,"shards":`...)
		b = strconv.AppendInt(b, int64(m.Shards), 10)
	}
	if len(m.Seqs) > 0 {
		b = appendUints(append(b, `,"seqs":`...), m.Seqs)
	}
	if m.Shard != 0 {
		b = append(b, `,"shard":`...)
		b = strconv.AppendInt(b, int64(m.Shard), 10)
	}
	if m.Seq != 0 {
		b = append(b, `,"seq":`...)
		b = strconv.AppendUint(b, m.Seq, 10)
	}
	if len(m.Payload) > 0 {
		b = append(b, `,"payload":"`...)
		b = base64.StdEncoding.AppendEncode(b, m.Payload)
		b = append(b, '"')
	}
	if m.CRC != 0 {
		b = append(b, `,"crc":`...)
		b = strconv.AppendUint(b, uint64(m.CRC), 10)
	}
	if m.LastLogTerm != 0 {
		b = append(b, `,"last_log_term":`...)
		b = strconv.AppendUint(b, m.LastLogTerm, 10)
	}
	return append(b, '}')
}

// appendReply appends r as json.Marshal writes it.
func appendReply(b []byte, r *reply) []byte {
	b = append(b, `{"ok":`...)
	b = strconv.AppendBool(b, r.OK)
	b = append(b, `,"term":`...)
	b = strconv.AppendUint(b, r.Term, 10)
	if len(r.Seqs) > 0 {
		b = appendUints(append(b, `,"seqs":`...), r.Seqs)
	}
	if r.NeedSync {
		b = append(b, `,"need_sync":true`...)
	}
	if len(r.Dirty) > 0 {
		b = append(b, `,"dirty":[`...)
		for i, v := range r.Dirty {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(v), 10)
		}
		b = append(b, ']')
	}
	if r.Granted {
		b = append(b, `,"granted":true`...)
	}
	if r.Err != "" {
		b = append(b, `,"err":`...)
		b = jsoncodec.AppendString(b, r.Err)
	}
	return append(b, '}')
}

func appendUints(b []byte, vs []uint64) []byte {
	b = append(b, '[')
	for i, v := range vs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendUint(b, v, 10)
	}
	return append(b, ']')
}

var messageFields = []string{"kind", "from", "term", "leader_http", "shards", "seqs", "shard", "seq", "payload", "crc", "last_log_term"}

// read sets m to what json.Unmarshal reads from payload into a zero
// message. Seqs is read into the array m's Seqs had, and is nil when the
// payload omits it. Nothing m holds afterwards shares payload's memory: a
// kind or leader address equal to the one m held before, or a kind this
// package sends, is that string; Payload is a new slice.
func (m *message) read(payload []byte) error {
	prev := *m
	*m = message{}
	d := jsoncodec.NewCopyingDecoder(payload)
	if d.Null() {
		return d.Finish("message")
	}
	err := d.Object(messageFields, func(i int) (err error) {
		if d.Null() {
			return nil
		}
		switch i {
		case 0:
			m.Kind, err = d.StrKnown(msgHeartbeat, msgAppend, msgSnapshot, msgVote)
		case 1:
			m.From, err = d.Int()
		case 2:
			m.Term, err = d.Uint()
		case 3:
			m.LeaderHTTP, err = d.StrKnown(prev.LeaderHTTP)
		case 4:
			m.Shards, err = d.Int()
		case 5:
			m.Seqs, err = d.Uints(prev.Seqs[:0])
		case 6:
			m.Shard, err = d.Int()
		case 7:
			m.Seq, err = d.Uint()
		case 8:
			m.Payload, err = d.Base64()
		case 9:
			m.CRC, err = readUint32(&d)
		default:
			m.LastLogTerm, err = d.Uint()
		}
		return err
	})
	if err != nil {
		return err
	}
	return d.Finish("message")
}

var replyFields = []string{"ok", "term", "seqs", "need_sync", "dirty", "granted", "err"}

// read sets r to what json.Unmarshal reads from payload into a zero reply.
// Seqs and Dirty are read into the arrays r's had, and each is nil when
// the payload omits it; Err is a copy.
func (r *reply) read(payload []byte) error {
	seqs, dirty := r.Seqs[:0], r.Dirty[:0]
	*r = reply{}
	d := jsoncodec.NewCopyingDecoder(payload)
	if d.Null() {
		return d.Finish("reply")
	}
	err := d.Object(replyFields, func(i int) (err error) {
		if d.Null() {
			return nil
		}
		switch i {
		case 0:
			r.OK, err = d.Bool()
		case 1:
			r.Term, err = d.Uint()
		case 2:
			r.Seqs, err = d.Uints(seqs)
		case 3:
			r.NeedSync, err = d.Bool()
		case 4:
			r.Dirty, err = d.Ints(dirty)
		case 5:
			r.Granted, err = d.Bool()
		default:
			r.Err, err = d.Str()
		}
		return err
	})
	if err != nil {
		return err
	}
	return d.Finish("reply")
}

// readUint32 reads a number into a uint32, as encoding/json does.
func readUint32(d *jsoncodec.Decoder) (uint32, error) {
	n, err := d.Uint()
	if err == nil && uint64(uint32(n)) != n {
		return 0, fmt.Errorf("number %d does not fit 32 bits", n)
	}
	return uint32(n), err
}
