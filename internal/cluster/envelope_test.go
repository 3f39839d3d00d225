package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"minup/internal/catalog"
)

// uintsOf reads b as little-endian 8-byte numbers, dropping a short tail.
func uintsOf(b []byte) []uint64 {
	var out []uint64
	for ; len(b) >= 8; b = b[8:] {
		out = append(out, binary.LittleEndian.Uint64(b))
	}
	return out
}

// intsOf reads b as signed bytes.
func intsOf(b []byte) []int {
	var out []int
	for _, c := range b {
		out = append(out, int(int8(c)))
	}
	return out
}

// checkRefusals checks that read refuses data, an object json.Marshal
// wrote, with any of its keys given twice or spelled with its first letter
// upper-cased, both of which json.Unmarshal accepts.
func checkRefusals(t *testing.T, data []byte, read func([]byte) error) {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(data))
	if _, err := dec.Token(); err != nil {
		t.Fatal(err)
	}
	for dec.More() {
		at := int(dec.InputOffset())
		tok, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		var value json.RawMessage
		if err := dec.Decode(&value); err != nil {
			t.Fatal(err)
		}
		key := tok.(string)
		at += bytes.IndexByte(data[at:], '"') + 1
		upper := bytes.Clone(data)
		upper[at] = strings.ToUpper(key[:1])[0]
		dup := append([]byte(`{"`+key+`":`+string(value)+`,`), data[1:]...)
		for what, in := range map[string][]byte{"repeated": dup, "upper-cased": upper} {
			if read(in) == nil {
				t.Fatalf("a %s key %q is accepted: %s", what, key, in)
			}
		}
	}
}

// FuzzClusterEnvelope checks the envelope codec against encoding/json: for
// arbitrary messages and replies the writer's bytes are json.Marshal's,
// the reader returns what json.Unmarshal returns for them, into a zero
// value and into one a previous frame filled (an omitted field reads as
// absent), and a key given twice or in another letter case is refused.
// Seqs are the 8-byte words of a []byte, and Dirty its signed bytes.
func FuzzClusterEnvelope(f *testing.F) {
	payload := bytes.Repeat([]byte(`{"seq":7,"op":"put","name":"p","constraints":"a >= S\n"}`), 100)
	seqs := binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, 3), 1<<63)
	for _, kind := range []string{msgHeartbeat, msgAppend, msgSnapshot, msgVote, "", "wéird\"<kind>"} {
		f.Add(kind, 1, uint64(4), "http://127.0.0.1:8080", 2, seqs, 1, uint64(9), payload[:100], uint32(0xdeadbeef), uint64(3),
			true, false, []byte{1, 3}, false, "")
	}
	// An empty-payload probe, a multi-KiB payload, dirty lists and errors
	// that need escapes.
	f.Add(msgAppend, 0, uint64(1), "", 0, []byte(nil), 0, uint64(5), []byte(nil), uint32(0), uint64(0),
		false, true, []byte(nil), false, "")
	f.Add(msgAppend, 2, uint64(1), "http://node-2.test", 0, []byte(nil), 3, uint64(6), payload, uint32(0), uint64(0),
		true, false, []byte{0, 1, 2, 3}, true, "snapshot checksum mismatch")
	f.Add(msgSnapshot, -1, ^uint64(0), "ctl\x01<>& \xff", -5, seqs[:8], -2, ^uint64(0), []byte{0}, ^uint32(0), ^uint64(0),
		false, true, []byte{0x80, 0x7f}, true, "catalog: apply: \"quoted\"\n\tbad\xff\xed\xa0\x80   <tag> & more")
	f.Fuzz(func(t *testing.T, kind string, from int, term uint64, leaderHTTP string, shards int, seqWords []byte,
		shard int, seq uint64, payload []byte, crc uint32, llt uint64,
		ok, needSync bool, dirty []byte, granted bool, errText string) {
		msg := message{
			Kind: kind, From: from, Term: term, LeaderHTTP: leaderHTTP, Shards: shards, Seqs: uintsOf(seqWords),
			Shard: shard, Seq: seq, Payload: payload, CRC: crc, LastLogTerm: llt,
		}
		rep := reply{OK: ok, Term: term, Seqs: uintsOf(seqWords), NeedSync: needSync, Dirty: intsOf(dirty), Granted: granted, Err: errText}

		got := appendMessage(nil, &msg)
		want, err := json.Marshal(msg)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("appendMessage writes\n%s\njson.Marshal writes\n%s", got, want)
		}
		var ref message
		if err := json.Unmarshal(got, &ref); err != nil {
			t.Fatal(err)
		}
		// used holds every field and list, as a connection's message does
		// after a frame that carried them.
		used := message{Kind: "x", From: 9, Term: 9, LeaderHTTP: leaderHTTP, Shards: 9, Seqs: []uint64{1, 2, 3},
			Shard: 9, Seq: 9, Payload: []byte("old"), CRC: 9, LastLogTerm: 9}
		for _, back := range []*message{{}, &used} {
			if err := back.read(got); err != nil {
				t.Fatalf("reading %s: %v", got, err)
			}
			if !reflect.DeepEqual(*back, ref) {
				t.Fatalf("read %s as\n%#v\njson.Unmarshal reads\n%#v", got, *back, ref)
			}
		}
		checkRefusals(t, got, func(b []byte) error { var m message; return m.read(b) })

		got = appendReply(nil, &rep)
		if want, err = json.Marshal(rep); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("appendReply writes\n%s\njson.Marshal writes\n%s", got, want)
		}
		var refRep reply
		if err := json.Unmarshal(got, &refRep); err != nil {
			t.Fatal(err)
		}
		usedRep := reply{OK: true, Term: 9, Seqs: []uint64{1, 2}, NeedSync: true, Dirty: []int{4}, Granted: true, Err: "old"}
		for _, back := range []*reply{{}, &usedRep} {
			if err := back.read(got); err != nil {
				t.Fatalf("reading %s: %v", got, err)
			}
			if !reflect.DeepEqual(*back, refRep) {
				t.Fatalf("read %s as\n%#v\njson.Unmarshal reads\n%#v", got, *back, refRep)
			}
		}
		checkRefusals(t, got, func(b []byte) error { var r reply; return r.read(b) })
	})
}

// TestEnvelopeReadOwnsWhatItKeeps: a message read from a frame buffer
// shares none of it, so the buffer can take the next frame while the
// payload sits in the WAL and the RecordLog and the leader address in the
// node.
func TestEnvelopeReadOwnsWhatItKeeps(t *testing.T) {
	msg := message{Kind: msgHeartbeat, From: 1, Term: 2, LeaderHTTP: "http://leader", Seqs: []uint64{5}, Payload: []byte("record")}
	frame := appendMessage(nil, &msg)
	var m message
	if err := m.read(frame); err != nil {
		t.Fatal(err)
	}
	kept := m
	for i := range frame {
		frame[i] = ' '
	}
	if kept.Kind != msgHeartbeat || kept.LeaderHTTP != "http://leader" || string(kept.Payload) != "record" {
		t.Fatalf("the message read changed with its frame buffer: %+v", kept)
	}
}

// appendRPC is a follower that holds one replicated put on its one shard,
// a client connected to it, and the append message that ships the put
// again: the follower answers it as a duplicate, so a round trip moves the
// record both ways and applies nothing.
type appendRPC struct {
	client *rpcClient
	msg    message
	rep    reply
}

func newAppendRPC(tb testing.TB) *appendRPC {
	tb.Helper()
	ring := NewRecordLog(0)
	cat, err := catalog.Open(catalog.Options{Shards: 1, OnRecord: ring.Append})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { cat.Close() })
	// About the size of a replicated_write put: 160 attributes in a chain
	// of constraints, a 13 KB record and an 18 KB frame once it is in
	// base64.
	var cons strings.Builder
	for i := 0; i < 160; i++ {
		fmt.Fprintf(&cons, "attribute_%03d >= attribute_%03d\nlub(attribute_%03d, attribute_%03d) >= C\n", i+1, i, i, i+2)
	}
	if _, err := cat.Put(context.Background(), "p", testLattice, cons.String(), catalog.Unconditional); err != nil {
		tb.Fatal(err)
	}
	payload, ok := ring.get(0, 1)
	if !ok {
		tb.Fatal("the put's record is not in the ring")
	}
	// A tick of an hour: the node neither campaigns nor replicates while
	// the round trips run.
	node, err := Open(Options{ID: 0, Addr: "127.0.0.1:0", Catalog: cat, Records: ring, Tick: time.Hour})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { node.Close() })
	r := &appendRPC{
		client: &rpcClient{addr: node.Addr(), timeout: 10 * time.Second},
		msg: message{Kind: msgAppend, From: 1, Term: 1, LeaderHTTP: "http://127.0.0.1:8080",
			Shard: 0, Seq: 1, Payload: payload},
	}
	tb.Cleanup(r.client.closeConn)
	r.roundTrip(tb)
	return r
}

func (r *appendRPC) roundTrip(tb testing.TB) {
	if err := r.client.call(&r.msg, &r.rep); err != nil {
		tb.Fatal(err)
	}
	if !r.rep.OK || len(r.rep.Seqs) != 1 || r.rep.Seqs[0] != 1 {
		tb.Fatalf("duplicate append answered %+v", r.rep)
	}
}

// TestAppendRoundTripAllocs: an append round trip allocates only the
// follower's copy of the shipped record. Every other byte moves through
// buffers the client, the connection and the reply keep.
func TestAppendRoundTripAllocs(t *testing.T) {
	r := newAppendRPC(t)
	if n := testing.AllocsPerRun(100, func() { r.roundTrip(t) }); n > 2 {
		t.Fatalf("an append round trip allocates %v times, want at most 2", n)
	}
}

// BenchmarkClusterAppendRPC: one append round trip of a replicated put's
// record over loopback, answered as a duplicate, so that no catalog apply
// is timed: the leader's frame write, the follower's read, decode and
// reply, and the leader's read of the reply.
func BenchmarkClusterAppendRPC(b *testing.B) {
	r := newAppendRPC(b)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		r.roundTrip(b)
	}
}
