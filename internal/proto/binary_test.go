package proto

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

func frameRoundTrip(t *testing.T, f *Frame) *Frame {
	t.Helper()
	buf, err := AppendFrame(nil, f)
	if err != nil {
		t.Fatalf("AppendFrame: %v", err)
	}
	got, err := ReadFrame(bufio.NewReader(bytes.NewReader(buf)))
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	return got
}

// TestBinaryMessageRoundTripAllFields: a message with every field set
// crosses a binary frame unchanged, whether its type has a code or
// travels as a literal string. PerfText, which only JSON uses, is left
// out.
func TestBinaryMessageRoundTripAllFields(t *testing.T) {
	literal := everyField(t)
	literal.PerfText = ""
	coded := everyField(t)
	coded.Type, coded.PerfText = TypeConfig, ""
	msgs := []*Message{literal, coded, {Type: TypeOK}}
	got := frameRoundTrip(t, &Frame{ID: 3, Msgs: msgs})
	if got.ID != 3 || len(got.Msgs) != len(msgs) {
		t.Fatalf("frame = id %d, %d msgs; want id 3, %d msgs", got.ID, len(got.Msgs), len(msgs))
	}
	for i, want := range msgs {
		if !reflect.DeepEqual(got.Msgs[i], want) {
			t.Errorf("msg %d:\n got %+v\nwant %+v", i, got.Msgs[i], want)
		}
	}
}

// TestBinaryTagNumbers pins every field's tag: a frame of one config
// with every field set, written in tag order rather than the struct
// order AppendFrame uses, decodes to that message, so tags keep their
// numbers and a decoder takes fields in any order.
func TestBinaryTagNumbers(t *testing.T) {
	const wire = "\x00\x00\x00v\x03\x01\x04\x01\aSession\x02\x03App\x03\aMachine\x04\bStrategy\x05\x01\x04Name\x04Kind\x05\a\t\x01\x06Values\x06\x0f\a\x11\b\x13\t\x01\n\x1d\v\x1f\f\x01\x01k\x06Values\r\x01\x16\x01\x0e@3\x80\x00\x00\x00\x00\x00\x0f\x05Error\x10\x03\x11\aCacheNS\x14\x01\x15\x1b\x00"
	want := everyField(t)
	want.Type, want.PerfText = TypeConfig, ""
	got, err := ReadFrame(bufio.NewReader(strings.NewReader(wire)))
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != 3 || len(got.Msgs) != 1 || !reflect.DeepEqual(got.Msgs[0], want) {
		t.Errorf("frame id %d, messages %+v\nwant id 3, message %+v", got.ID, got.Msgs, want)
	}
}

// TestBinaryPerfNonFinite pins the satellite bugfix at the binary
// layer: ±Inf and NaN travel as raw IEEE bits.
func TestBinaryPerfNonFinite(t *testing.T) {
	for _, v := range []float64{math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0} {
		got := frameRoundTrip(t, &Frame{Msgs: []*Message{{Type: TypeReport, Perf: v}}})
		if p := got.Msgs[0].Perf; math.Float64bits(p) != math.Float64bits(v) {
			t.Errorf("Perf %v round-tripped to %v", v, p)
		}
	}
	got := frameRoundTrip(t, &Frame{Msgs: []*Message{{Type: TypeReport, Perf: math.NaN()}}})
	if !math.IsNaN(got.Msgs[0].Perf) {
		t.Errorf("NaN round-tripped to %v", got.Msgs[0].Perf)
	}
}

// TestJSONPerfNonFinite pins the same bugfix at the JSON layer: Send
// used to fail outright on math.Inf (encoding/json cannot marshal
// non-finite floats), which burned client reconnect retries.
func TestJSONPerfNonFinite(t *testing.T) {
	for _, v := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		var buf bytes.Buffer
		c := NewConn(rwcloser{strings.NewReader(""), &buf})
		msg := &Message{Type: TypeReport, Session: "s1", Perf: v}
		if err := c.Send(msg); err != nil {
			t.Fatalf("Send(Perf=%v): %v", v, err)
		}
		if msg.Perf != v && !(math.IsNaN(msg.Perf) && math.IsNaN(v)) {
			t.Fatalf("Send mutated the caller's message: %+v", msg)
		}
		back := NewConn(rwcloser{strings.NewReader(buf.String()), io.Discard})
		got, err := back.Recv()
		if err != nil {
			t.Fatalf("Recv(Perf=%v): %v", v, err)
		}
		if got.Perf != v && !(math.IsNaN(got.Perf) && math.IsNaN(v)) {
			t.Errorf("Perf %v round-tripped to %v", v, got.Perf)
		}
		if got.PerfText != "" {
			t.Errorf("PerfText %q leaked out of Recv", got.PerfText)
		}
	}
	// A peer inventing other text is malformed, not silently zero.
	c := NewConn(rwcloser{strings.NewReader(`{"type":"report","perf_text":"huge"}` + "\n"), io.Discard})
	if _, err := c.Recv(); err == nil {
		t.Error("expected error for unknown perf_text")
	}
}

func TestBinaryHandshake(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteHandshake(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Bytes()[0] == '{' {
		t.Fatal("handshake magic collides with JSON's opening byte")
	}
	if err := ReadHandshake(&buf); err != nil {
		t.Fatalf("ReadHandshake: %v", err)
	}
	if err := ReadHandshake(strings.NewReader("HRMB\x63")); err == nil {
		t.Error("expected error for unsupported version")
	}
	if err := ReadHandshake(strings.NewReader("JUNK\x01")); err == nil {
		t.Error("expected error for bad magic")
	}
	if err := ReadHandshake(strings.NewReader("HR")); err == nil {
		t.Error("expected error for truncated handshake")
	}
}

// fieldTag is the binary tag of the member with JSON key key.
func fieldTag(key string) byte {
	var m Message
	for i := 0; ; i++ {
		k, tag, p := m.field(i)
		if k == key || p == nil {
			return tag
		}
	}
}

// overclaimFrame is a frame with a size-byte payload: one config whose
// field tag claims as many elements as the payload has bytes.
func overclaimFrame(tag byte, size int) []byte {
	payload := binary.AppendUvarint([]byte{1, 1, 4, tag}, uint64(size)) // id, count, config
	payload = append(payload, make([]byte, size-len(payload))...)
	return append(binary.BigEndian.AppendUint32(nil, uint32(size)), payload...)
}

func TestBinaryFrameMalformed(t *testing.T) {
	cases := []struct {
		name string
		raw  []byte
	}{
		{"truncated header", []byte{0, 0}},
		{"oversized length", []byte{0xff, 0xff, 0xff, 0xff}},
		{"truncated payload", []byte{0, 0, 0, 9, 1, 1}},
		{"absurd message count", []byte{0, 0, 0, 2, 1, 0xff}},
		{"unknown type code", []byte{0, 0, 0, 3, 1, 1, 0x63}},
		{"unknown field tag", []byte{0, 0, 0, 4, 1, 1, 9, 0x63}},
		{"trailing bytes", []byte{0, 0, 0, 5, 1, 1, 9, 0, 7}},
	}
	for _, c := range cases {
		if _, err := ReadFrame(bufio.NewReader(bytes.NewReader(c.raw))); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
	// A count the frame cannot back is refused before it sizes memory:
	// a 1 MiB frame that claims a param, or a values entry, per byte
	// allocates little more than its payload.
	for _, key := range []string{"space", "values"} {
		raw := overclaimFrame(fieldTag(key), 1<<20)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadFrame(bufio.NewReader(bytes.NewReader(raw)))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s claiming an element per byte: expected error", key)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > 4<<20 {
			t.Errorf("%s claiming an element per byte: ReadFrame allocated %d bytes for a 1 MiB frame", key, n)
		}
	}
	// Clean EOF at a frame boundary is io.EOF, not an error message.
	if _, err := ReadFrame(bufio.NewReader(bytes.NewReader(nil))); err != io.EOF {
		t.Errorf("empty stream: err = %v, want io.EOF", err)
	}
}

// TestRetiredTagsAreUnknown: a register frame of an older peer that
// carries surrogate (tag 18, a bool) or surrogate_keep (tag 19, raw
// float64 bits), encoded as that peer encoded them, fails as any
// unknown field tag does.
func TestRetiredTagsAreUnknown(t *testing.T) {
	for tag, value := range map[byte][]byte{
		18: {1},
		19: binary.BigEndian.AppendUint64(nil, math.Float64bits(0.3)),
	} {
		payload := append([]byte{1, 1, typeCode(TypeRegister), tag}, value...)
		payload = append(payload, 0)
		raw := append(binary.BigEndian.AppendUint32(nil, uint32(len(payload))), payload...)
		_, err := ReadFrame(bufio.NewReader(bytes.NewReader(raw)))
		if want := fmt.Sprintf("unknown field tag %d", tag); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("register frame with retired tag %d: err = %v, want %q", tag, err, want)
		}
	}
}

// TestBinaryCloseMidFrame: a peer vanishing between the header and
// the payload surfaces as a framing error, never a hang or a bogus
// message.
func TestBinaryCloseMidFrame(t *testing.T) {
	full, err := AppendFrame(nil, &Frame{ID: 1, Msgs: []*Message{
		{Type: TypeReport, Session: "s1", Perf: 3.5, Seq: 2},
	}})
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < len(full); cut++ {
		_, err := ReadFrame(bufio.NewReader(bytes.NewReader(full[:cut])))
		if err == nil {
			t.Fatalf("truncation at %d/%d bytes decoded successfully", cut, len(full))
		}
		if err == io.EOF {
			t.Fatalf("truncation at %d/%d bytes reported clean EOF", cut, len(full))
		}
	}
}

// TestBinaryRoundTripProperty drives the codec with arbitrary field
// values, including unprintable strings and extreme numbers.
func TestBinaryRoundTripProperty(t *testing.T) {
	f := func(session, app, errText string, perf float64, seq uint64, tag, gen int, conv bool) bool {
		msg := &Message{
			Type: TypeReport, Session: session, App: app, Error: errText,
			Perf: perf, Seq: seq, Tag: tag, Gen: gen, Converged: conv,
		}
		got := frameRoundTrip(t, &Frame{ID: seq, Msgs: []*Message{msg}})
		return reflect.DeepEqual(got.Msgs[0], msg) && got.ID == seq
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
