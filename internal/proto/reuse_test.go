package proto

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"strconv"
	"strings"
	"testing"
	"unsafe"
)

// jsonLine is m as Send writes it.
func jsonLine(t *testing.T, m *Message) string {
	t.Helper()
	var buf bytes.Buffer
	if err := NewConn(rwcloser{strings.NewReader(""), &buf}).Send(m); err != nil {
		t.Fatalf("Send(%+v): %v", m, err)
	}
	return buf.String()
}

// TestRecvIntoReusesNothing: for every ordered pair of lines, the
// second decoded into the message that held the first equals the second
// decoded fresh, so no field or value of a reused message leaks. Every
// message is sent both as its canonical line, which the fast decoder
// takes unless it carries a space or an escape, and spaced out, which
// goes to encoding/json, so the two paths alternate on one message.
func TestRecvIntoReusesNothing(t *testing.T) {
	var lines []string
	for _, m := range fuzzSeeds() {
		line := jsonLine(t, m)
		spaced := strings.ReplaceAll(line, `":`, `": `)
		var c Conn
		if fast := c.decodeJSON([]byte(line), new(Message)); fast != (m.Space == nil && !strings.Contains(line, `\`)) {
			t.Errorf("fast decoder took %q: %v", line, fast)
		}
		if c.decodeJSON([]byte(spaced), new(Message)) {
			t.Errorf("fast decoder took %q", spaced)
		}
		lines = append(lines, line, spaced)
	}
	for _, lineA := range lines {
		for _, lineB := range lines {
			c := NewConn(rwcloser{strings.NewReader(lineA + lineB), io.Discard})
			var m Message
			if err := c.RecvInto(&m); err != nil {
				t.Fatalf("RecvInto(%q): %v", lineA, err)
			}
			if err := c.RecvInto(&m); err != nil {
				t.Fatalf("RecvInto(%q) after %q: %v", lineB, lineA, err)
			}
			want, err := NewConn(rwcloser{strings.NewReader(lineB), io.Discard}).Recv()
			if err != nil {
				t.Fatalf("Recv(%q): %v", lineB, err)
			}
			if !sameMessage(&m, want) {
				t.Errorf("%q after %q\n got %+v\nwant %+v", lineB, lineA, &m, want)
			}
		}
	}
}

// endless yields 'a' forever and counts what it yielded.
type endless struct{ n int }

func (e *endless) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 'a'
	}
	e.n += len(p)
	return len(p), nil
}

// TestRecvIntoBoundsLine: a JSON line may not outgrow a binary frame. A
// peer that sends maxFrame+1 bytes without a newline, or never stops,
// is refused once maxFrame is passed instead of growing the reader.
func TestRecvIntoBoundsLine(t *testing.T) {
	tooLong := func(err error) bool { return err != nil && strings.Contains(err.Error(), "line longer than the") }
	var m Message
	src := io.LimitReader(&endless{}, maxFrame+1)
	if err := NewConn(rwcloser{src, io.Discard}).RecvInto(&m); !tooLong(err) {
		t.Errorf("%d bytes without a newline: err = %v, want the line-length error", maxFrame+1, err)
	}
	e := &endless{}
	if err := NewConn(rwcloser{e, io.Discard}).RecvInto(&m); !tooLong(err) {
		t.Errorf("an endless line: err = %v, want the line-length error", err)
	}
	if limit := maxFrame + 2*bufio.NewReader(nil).Size(); e.n > limit {
		t.Errorf("read %d bytes of an endless line, want at most %d", e.n, limit)
	}
	// A line of exactly maxFrame bytes, newline included, is still read.
	line := `{"type":"ok","error":"` + strings.Repeat("x", maxFrame-len(`{"type":"ok","error":""}`)-1) + "\"}\n"
	if err := NewConn(rwcloser{strings.NewReader(line), io.Discard}).RecvInto(&m); err != nil || len(m.Error) != maxFrame-25 {
		t.Errorf("a maxFrame-byte line: err = %v, error text %d bytes", err, len(m.Error))
	}
}

// TestReadFrameIntoAllocatesNothing pins the per-request decode of
// both ends: a frame of a report and of a config whose keys and values
// the Frame decoded before, decoded into the frame that held the
// previous one, allocates nothing.
func TestReadFrameIntoAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are pinned without the race detector")
	}
	wire, err := AppendFrame(nil, &Frame{ID: 9, Msgs: []*Message{
		{Type: TypeReport, Session: "s1234", Perf: 123.456, Tag: 3, Next: true, Seq: 8},
		{Type: TypeConfig, Values: map[string]string{"x": "25", "y": "5"}, Tag: 4, Seq: 8},
	}})
	if err != nil {
		t.Fatal(err)
	}
	src := bytes.NewReader(wire)
	br := bufio.NewReader(src)
	var f Frame
	read := func() {
		src.Reset(wire)
		br.Reset(src)
		if err := ReadFrameInto(br, &f); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(100, read); n != 0 {
		t.Errorf("ReadFrameInto of a report frame allocates %v times, want 0", n)
	}
	if m := f.Msgs[0]; m.Session != "s1234" || m.Tag != 3 || !m.Next {
		t.Errorf("decoded %+v", m)
	}
	if m := f.Msgs[1]; m.Values["x"] != "25" || m.Values["y"] != "5" || len(m.Values) != 2 {
		t.Errorf("decoded %+v", m)
	}
}

// TestAppendFrameAllocatesNothing pins the encoder of both ends: a
// frame of a report, a config with four values and a fetch, appended
// to a reused buffer, allocates nothing.
func TestAppendFrameAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are pinned without the race detector")
	}
	f := &Frame{ID: 9, Msgs: []*Message{
		{Type: TypeReport, Session: "s1234", Perf: 123.456, Tag: 3, Next: true, Seq: 8},
		{Type: TypeConfig, Values: map[string]string{"w": "heap", "x": "25", "y": "5", "z": "-1"}, Tag: 4, Seq: 8},
		{Type: TypeFetch, Session: "s1234", Seq: 9},
	}}
	buf, err := AppendFrame(nil, f)
	if err != nil {
		t.Fatal(err)
	}
	want := string(buf)
	if n := testing.AllocsPerRun(100, func() { buf, err = AppendFrame(buf[:0], f) }); n != 0 {
		t.Errorf("AppendFrame allocates %v times, want 0", n)
	}
	if err != nil || string(buf) != want {
		t.Errorf("AppendFrame into a reused buffer = %q, %v; want %q", buf, err, want)
	}
}

// TestStrTableBounded: the table shares a string it decoded before and
// keeps a fixed number of strings of bounded length, however many and
// however long the strings a peer sends.
func TestStrTableBounded(t *testing.T) {
	var tab strTable
	a := tab.string([]byte("quick"))
	if b := tab.string([]byte("quick")); b != "quick" || unsafe.StringData(a) != unsafe.StringData(b) {
		t.Errorf("a repeated string was copied again")
	}
	for i := range 1000 {
		s := strings.Repeat(strconv.Itoa(i), i%20)
		if got := tab.string([]byte(s)); got != s {
			t.Fatalf("table returned %q for %q", got, s)
		}
	}
	for _, s := range tab {
		if len(s) > maxTabled {
			t.Errorf("the table keeps a %d-byte string", len(s))
		}
	}
}

// TestReadFrameIntoLargePayload: a frame larger than the reader's
// buffer is read through a copy and decodes the same.
func TestReadFrameIntoLargePayload(t *testing.T) {
	big := &Message{Type: TypeError, Error: strings.Repeat("e", 3*bufio.NewReader(nil).Size())}
	wire, err := AppendFrame(nil, &Frame{ID: 2, Msgs: []*Message{big, {Type: TypeOK}}})
	if err != nil {
		t.Fatal(err)
	}
	f := Frame{Msgs: []*Message{{Type: TypeFetch, Session: "s1"}}}
	if err := ReadFrameInto(bufio.NewReader(bytes.NewReader(wire)), &f); err != nil {
		t.Fatal(err)
	}
	if f.ID != 2 || len(f.Msgs) != 2 || !sameMessage(f.Msgs[0], big) || f.Msgs[1].Type != TypeOK {
		t.Errorf("decoded id %d, %d messages", f.ID, len(f.Msgs))
	}
	// Cut short, it is a truncated frame, not a clean close.
	err = ReadFrameInto(bufio.NewReader(bytes.NewReader(wire[:len(wire)-1])), &f)
	if err == nil || errors.Is(err, io.EOF) {
		t.Errorf("truncated large frame: err = %v", err)
	}
}
