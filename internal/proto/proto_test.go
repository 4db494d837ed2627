package proto

import (
	"io"
	"net"
	"strings"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"harmony/internal/space"
)

func TestSpaceCodecRoundTrip(t *testing.T) {
	sp := space.MustNew(
		space.IntParam("rows", 10, 100, 10),
		space.EnumParam("alg", "heap", "quick"),
		space.IntParam("bias", -5, 5, 1),
	)
	back, err := DecodeSpace(EncodeSpace(sp))
	if err != nil {
		t.Fatalf("DecodeSpace: %v", err)
	}
	if back.Dims() != sp.Dims() {
		t.Fatalf("dims %d != %d", back.Dims(), sp.Dims())
	}
	for i, p := range sp.Params() {
		q := back.Params()[i]
		if p.Name != q.Name || p.Kind != q.Kind || p.Levels() != q.Levels() {
			t.Errorf("param %d mismatch: %+v vs %+v", i, p, q)
		}
	}
}

func TestDecodeSpaceRejectsBadSpecs(t *testing.T) {
	cases := []struct {
		name  string
		specs []ParamSpec
	}{
		{"empty", nil},
		{"bad kind", []ParamSpec{{Name: "a", Kind: "float"}}},
		{"zero step", []ParamSpec{{Name: "a", Kind: "int", Min: 0, Max: 5}}},
		{"empty range", []ParamSpec{{Name: "a", Kind: "int", Min: 5, Max: 0, Step: 1}}},
		{"no enum values", []ParamSpec{{Name: "a", Kind: "enum"}}},
	}
	for _, c := range cases {
		if _, err := DecodeSpace(c.specs); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func pipePair() (*Conn, *Conn) {
	a, b := net.Pipe()
	return NewConn(a), NewConn(b)
}

func TestConnSendRecv(t *testing.T) {
	a, b := pipePair()
	defer a.Close()
	defer b.Close()
	go func() {
		a.Send(&Message{Type: TypeFetch, Session: "s1"})
	}()
	m, err := b.Recv()
	if err != nil {
		t.Fatalf("Recv: %v", err)
	}
	if m.Type != TypeFetch || m.Session != "s1" {
		t.Errorf("got %+v", m)
	}
}

func TestConnRecvEOF(t *testing.T) {
	a, b := pipePair()
	go a.Close()
	if _, err := b.Recv(); err != io.EOF {
		t.Errorf("err = %v, want io.EOF", err)
	}
}

func TestConnTagGenRoundTrip(t *testing.T) {
	a, b := pipePair()
	defer a.Close()
	defer b.Close()
	go func() {
		a.Send(&Message{Type: TypeReport, Session: "s1", Tag: 7, Gen: 3, Perf: 1.5})
	}()
	m, err := b.Recv()
	if err != nil {
		t.Fatalf("Recv: %v", err)
	}
	if m.Tag != 7 || m.Gen != 3 {
		t.Errorf("tag/gen = %d/%d, want 7/3", m.Tag, m.Gen)
	}
}

// TestMessageSize pins Message at 256 bytes on 64-bit platforms, the
// size class it allocates in: every field added must fill padding (as
// Next does beside Converged) or pay for a larger class on every
// decoded message.
func TestMessageSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("layout pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(Message{}); got != 256 {
		t.Errorf("unsafe.Sizeof(Message{}) = %d, want 256", got)
	}
}

func TestConnSetDeadline(t *testing.T) {
	a, b := pipePair()
	defer a.Close()
	defer b.Close()
	// net.Pipe supports deadlines: an expired deadline fails Recv
	// promptly instead of blocking forever.
	if err := b.SetDeadline(time.Now().Add(-time.Second)); err != nil {
		t.Fatalf("SetDeadline: %v", err)
	}
	if _, err := b.Recv(); err == nil {
		t.Error("expected timeout error from Recv under expired deadline")
	}
	// Streams without deadline support are a no-op, not an error.
	c := NewConn(rwcloser{strings.NewReader(""), io.Discard})
	if err := c.SetDeadline(time.Now()); err != nil {
		t.Errorf("SetDeadline on plain stream: %v", err)
	}
}

type rwcloser struct {
	io.Reader
	io.Writer
}

func (rwcloser) Close() error { return nil }

func TestConnRejectsMalformed(t *testing.T) {
	c := NewConn(rwcloser{strings.NewReader("{bogus\n"), io.Discard})
	if _, err := c.Recv(); err == nil {
		t.Error("expected error for malformed JSON")
	}
	c = NewConn(rwcloser{strings.NewReader("{}\n"), io.Discard})
	if _, err := c.Recv(); err == nil {
		t.Error("expected error for missing type")
	}
}

func TestMessageRoundTripProperty(t *testing.T) {
	f := func(session, app string, perf float64, conv bool) bool {
		// Line framing forbids newlines inside strings only after
		// JSON encoding, which escapes them, so any strings work.
		r, w := io.Pipe()
		c1 := NewConn(rwcloser{r, io.Discard})
		c2 := NewConn(rwcloser{strings.NewReader(""), w})
		msg := &Message{Type: TypeReport, Session: session, App: app, Perf: perf, Converged: conv}
		done := make(chan *Message, 1)
		go func() {
			m, _ := c1.Recv()
			done <- m
		}()
		if err := c2.Send(msg); err != nil {
			return false
		}
		got := <-done
		return got != nil && got.Session == session && got.App == app &&
			got.Perf == perf && got.Converged == conv
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
