package server

import (
	"bufio"
	"errors"
	"net"
	"os"
	"testing"
	"time"

	"harmony/internal/proto"
)

// pipeBinary serves one end of a net.Pipe as a binary connection and
// returns the other end with the handshake done. A pipe buffers
// nothing: a write returns only once the server has read all of it, so
// the test sees exactly when the server reads and when it flushes.
func pipeBinary(t *testing.T) (net.Conn, *bufio.Reader) {
	t.Helper()
	s := New()
	s.Logf = func(string, ...any) {}
	cli, srv := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.handle(srv)
	}()
	t.Cleanup(func() {
		_ = cli.Close()
		<-done
	})
	if err := cli.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if err := proto.WriteHandshake(cli); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(cli)
	if err := proto.ReadHandshake(br); err != nil {
		t.Fatal(err)
	}
	return cli, br
}

// fetchFrame is a one-message request frame; the server answers it
// with an error reply, since the session does not exist.
func fetchFrame(t *testing.T, id uint64) []byte {
	t.Helper()
	buf, err := proto.AppendFrame(nil, &proto.Frame{ID: id, Msgs: []*proto.Message{{Type: proto.TypeFetch, Session: "s9", Seq: id}}})
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

func readReply(t *testing.T, br *bufio.Reader, id uint64) {
	t.Helper()
	f, err := proto.ReadFrame(br)
	if err != nil {
		t.Fatalf("reading the reply to frame %d: %v", id, err)
	}
	if f.ID != id || len(f.Msgs) != 1 || f.Msgs[0].Seq != id {
		t.Fatalf("got reply frame %d with %d messages, want frame %d", f.ID, len(f.Msgs), id)
	}
}

// TestBinaryFlushesBeforePartialFrame pins the flush rule of
// handleBinary: a reply never waits on a request frame the peer has not
// finished sending. One write carries a whole frame and half of the
// next; the first reply must arrive before the rest is sent.
func TestBinaryFlushesBeforePartialFrame(t *testing.T) {
	cli, br := pipeBinary(t)
	one, two := fetchFrame(t, 1), fetchFrame(t, 2)
	half := len(two) / 2
	if _, err := cli.Write(append(one, two[:half]...)); err != nil {
		t.Fatal(err)
	}
	readReply(t, br, 1)
	if _, err := cli.Write(two[half:]); err != nil {
		t.Fatal(err)
	}
	readReply(t, br, 2)
}

// TestBinaryBackpressureStopsReads pins the other half of the rule: a
// peer that stops reading its replies blocks the server's write, and
// with it the server's reads, so the peer's next write times out
// instead of the server buffering requests it cannot answer. Once the
// reply is drained the server reads again.
func TestBinaryBackpressureStopsReads(t *testing.T) {
	cli, br := pipeBinary(t)
	if _, err := cli.Write(fetchFrame(t, 1)); err != nil {
		t.Fatal(err)
	}
	if err := cli.SetWriteDeadline(time.Now().Add(50 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	two := fetchFrame(t, 2)
	n, err := cli.Write(two)
	if !errors.Is(err, os.ErrDeadlineExceeded) || n != 0 {
		t.Fatalf("a write behind an unread reply wrote %d bytes (%v), want a timeout with nothing read", n, err)
	}
	if err := cli.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	readReply(t, br, 1)
	if _, err := cli.Write(two); err != nil {
		t.Fatal(err)
	}
	readReply(t, br, 2)
}
