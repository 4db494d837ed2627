package client

import (
	"bufio"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"harmony/internal/proto"
)

// countingConn counts the Write calls that reach the socket.
type countingConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// echoMux opens a Mux over net.Pipe to a peer that answers every
// request with ok under its Seq, one reply frame per request frame,
// and returns it with the counter of its socket writes.
func echoMux(t *testing.T) (*Mux, *countingConn) {
	t.Helper()
	a, b := net.Pipe()
	t.Cleanup(func() { a.Close(); b.Close() })
	go func() {
		defer b.Close()
		if proto.ReadHandshake(b) != nil || proto.WriteHandshake(b) != nil {
			return
		}
		br := bufio.NewReader(b)
		var req, out proto.Frame
		var buf []byte
		for proto.ReadFrameInto(br, &req) == nil {
			out.ID, out.Msgs = req.ID, out.Msgs[:0]
			for _, m := range req.Msgs {
				out.Msgs = append(out.Msgs, &proto.Message{Type: proto.TypeOK, Seq: m.Seq})
			}
			var err error
			if buf, err = proto.AppendFrame(buf[:0], &out); err != nil {
				return
			}
			if _, err := b.Write(buf); err != nil {
				return
			}
		}
	}()
	cc := &countingConn{Conn: a}
	m, err := NewMuxFromConn(cc)
	if err != nil {
		t.Fatalf("NewMuxFromConn: %v", err)
	}
	t.Cleanup(func() { m.Close() })
	return m, cc
}

// TestMuxLoneRoundIsOneWrite: a call with no other writer waiting
// writes its frame and flushes it in one socket write.
func TestMuxLoneRoundIsOneWrite(t *testing.T) {
	m, cc := echoMux(t)
	sess := m.Attach("s1")
	for i := range 5 {
		before := cc.writes.Load()
		if err := sess.Report(1); err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		if n := cc.writes.Load() - before; n != 1 {
			t.Fatalf("round %d took %d socket writes, want 1", i, n)
		}
	}
}

// TestMuxConcurrentRoundsShareWrites: K goroutines doing rounds on one
// Mux all get their replies, and a wave of K rounds takes at most K
// socket writes — the writer that leaves another waiting leaves the
// flush to it, and nothing is left unflushed.
func TestMuxConcurrentRoundsShareWrites(t *testing.T) {
	const k, waves = 8, 20
	m, cc := echoMux(t)
	for w := range waves {
		before := cc.writes.Load()
		errs := make([]error, k)
		var wg sync.WaitGroup
		for i := range k {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[i] = m.Attach("s1").Report(float64(i))
			}()
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("wave %d, goroutine %d: %v", w, i, err)
			}
		}
		if n := cc.writes.Load() - before; n > k {
			t.Fatalf("wave %d of %d rounds took %d socket writes, want at most %d", w, k, n, k)
		}
	}
}

// muxGoroutines counts the goroutines running a Mux method, with the
// stacks it counted them in.
func muxGoroutines() (int, string) {
	buf := make([]byte, 1<<20)
	stacks := string(buf[:runtime.Stack(buf, true)])
	n := 0
	for _, g := range strings.Split(stacks, "\n\n") {
		if strings.Contains(g, "client.(*Mux)") {
			n++
		}
	}
	return n, stacks
}

// TestMuxHasOneGoroutine: an open Mux runs one goroutine of its own,
// the reader — every call writes its frame from the caller's goroutine
// — and none once Close returns.
func TestMuxHasOneGoroutine(t *testing.T) {
	m, _ := echoMux(t)
	if err := m.Attach("s1").Report(1); err != nil {
		t.Fatal(err)
	}
	if n, stacks := muxGoroutines(); n != 1 {
		t.Fatalf("an open mux runs %d goroutines, want 1:\n%s", n, stacks)
	}
	m.Close()
	for deadline := time.Now().Add(time.Second); ; time.Sleep(10 * time.Millisecond) {
		n, stacks := muxGoroutines()
		if n == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d mux goroutines still run after Close returned:\n%s", n, stacks)
		}
	}
}
