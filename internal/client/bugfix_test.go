package client

import (
	"bufio"
	"errors"
	"io"
	"math"
	"net"
	"slices"
	"testing"

	"harmony/internal/proto"
)

// TestReportNonFiniteSucceeds is the client half of the non-finite
// Perf regression: Session.Report(math.Inf(1)) — the documented way
// to reject an infeasible configuration — used to fail inside
// Conn.Send because encoding/json cannot marshal non-finite floats.
func TestReportNonFiniteSucceeds(t *testing.T) {
	for _, v := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		c := fakeServer(t, &proto.Message{Type: proto.TypeOK})
		sess := c.Attach("s1")
		if err := sess.Report(v); err != nil {
			t.Errorf("Report(%v): %v", v, err)
		}
	}
}

// TestMuxFailureUnblocksCalls: when the peer dies mid-exchange, every
// in-flight Call must return an error promptly instead of hanging on
// a reply that will never come.
func TestMuxFailureUnblocksCalls(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	go func() {
		defer b.Close()
		if err := proto.ReadHandshake(b); err != nil {
			return
		}
		if err := proto.WriteHandshake(b); err != nil {
			return
		}
		// Swallow the start of the first frame, then vanish.
		buf := make([]byte, 4)
		_, _ = io.ReadFull(b, buf)
	}()
	m, err := NewMuxFromConn(a)
	if err != nil {
		t.Fatalf("NewMuxFromConn: %v", err)
	}
	defer m.Close()
	sess := m.Attach("s1")
	if _, _, err := sess.Fetch(); err == nil {
		t.Fatal("Fetch on a dead mux returned success")
	}
	if m.Err() == nil {
		t.Error("mux did not latch its terminal error")
	}
	// Later calls fail fast with the latched error.
	if _, _, err := sess.Best(); err == nil {
		t.Error("Best after failure returned success")
	}
}

// TestMuxFailedCallDropsRecord: a call failed by a transport fault
// drops its record, which the writer or reader may still hold; only a
// call whose reply arrived puts its record back in Mux.free.
func TestMuxFailedCallDropsRecord(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	go func() {
		defer b.Close()
		if proto.ReadHandshake(b) != nil || proto.WriteHandshake(b) != nil {
			return
		}
		// Answer the first frame, take the second, then vanish.
		br := bufio.NewReader(b)
		var req proto.Frame
		if proto.ReadFrameInto(br, &req) != nil {
			return
		}
		ok := proto.Message{Type: proto.TypeOK, Seq: req.Msgs[0].Seq}
		buf, err := proto.AppendFrame(nil, &proto.Frame{ID: req.ID, Msgs: []*proto.Message{&ok}})
		if err != nil {
			return
		}
		if _, err := b.Write(buf); err != nil {
			return
		}
		_ = proto.ReadFrameInto(br, &req)
	}()
	m, err := NewMuxFromConn(a)
	if err != nil {
		t.Fatalf("NewMuxFromConn: %v", err)
	}
	defer m.Close()
	sess := m.Attach("s1")
	if err := sess.Report(1); err != nil {
		t.Fatalf("answered Report: %v", err)
	}
	m.mu.Lock()
	if len(m.free) != 1 {
		m.mu.Unlock()
		t.Fatalf("an answered call left %d free records, want 1", len(m.free))
	}
	rec := m.free[0]
	m.mu.Unlock()
	if err := sess.Report(2); err == nil {
		t.Fatal("Report the peer never answered returned success")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if slices.Contains(m.free, rec) {
		t.Error("the failed call's record went back to the free list")
	}
}

// TestMuxCloseUnblocksCalls: a local Close while a call is in flight
// delivers ErrMuxClosed instead of deadlocking.
func TestMuxCloseUnblocksCalls(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	go func() {
		if err := proto.ReadHandshake(b); err != nil {
			return
		}
		_ = proto.WriteHandshake(b)
		// Keep the connection open but never answer.
		buf := make([]byte, 1024)
		for {
			if _, err := b.Read(buf); err != nil {
				return
			}
		}
	}()
	m, err := NewMuxFromConn(a)
	if err != nil {
		t.Fatalf("NewMuxFromConn: %v", err)
	}
	done := make(chan error, 1)
	go func() {
		_, _, err := m.Attach("s1").Fetch()
		done <- err
	}()
	// Let the call get queued, then pull the plug.
	if err := m.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := <-done; !errors.Is(err, ErrMuxClosed) {
		t.Errorf("in-flight call got %v, want ErrMuxClosed", err)
	}
	_ = b.Close()
}
