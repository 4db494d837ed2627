package client

import (
	"maps"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"harmony/internal/proto"
	"harmony/internal/server"
)

// startServer runs a real tuning server on an ephemeral port.
func startServer(t *testing.T) string {
	t.Helper()
	s := server.New()
	s.Logf = func(string, ...any) {}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		s.Serve(ln)
		close(done)
	}()
	t.Cleanup(func() {
		s.Close()
		<-done
	})
	return ln.Addr().String()
}

// TestTimeoutOnSilentServer: a server that accepts but never replies
// must not hang the client past its I/O deadline.
func TestTimeoutOnSilentServer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close() // accept and go silent
		}
	}()

	c, err := DialOptions(ln.Addr().String(), Options{Timeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	if _, _, err := c.Attach("s1").Fetch(); err == nil {
		t.Fatal("expected timeout error from a silent server")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("Fetch blocked %v; the deadline did not bound the round trip", elapsed)
	}
}

// TestReconnectAfterConnDrop: when the connection dies between round
// trips, the next call redials and the re-fetch is idempotent — the
// server hands out the outstanding configuration again, under a new
// tag that supersedes the lost one.
func TestReconnectAfterConnDrop(t *testing.T) {
	addr := startServer(t)
	c, err := DialOptions(addr, Options{
		Timeout: 2 * time.Second, Retries: 3, Backoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sess, err := c.Register(Registration{App: "drop", Space: testSpace()})
	if err != nil {
		t.Fatal(err)
	}
	v1, _, err := sess.Fetch()
	if err != nil {
		t.Fatal(err)
	}
	v1, tag1 := maps.Clone(v1), sess.tag // the re-fetch rewrites the session's map

	c.conn.Close() // the network drops the connection under us

	v2, _, err := sess.Fetch()
	if err != nil {
		t.Fatalf("Fetch after dropped connection: %v (reconnect did not engage)", err)
	}
	if v2["x"] != v1["x"] || sess.tag == tag1 {
		t.Errorf("re-fetch after reconnect returned %v tag %d, want the outstanding %v under a tag other than %d",
			v2, sess.tag, v1, tag1)
	}
	if err := sess.Report(1.5); err != nil {
		t.Errorf("Report over the reconnected connection: %v", err)
	}
}

// TestNoReconnectWithoutRetries: the zero Options keep the original
// fail-fast behaviour.
func TestNoReconnectWithoutRetries(t *testing.T) {
	addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sess, err := c.Register(Registration{App: "failfast", Space: testSpace()})
	if err != nil {
		t.Fatal(err)
	}
	c.conn.Close()
	if _, _, err := sess.Fetch(); err == nil {
		t.Error("expected error after connection drop with Retries=0")
	}
}

// TestServerErrorNotRetried: an error reply is an answer, not a
// transport failure — the client must not burn retries or reconnect.
func TestServerErrorNotRetried(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var accepts atomic.Int64
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			accepts.Add(1)
			go func() {
				defer conn.Close()
				pc := proto.NewConn(conn)
				for {
					if _, err := pc.Recv(); err != nil {
						return
					}
					if err := pc.Send(&proto.Message{Type: proto.TypeError, Error: "scripted failure"}); err != nil {
						return
					}
				}
			}()
		}
	}()

	c, err := DialOptions(ln.Addr().String(), Options{Retries: 3, Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, _, err = c.Attach("s1").Fetch()
	if err == nil || !strings.Contains(err.Error(), "scripted failure") {
		t.Fatalf("err = %v, want the server's error text", err)
	}
	if n := accepts.Load(); n != 1 {
		t.Errorf("client opened %d connections, want 1: error replies must not trigger reconnects", n)
	}
}

// TestReconnectGivesUpAfterRetries: with the server gone for good,
// the retry loop terminates with an error instead of spinning.
func TestReconnectGivesUpAfterRetries(t *testing.T) {
	addr := startServer(t)
	c, err := DialOptions(addr, Options{Retries: 2, Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := c.Register(Registration{App: "gone", Space: testSpace()})
	if err != nil {
		t.Fatal(err)
	}
	// Tear the whole server down, then break our connection too.
	// (Cleanup order would do this anyway; do it eagerly.)
	c.conn.Close()
	c.addr = "127.0.0.1:1" // reserved port: every reconnect refused
	if _, _, err := sess.Fetch(); err == nil {
		t.Error("expected error once all retries are exhausted")
	}
}
