package main

import (
	"net"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	"harmony/internal/client"
	"harmony/internal/history"
	"harmony/internal/space"
)

// start runs harmonyd on a free local port with args and returns its
// address and the channel run's result arrives on.
func start(t *testing.T, args ...string) (string, chan error) {
	t.Helper()
	addrc := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(append([]string{"-addr", "127.0.0.1:0", "-quiet"}, args...), func(a net.Addr) { addrc <- a })
	}()
	select {
	case addr := <-addrc:
		return addr.String(), done
	case err := <-done:
		t.Fatalf("harmonyd did not start: %v", err)
		return "", nil
	}
}

// terminate stops harmonyd as a batch system does, with SIGTERM, and
// requires a clean shutdown.
func terminate(t *testing.T, done chan error) {
	t.Helper()
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("harmonyd did not shut down on SIGTERM")
	}
}

// TestSIGTERMSavesAcknowledgedReports: a batch system stops harmonyd
// with SIGTERM. The server must catch it, and the cache it saves on the
// way out must hold every report it acknowledged — so the listener and
// the handlers are closed before the save, not after.
func TestSIGTERMSavesAcknowledgedReports(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.json")
	addr, done := start(t, "-cache", path)

	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sp := space.MustNew(space.IntParam("x", 0, 9, 1))
	sess, err := c.Register(client.Registration{App: "sigterm", Space: sp})
	if err != nil {
		t.Fatal(err)
	}
	values, _, err := sess.Fetch()
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Report(42); err != nil {
		t.Fatal(err)
	}

	terminate(t, done)

	reopened, err := history.OpenEvalCache(path)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := sp.Encode(values)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := reopened.BoundNS("sigterm", "", "", sp).Lookup(pt); !ok || v != 42 {
		t.Fatalf("reopened cache holds (%v, %v) for %v, want the reported 42", v, ok, values)
	}
}

// TestSessionTimeoutSweepsWithoutStatsInterval: a session's own
// messages never expire its lease, so with -session-timeout set and no
// -stats-interval harmonyd must still sweep: a session every client
// abandoned is collected with no traffic at all. Each check is a fetch,
// which renews the lease if the sweep has not run, so the test waits
// several timeouts between checks.
func TestSessionTimeoutSweepsWithoutStatsInterval(t *testing.T) {
	const lease = 20 * time.Millisecond
	addr, done := start(t, "-session-timeout", lease.String())
	defer terminate(t, done)
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sess, err := c.Register(client.Registration{App: "abandoned", Space: space.MustNew(space.IntParam("x", 0, 9, 1))})
	if err != nil {
		t.Fatal(err)
	}
	for range 50 {
		time.Sleep(5 * lease)
		if _, _, err := sess.Fetch(); err != nil {
			if !strings.Contains(err.Error(), "unknown session") {
				t.Fatalf("fetch: %v, want the session collected", err)
			}
			return
		}
	}
	t.Fatal("an abandoned session was never collected")
}

// TestTickersStopWhenRunReturns: the deadline sweeper and the
// -stats-interval dump run on tickers that stop with the server, so
// run leaves no goroutine of its own behind, and no sweep calls
// ExpireNow on a closed server.
func TestTickersStopWhenRunReturns(t *testing.T) {
	_, done := start(t, "-session-timeout", "50ms", "-stats-interval", "1h")
	time.Sleep(120 * time.Millisecond) // the sweeper has ticked
	terminate(t, done)
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(time.Second); ; time.Sleep(10 * time.Millisecond) {
		stacks := string(buf[:runtime.Stack(buf, true)])
		if !strings.Contains(stacks, "harmonyd.run.func") {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines started by run are still running after it returned:\n%s", stacks)
		}
	}
}
