package main

import (
	"net"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"harmony/internal/client"
	"harmony/internal/history"
	"harmony/internal/space"
)

// TestSIGTERMSavesAcknowledgedReports: a batch system stops harmonyd
// with SIGTERM. The server must catch it, and the cache it saves on the
// way out must hold every report it acknowledged — so the listener and
// the handlers are closed before the save, not after.
func TestSIGTERMSavesAcknowledgedReports(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.json")
	addrc := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-quiet", "-cache", path}, func(a net.Addr) { addrc <- a })
	}()
	var addr net.Addr
	select {
	case addr = <-addrc:
	case err := <-done:
		t.Fatalf("harmonyd did not start: %v", err)
	}

	c, err := client.Dial(addr.String())
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
