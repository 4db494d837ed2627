package client

import (
	"io"
	"net"
	"testing"

	"harmony/internal/proto"
)

// A Mux method that returns holding the mutex deadlocks the next call
// and the reader, which shows as a test hanging until the timeout.
// These pins call every method that takes the mutex, on a healthy mux, after the
// peer drops and after Close, and require the mutex to be free after
// each, naming the method that kept it.

func requireMuxUnlocked(t *testing.T, m *Mux, call string) {
	t.Helper()
	if !m.mu.TryLock() {
		t.Fatalf("%s returned holding the mux mutex", call)
	}
	m.mu.Unlock()
}

func TestMuxReleasesMutex(t *testing.T) {
	// The script holds one reply more than the calls use, so the fake
	// peer stays up (a hang-up would fail the mux concurrently with the
	// probe) until Close.
	m := fakeMux(t,
		&proto.Message{Type: proto.TypeRegistered, Session: "s1"},
		&proto.Message{Type: proto.TypeConfig, Tag: 1, Values: map[string]string{"x": "3"}},
		&proto.Message{Type: proto.TypeOK},
		&proto.Message{Type: proto.TypeBestReply, Perf: 1, Values: map[string]string{"x": "3"}},
		&proto.Message{Type: proto.TypeError, Error: "no"},
		&proto.Message{Type: proto.TypeOK},
		&proto.Message{Type: proto.TypeOK},
	)
	sess, err := m.Register(Registration{Space: testSpace()})
	if err != nil {
		t.Fatal(err)
	}
	requireMuxUnlocked(t, m, "Register")
	for _, step := range []struct {
		name    string
		call    func() error
		wantErr bool
	}{
		{"Fetch", func() error { _, _, err := sess.Fetch(); return err }, false},
		{"Report", func() error { return sess.Report(1) }, false},
		{"Best", func() error { _, _, err := sess.Best(); return err }, false},
		{"Fetch (server error)", func() error { _, _, err := sess.Fetch(); return err }, true},
		{"Done", func() error { return sess.Done() }, false},
		{"failure", func() error { return m.failure() }, false},
		{"Close", func() error { return m.Close() }, false},
		{"Fetch (closed)", func() error { _, _, err := m.Attach("s1").Fetch(); return err }, true},
		{"Register (closed)", func() error { _, err := m.Register(Registration{Space: testSpace()}); return err }, true},
	} {
		if err := step.call(); (err != nil) != step.wantErr {
			t.Fatalf("%s: err = %v, want an error %v", step.name, err, step.wantErr)
		}
		requireMuxUnlocked(t, m, step.name)
	}
}

func TestMuxReleasesMutexAfterPeerDrops(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	go func() {
		defer b.Close()
		if proto.ReadHandshake(b) != nil || proto.WriteHandshake(b) != nil {
			return
		}
		// Take the start of the first frame, then vanish.
		_, _ = io.ReadFull(b, make([]byte, 4))
	}()
	m, err := NewMuxFromConn(a)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Attach("s1").Fetch(); err == nil {
		t.Fatal("Fetch over a dropped peer returned success")
	}
	// The reader fails the mux on its own too; wait it out so no probe
	// races its last hold of the mutex.
	m.wg.Wait()
	requireMuxUnlocked(t, m, "Fetch (peer dropped)")
	if m.failure() == nil {
		t.Fatal("a failed mux reports no error")
	}
	requireMuxUnlocked(t, m, "failure")
	if _, _, err := m.Attach("s1").Best(); err == nil {
		t.Fatal("Best over a dropped peer returned success")
	}
	requireMuxUnlocked(t, m, "Best (failed)")
	m.Close()
	requireMuxUnlocked(t, m, "Close")
}
