package client

import (
	"net"
	"strings"
	"testing"

	"harmony/internal/proto"
	"harmony/internal/space"
)

// fakeServer answers each received message with the corresponding
// scripted reply over a net.Pipe, and hangs up when the script ends, so
// a call beyond it fails instead of blocking.
func fakeServer(t *testing.T, replies ...*proto.Message) *Client {
	t.Helper()
	a, b := net.Pipe()
	t.Cleanup(func() { a.Close(); b.Close() })
	go func() {
		defer b.Close()
		pc := proto.NewConn(b)
		for _, reply := range replies {
			if _, err := pc.Recv(); err != nil {
				return
			}
			if err := pc.Send(reply); err != nil {
				return
			}
		}
	}()
	return NewFromConn(proto.NewConn(a))
}

func testSpace() *space.Space {
	return space.MustNew(space.IntParam("x", 0, 9, 1))
}

func TestRegisterRejectsNilSpace(t *testing.T) {
	c := fakeServer(t)
	if _, err := c.Register(Registration{App: "a"}); err == nil {
		t.Error("expected error for nil space")
	}
}

func TestRegisterUnexpectedReplyType(t *testing.T) {
	c := fakeServer(t, &proto.Message{Type: proto.TypeOK})
	if _, err := c.Register(Registration{App: "a", Space: testSpace()}); err == nil {
		t.Error("expected error for wrong reply type")
	}
}

func TestRegisterMissingSessionID(t *testing.T) {
	c := fakeServer(t, &proto.Message{Type: proto.TypeRegistered})
	if _, err := c.Register(Registration{App: "a", Space: testSpace()}); err == nil {
		t.Error("expected error for empty session id")
	}
}

func TestServerErrorSurfaced(t *testing.T) {
	c := fakeServer(t, &proto.Message{Type: proto.TypeError, Error: "nope"})
	_, err := c.Register(Registration{App: "a", Space: testSpace()})
	if err == nil || !strings.Contains(err.Error(), "nope") {
		t.Errorf("err = %v, want server error text", err)
	}
}

func TestSessionWrongReplyTypes(t *testing.T) {
	c := fakeServer(t,
		&proto.Message{Type: proto.TypeRegistered, Session: "s1"},
		&proto.Message{Type: proto.TypeOK},        // fetch -> wrong
		&proto.Message{Type: proto.TypeOK},        // best -> wrong
		&proto.Message{Type: proto.TypeBestReply}, // done -> wrong
	)
	sess, err := c.Register(Registration{App: "a", Space: testSpace()})
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	if _, _, err := sess.Fetch(); err == nil {
		t.Error("Fetch should reject wrong reply type")
	}
	if _, _, err := sess.Best(); err == nil {
		t.Error("Best should reject wrong reply type")
	}
	if err := sess.Done(); err == nil {
		t.Error("Done should reject wrong reply type")
	}
	// Report is answered ok, or with the next configuration.
	for _, typ := range []string{proto.TypeOK, proto.TypeConfig} {
		if err := fakeServer(t, &proto.Message{Type: typ}).Attach("s1").Report(1); err != nil {
			t.Errorf("Report rejected a %q reply: %v", typ, err)
		}
	}
	for _, typ := range []string{
		proto.TypeRegister, proto.TypeRegistered, proto.TypeFetch, proto.TypeReport,
		proto.TypeBest, proto.TypeBestReply, proto.TypeDone, "bogus",
	} {
		if err := fakeServer(t, &proto.Message{Type: typ}).Attach("s1").Report(1); err == nil {
			t.Errorf("Report accepted a %q reply", typ)
		}
	}
}

// TestFetchReadsHeldConfig: when a report is answered with the next
// configuration, the next Fetch returns it under its tag without a
// round trip (the script has no reply left, so one would fail), and
// the Fetch after that asks the server again.
func TestFetchReadsHeldConfig(t *testing.T) {
	for _, next := range []*proto.Message{
		{Type: proto.TypeConfig, Tag: 7, Values: map[string]string{"x": "3"}},
		{Type: proto.TypeConfig, Values: map[string]string{"x": "5"}, Converged: true},
	} {
		sess := fakeServer(t, next).Attach("s1")
		if err := sess.Report(2); err != nil {
			t.Fatalf("Report: %v", err)
		}
		values, converged, err := sess.Fetch()
		if err != nil || values["x"] != next.Values["x"] || converged != next.Converged || sess.tag != next.Tag {
			t.Errorf("Fetch = %v converged=%v tag %d (%v), want the held %+v", values, converged, sess.tag, err, next)
		}
		if _, _, err := sess.Fetch(); err == nil {
			t.Error("a second Fetch returned the held configuration again")
		}
	}
}

// TestFetchAfterOKReportAsks: a report answered ok (dropped as stale,
// or waiting for other reporters) leaves the next Fetch to the server.
func TestFetchAfterOKReportAsks(t *testing.T) {
	sess := fakeServer(t,
		&proto.Message{Type: proto.TypeOK},
		&proto.Message{Type: proto.TypeConfig, Tag: 9, Values: map[string]string{"x": "4"}},
	).Attach("s1")
	if err := sess.Report(2); err != nil {
		t.Fatalf("Report: %v", err)
	}
	values, _, err := sess.Fetch()
	if err != nil || values["x"] != "4" || sess.tag != 9 {
		t.Errorf("Fetch = %v tag %d (%v), want the fetched x=4 under tag 9", values, sess.tag, err)
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := Dial("127.0.0.1:1"); err == nil {
		t.Error("expected connection error")
	}
}

func TestAttachUsesGivenID(t *testing.T) {
	c := fakeServer(t)
	sess := c.Attach("s42")
	if sess.ID() != "s42" {
		t.Errorf("ID = %q", sess.ID())
	}
}
