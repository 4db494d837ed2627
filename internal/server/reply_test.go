package server

import (
	"bytes"
	"math"
	"testing"

	"harmony/internal/proto"
	"harmony/internal/space"
)

// The handlers answer into a reply their connection owns and reuses.
// Tests keep replies across calls, so these helpers give every call a
// reply of its own.

// call dispatches msg as a connection would.
func (s *Server) call(msg *proto.Message) *proto.Message {
	reply := new(proto.Message)
	s.dispatch(msg, reply)
	return reply
}

func (ss *session) callFetch() *proto.Message {
	reply := new(proto.Message)
	ss.fetch(nil, reply)
	return reply
}

func (ss *session) callReport(msg *proto.Message) *proto.Message {
	reply := new(proto.Message)
	ss.report(msg, reply)
	return reply
}

func (ss *session) callBest() *proto.Message {
	reply := new(proto.Message)
	ss.best(nil, reply)
	return reply
}

// TestDispatchIntoReusedReply pins the server's side of a round: a
// fetch and its report dispatched into the one reply a connection
// reuses. Four allocations were measured (go1.24, linux/amd64), all the
// search's: the window's decoded configuration, the random strategy's
// point, value strings above 99. The committed candidate is reissued,
// and no reply message or map is built per request. The ceiling is 1.5
// times that, which leaves room for the search's draws to vary, so the
// two steps every message takes before any search code runs are pinned
// at 0 on their own (measured 0): shardFor, which finds the session's
// shard, and the window's lookup, which finds a report's hand-out by
// its tag.
func TestDispatchIntoReusedReply(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are pinned without the race detector")
	}
	s := newFaultServer(newFakeClock())
	sp := space.MustNew(space.IntParam("x", 0, 1000, 1), space.IntParam("y", 0, 1000, 1))
	id := mustRegister(t, s, &proto.Message{
		App: "pin", Space: proto.EncodeSpace(sp), Strategy: proto.StrategyRandom, Seed: 5, MaxRuns: math.MaxInt32,
	})
	fetch := &proto.Message{Type: proto.TypeFetch, Session: id}
	report := &proto.Message{Type: proto.TypeReport, Session: id, Perf: 1}
	var reply proto.Message
	round := func() {
		s.dispatch(fetch, &reply)
		if reply.Type != proto.TypeConfig || reply.Converged {
			t.Fatalf("fetch reply %+v", reply)
		}
		report.Tag = reply.Tag
		s.dispatch(report, &reply)
		if reply.Type != proto.TypeOK {
			t.Fatalf("report reply %+v", reply)
		}
	}
	const ceiling = 6
	n := testing.AllocsPerRun(200, round)
	t.Logf("%v allocations per fetch and report", n)
	if n > ceiling {
		t.Errorf("dispatching a fetch and a report allocates %v times, want at most %d", n, ceiling)
	}

	s.dispatch(fetch, &reply)
	sh := s.shardFor(id)
	win, tag := sh.sessions[id].win, reply.Tag
	steps := func() {
		if s.shardFor(id) != sh || win.lookup(tag) == nil {
			t.Fatalf("session %s or its hand-out %d went missing", id, tag)
		}
	}
	if n := testing.AllocsPerRun(200, steps); n != 0 {
		t.Errorf("shardFor and a hand-out lookup allocate %v times, want 0", n)
	}
}

// TestReusedReplyEncodesAsFresh: a connection answers every message
// into the same reply, so each answer must overwrite all of the one
// before. Two identical servers get the same messages, one answering
// into fresh replies and one into a single reused reply; every answer
// must encode to the same frame bytes.
func TestReusedReplyEncodesAsFresh(t *testing.T) {
	sp := space.MustNew(space.IntParam("x", 0, 40, 1), space.EnumParam("alg", "heap", "quick"))
	fresh, reused := newFaultServer(newFakeClock()), newFaultServer(newFakeClock())
	var reply proto.Message
	tag := 0
	for i, msg := range []*proto.Message{
		{Type: proto.TypeRegister, App: "reuse", Space: proto.EncodeSpace(sp), Strategy: proto.StrategySimplex, Seed: 3, MaxRuns: 6},
		{Type: proto.TypeFetch, Session: "s1"},
		{Type: proto.TypeReport, Session: "s1", Perf: 9, Next: true},
		{Type: proto.TypeBest, Session: "s1"},
		{Type: proto.TypeReport, Session: "s1", Perf: 4},
		{Type: proto.TypeReport, Session: "s1", Perf: 4},
		{Type: proto.TypeBest, Session: "nope"},
		{Type: proto.TypeFetch, Session: "s1"},
		{Type: "bogus"},
		{Type: proto.TypeReport, Session: "s1", Perf: -1, Next: true},
		{Type: proto.TypeDone, Session: "s1"},
		{Type: proto.TypeFetch, Session: "s1"},
	} {
		if msg.Type == proto.TypeReport {
			msg.Tag = tag
		}
		want := fresh.call(msg)
		reused.dispatch(msg, &reply)
		if want.Type == proto.TypeConfig {
			tag = want.Tag
		}
		got, err := proto.AppendFrame(nil, &proto.Frame{Msgs: []*proto.Message{&reply}})
		if err != nil {
			t.Fatal(err)
		}
		wantWire, err := proto.AppendFrame(nil, &proto.Frame{Msgs: []*proto.Message{want}})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, wantWire) {
			t.Errorf("message %d (%s): reused reply %+v, fresh %+v", i, msg.Type, reply, *want)
		}
	}
}
