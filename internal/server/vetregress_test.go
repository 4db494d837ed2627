package server

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"harmony/internal/core"
	"harmony/internal/proto"
	"harmony/internal/space"
)

// TestExpiryLogNotUnderShardLock: the server's injected callbacks,
// Logf and Clock, may block or re-enter the server, so none may run
// under a shard mutex. Both probe every shard lock on each call — if
// the calling goroutine still held one, TryLock would fail. The probes
// run through a session's own straggler expiry on its fetch, and
// through ExpireNow's straggler and lease expiries (expireOne) of a
// session nobody messages.
func TestExpiryLogNotUnderShardLock(t *testing.T) {
	clk := newFakeClock()
	s := newFaultServer(clk)
	s.SessionTimeout = time.Minute
	s.ReportTimeout = 10 * time.Second
	probe := func(callback string) {
		for i, sh := range s.shards {
			if !sh.mu.TryLock() {
				t.Errorf("shard %d mutex held during the %s callback", i, callback)
				continue
			}
			sh.mu.Unlock()
		}
	}
	s.Clock = func() time.Time {
		probe("Clock")
		return clk.Now()
	}
	logged := 0
	s.Logf = func(format string, args ...any) {
		probe("Logf")
		if strings.Contains(format, "lease expired") {
			logged++
		}
	}
	id := mustRegister(t, s, &proto.Message{
		Strategy: proto.StrategyRandom, Seed: 7, MaxRuns: 10,
		Space: proto.EncodeSpace(testSpace()),
	})
	fetch := func() {
		if r := s.call(&proto.Message{Type: proto.TypeFetch, Session: id}); r.Type != proto.TypeConfig {
			t.Fatalf("fetch %s: %+v", id, r)
		}
	}
	reissued := func(want int64) {
		t.Helper()
		if n := s.Stats().ProposalsReissued; n != want {
			t.Fatalf("%d hand-outs re-issued, want %d", n, want)
		}
	}
	fetch() // a hand-out nobody reports

	// The session's own fetch retires its overdue hand-out.
	clk.Advance(20 * time.Second)
	fetch()
	reissued(1)

	// ExpireNow retires the next one, then collects the idle session.
	clk.Advance(20 * time.Second)
	if n := s.ExpireNow(); n != 0 {
		t.Fatalf("ExpireNow = %d inside the lease, want 0", n)
	}
	reissued(2)
	clk.Advance(2 * time.Minute)
	if n := s.ExpireNow(); n != 1 {
		t.Fatalf("ExpireNow = %d, want 1 (session %s)", n, id)
	}
	if logged != 1 {
		t.Fatalf("expiry logged %d lease lines, want 1", logged)
	}
}

// TestFanoutRoundPredictionSeparation: sessions do not screen, so no
// candidate of a round carries a prediction, every one is handed to a
// client, and a report reaches the machine candidate's Measured only
// through Complete — the driver's report aggregate holds it until then
// — so the strategy and Best are told measured values alone.
func TestFanoutRoundPredictionSeparation(t *testing.T) {
	sp := testSpace()
	rec := &recordingStrategy{roundStrategy: &scriptedBatch{rounds: [][]space.Point{{{25, 5}, {0, 0}, {24, 5}}}}}
	ss := newTestSession(sp, rec, 0, nil)
	roundWindow(rec)(ss)

	var replies []*proto.Message
	for i := 0; i < 3; i++ {
		r := ss.callFetch()
		if r.Type != proto.TypeConfig || r.Converged {
			t.Fatalf("fetch %d: %+v", i, r)
		}
		replies = append(replies, r)
	}
	if n := ss.win.m.Len(); n != 3 {
		t.Fatalf("window holds %d candidates, want the whole round of 3", n)
	}
	for i := 0; i < ss.win.m.Len(); i++ {
		c := ss.win.m.At(i)
		if c.Kind != core.Work || c.Kept || c.Predicted != 0 {
			t.Errorf("candidate %d = %+v, want unscreened work with no prediction", i, c)
		}
	}
	ss.callReport(&proto.Message{Tag: replies[1].Tag, Perf: objective(replies[1].Values)})
	c := ss.win.m.At(1)
	if c.Measured != 660 || c.Payload.worst != 660 {
		t.Errorf("reported candidate: Measured = %v, reports aggregate = %v, want both 660", c.Measured, c.Payload.worst)
	}
	if c := ss.win.m.At(2); c.Measured != 0 || c.Payload.count != 0 {
		t.Errorf("unreported candidate: Measured = %v after %d reports, want 0 after none", c.Measured, c.Payload.count)
	}
	for _, r := range []*proto.Message{replies[0], replies[2]} {
		ss.callReport(&proto.Message{Tag: r.Tag, Perf: objective(r.Values)})
	}
	if r := ss.callFetch(); !r.Converged {
		t.Fatalf("fetch after the only round: %+v, want converged", r)
	}
	if want := []string{"25,5=10 0,0=660 24,5=11"}; !reflect.DeepEqual(rec.commits, want) {
		t.Errorf("strategy was told %q, want %q", rec.commits, want)
	}
	if best := ss.callBest(); best.Perf != 10 || ss.measuredVal != 10 {
		t.Errorf("best = %+v, shadow %v: want the measured 10", best, ss.measuredVal)
	}
}
