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

// TestExpiryLogNotUnderShardLock is the regression test for the
// lockorder finding in the expiry paths: Logf is an injected callback
// that may block or re-enter the server, so both the lazy per-shard
// sweep (expireDue) and the eager walk (ExpireNow → expireOne) must
// release the shard mutex before logging a lease expiry. The callback
// itself probes every shard lock — if the expiring goroutine still
// held one, TryLock would fail.
func TestExpiryLogNotUnderShardLock(t *testing.T) {
	clk := newFakeClock()
	s := newFaultServer(clk)
	s.shards = s.shards[:1] // one shard: any dispatch sweeps the expired session
	s.SessionTimeout = time.Minute
	logged := 0
	s.Logf = func(format string, args ...any) {
		if !strings.Contains(format, "lease expired") {
			return
		}
		logged++
		for i, sh := range s.shards {
			if !sh.mu.TryLock() {
				t.Errorf("shard %d mutex held during the Logf callback", i)
				continue
			}
			sh.mu.Unlock()
		}
	}
	reg := func(seed int64) *proto.Message {
		return &proto.Message{
			Strategy: proto.StrategyRandom, Seed: seed, MaxRuns: 10,
			Space: proto.EncodeSpace(testSpace()),
		}
	}
	mustRegister(t, s, reg(7))

	// Lazy path: the next message on the shard pops the lease entry.
	clk.Advance(2 * time.Minute)
	second := mustRegister(t, s, reg(8))
	if logged != 1 {
		t.Fatalf("lazy expiry logged %d lease lines, want 1", logged)
	}

	// Eager path: ExpireNow walks every shard and logs per collection.
	clk.Advance(2 * time.Minute)
	if n := s.ExpireNow(); n != 1 {
		t.Fatalf("ExpireNow = %d, want 1 (session %s)", n, second)
	}
	if logged != 2 {
		t.Fatalf("eager expiry logged %d lease lines in total, want 2", logged)
	}
}

// TestFanoutRoundPredictionSeparation is the regression test for the
// prunepurity findings in the fan-out, kept now that sessions no
// longer screen: no candidate of a round carries a prediction, every
// one is handed to a client, and a report reaches the machine
// candidate's Measured only through Complete — the driver's report
// aggregate holds it until then — so the strategy and Best are told
// measured values alone.
func TestFanoutRoundPredictionSeparation(t *testing.T) {
	sp := testSpace()
	rec := &recordingStrategy{BatchStrategy: &scriptedBatch{rounds: [][]space.Point{{{25, 5}, {0, 0}, {24, 5}}}}}
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
