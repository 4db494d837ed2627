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
// prunepurity findings in the fan-out: the surrogate prediction of a
// pruned candidate lives in the machine candidate's Predicted, never
// in Measured or the driver's report aggregate, and the two meet only
// in the Commit call that delivers the round to the strategy.
func TestFanoutRoundPredictionSeparation(t *testing.T) {
	sp := testSpace()
	// The model predicts twice the true bowl value, so no prediction
	// equals any measurement: 20, 1320, 22 — half of three keeps two.
	rec := &recordingStrategy{BatchStrategy: &scriptedBatch{rounds: [][]space.Point{{{25, 5}, {0, 0}, {24, 5}}}}}
	ss := newTestSession(sp, rec, 0, nil)
	ss.surGate = core.NewSurrogateGate(&core.SurrogateOptions{Model: bowlModel(2), Keep: 0.5})
	roundWindow(rec)(ss)

	var replies []*proto.Message
	for i := 0; i < 2; i++ {
		r := ss.callFetch()
		if r.Type != proto.TypeConfig || r.Converged {
			t.Fatalf("fetch %d: %+v", i, r)
		}
		replies = append(replies, r)
	}
	pruned := ss.win.m.At(1)
	if pruned.Kind != core.Pruned || pruned.Predicted != 1320 {
		t.Fatalf("candidate 1 = %+v, want pruned at the predicted 1320", pruned)
	}
	if pruned.Measured != 0 || pruned.Payload.worst != 0 {
		t.Errorf("Measured = %v, reports aggregate = %v, want both untouched: the prediction must never enter a measured field",
			pruned.Measured, pruned.Payload.worst)
	}
	for _, r := range replies {
		ss.callReport(&proto.Message{Tag: r.Tag, Perf: objective(r.Values)})
	}
	// The pruned candidate commits from the next fetch, and the round's
	// last commit delivers it.
	if r := ss.callFetch(); !r.Converged {
		t.Fatalf("fetch after the only round: %+v, want converged", r)
	}
	if want := []string{"25,5=10 0,0=1320 24,5=11"}; !reflect.DeepEqual(rec.commits, want) {
		t.Errorf("strategy was told %q, want %q", rec.commits, want)
	}
	if best := ss.callBest(); best.Perf != 10 || ss.measuredVal != 10 {
		t.Errorf("best = %+v, shadow %v: want the measured 10, never a prediction", best, ss.measuredVal)
	}
}
