package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"harmony/internal/proto"
	"harmony/internal/search"
	"harmony/internal/space"
)

// TestNaNReportSanitizedShared is the regression test for the
// NaN-poisoning bug on a shared session: NaN loses every `>`
// comparison, so an unsanitized NaN report never displaced the
// aggregate's -Inf sentinel and delivered a best-ever value to the
// strategy.
func TestNaNReportSanitizedShared(t *testing.T) {
	s := newFaultServer(newFakeClock())
	id := mustRegister(t, s, &proto.Message{
		Strategy: proto.StrategyRandom, Seed: 21, MaxRuns: 10,
		Space: proto.EncodeSpace(testSpace()),
	})
	cfg1 := s.call(&proto.Message{Type: proto.TypeFetch, Session: id})
	if r := s.call(&proto.Message{Type: proto.TypeReport, Session: id, Tag: cfg1.Tag, Perf: math.NaN()}); r.Type != proto.TypeOK {
		t.Fatalf("NaN report: %+v", r)
	}
	cfg2 := s.call(&proto.Message{Type: proto.TypeFetch, Session: id})
	if r := s.call(&proto.Message{Type: proto.TypeReport, Session: id, Tag: cfg2.Tag, Perf: 5}); r.Type != proto.TypeOK {
		t.Fatalf("report: %+v", r)
	}
	best := s.call(&proto.Message{Type: proto.TypeBest, Session: id})
	if best.Type != proto.TypeBestReply || best.Perf != 5 {
		t.Fatalf("best = %+v, want the genuine 5: NaN must forfeit, not win", best)
	}
}

// TestNaNReportSanitizedParallel pins the same bug on the fan-out
// path, where `msg.Perf > r.worst[pos]` used to leave a -Inf in the
// round delivered to ReportBatch.
func TestNaNReportSanitizedParallel(t *testing.T) {
	s := newFaultServer(newFakeClock())
	id := mustRegister(t, s, &proto.Message{
		Strategy: proto.StrategyRandom, Seed: 23, MaxRuns: 8, Parallel: true,
		Space: proto.EncodeSpace(testSpace()),
	})
	poisoned := false
	for i := 0; i < 200; i++ {
		reply := s.call(&proto.Message{Type: proto.TypeFetch, Session: id})
		if reply.Type != proto.TypeConfig {
			t.Fatalf("fetch %d: %+v", i, reply)
		}
		if reply.Converged {
			break
		}
		perf := bowl(reply.Values)
		if !poisoned {
			poisoned = true
			perf = math.NaN()
		}
		if r := s.call(&proto.Message{Type: proto.TypeReport, Session: id, Tag: reply.Tag, Perf: perf}); r.Type != proto.TypeOK {
			t.Fatalf("report %d: %+v", i, r)
		}
	}
	best := s.call(&proto.Message{Type: proto.TypeBest, Session: id})
	if best.Type != proto.TypeBestReply {
		t.Fatalf("best: %+v", best)
	}
	if math.IsNaN(best.Perf) || math.IsInf(best.Perf, -1) {
		t.Fatalf("best = %v: the NaN report poisoned the search", best.Perf)
	}
}

// scriptedBatch feeds fixed rounds through a parallel session; it
// doubles as the Strategy so sessions can be built directly.
type scriptedBatch struct {
	rounds [][]space.Point
	i      int
	best   space.Point
	bv     float64
	has    bool
}

func (b *scriptedBatch) Name() string { return "scripted-batch" }

func (b *scriptedBatch) Next() (space.Point, bool) { return nil, false }

func (b *scriptedBatch) Report(pt space.Point, v float64) {
	if !b.has || v < b.bv {
		b.best, b.bv, b.has = pt.Clone(), v, true
	}
}

func (b *scriptedBatch) Best() (space.Point, float64, bool) {
	if !b.has {
		return nil, 0, false
	}
	return b.best.Clone(), b.bv, true
}

func (b *scriptedBatch) NextBatch() []space.Point {
	if b.i >= len(b.rounds) {
		return nil
	}
	round := b.rounds[b.i]
	b.i++
	out := make([]space.Point, len(round))
	for i, pt := range round {
		out[i] = pt.Clone()
	}
	return out
}

func (b *scriptedBatch) ReportBatch(pts []space.Point, values []float64) {
	for i, pt := range pts {
		b.Report(pt, values[i])
	}
}

// TestUndecodableProposalForfeited is the regression test for the
// round-wedge bug: the parallel fetch used to return a decode error
// without issuing a tag, and since straggler expiry only walks issued
// tags, the round could never complete or expire — the session was
// wedged forever even with ReportTimeout set. The fix forfeits the
// undecodable position immediately.
func TestUndecodableProposalForfeited(t *testing.T) {
	sp := testSpace()
	bad := space.Point{99, 99} // out of range: Decode fails
	strat := &scriptedBatch{rounds: [][]space.Point{
		{bad, sp.Center()},
		{sp.Clamp(space.Point{1, 1})},
	}}
	ss := newTestSession(sp, strat, 0, roundWindow(strat))

	// The first fetch must skip the undecodable position and hand out
	// the round's good proposal instead of erroring and wedging.
	r1 := ss.callFetch()
	if r1.Type != proto.TypeConfig || r1.Converged {
		t.Fatalf("fetch with undecodable proposal in round: %+v, want a config", r1)
	}
	if got := ss.stat().proposalsForfeited.Load(); got != 1 {
		t.Fatalf("proposalsForfeited = %d after first fetch, want 1", got)
	}
	if rep := ss.callReport(&proto.Message{Tag: r1.Tag, Perf: 4}); rep.Type != proto.TypeOK {
		t.Fatalf("report: %+v", rep)
	}
	// Round 1 must have retired (forfeit + genuine report): the next
	// fetch pulls round 2.
	r2 := ss.callFetch()
	if r2.Type != proto.TypeConfig || r2.Converged {
		t.Fatalf("fetch after round retirement: %+v", r2)
	}
	if rep := ss.callReport(&proto.Message{Tag: r2.Tag, Perf: 9}); rep.Type != proto.TypeOK {
		t.Fatalf("report 2: %+v", rep)
	}
	if r := ss.callFetch(); !r.Converged {
		t.Fatalf("fetch after all rounds: %+v, want converged", r)
	}
	if best := ss.callBest(); best.Type != proto.TypeBestReply || best.Perf != 4 {
		t.Fatalf("best = %+v, want 4 (the penalty must not win)", best)
	}
}

// TestFullyUndecodableRoundSkipped: a round of nothing but
// undecodable proposals forfeits wholesale and the fetch falls
// through to the next round in the same call.
func TestFullyUndecodableRoundSkipped(t *testing.T) {
	sp := testSpace()
	bad := space.Point{99, 99}
	strat := &scriptedBatch{rounds: [][]space.Point{
		{bad, bad.Clone()},
		{sp.Center()},
	}}
	ss := newTestSession(sp, strat, 0, roundWindow(strat))

	r := ss.callFetch()
	if r.Type != proto.TypeConfig || r.Converged {
		t.Fatalf("fetch across a fully undecodable round: %+v", r)
	}
	if got := ss.stat().proposalsForfeited.Load(); got != 2 {
		t.Errorf("proposalsForfeited = %d, want both positions of round 1", got)
	}
	if got := ss.stat().roundsCompleted.Load(); got != 1 {
		t.Errorf("roundsCompleted = %d, want the forfeited round delivered", got)
	}
	if rep := ss.callReport(&proto.Message{Tag: r.Tag, Perf: 2}); rep.Type != proto.TypeOK {
		t.Fatalf("report: %+v", rep)
	}
	if r := ss.callFetch(); !r.Converged {
		t.Fatalf("fetch after last round: %+v, want converged", r)
	}
}

// TestLeaseSurvivesInFlightEvaluation is the regression test for the
// lease bug: lastActive only advances on message arrival, so a client
// whose single evaluation legitimately exceeds SessionTimeout used to
// lose its session mid-run. An outstanding configuration within its
// straggler deadline now counts as activity.
func TestLeaseSurvivesInFlightEvaluation(t *testing.T) {
	clk := newFakeClock()
	s := newFaultServer(clk)
	s.SessionTimeout = time.Minute
	s.ReportTimeout = 5 * time.Minute // evaluations may take up to 5min
	id := mustRegister(t, s, &proto.Message{
		Strategy: proto.StrategyRandom, Seed: 31, MaxRuns: 10,
		Space: proto.EncodeSpace(testSpace()),
	})
	cfg := s.call(&proto.Message{Type: proto.TypeFetch, Session: id})
	if cfg.Type != proto.TypeConfig {
		t.Fatalf("fetch: %+v", cfg)
	}

	// 90s of silence: past the lease, but the evaluation is still
	// inside its straggler window. The session must survive both the
	// eager sweep and the lazy per-shard expiry a message triggers.
	clk.Advance(90 * time.Second)
	if n := s.ExpireNow(); n != 0 {
		t.Fatalf("ExpireNow collected %d sessions mid-evaluation, want 0", n)
	}
	if r := s.call(&proto.Message{Type: proto.TypeReport, Session: id, Tag: cfg.Tag, Perf: 6}); r.Type != proto.TypeOK {
		t.Fatalf("report after long evaluation: %+v (session was collected mid-run?)", r)
	}

	// With nothing in flight the lease governs again: 70s of true idle
	// collects the session.
	clk.Advance(70 * time.Second)
	if n := s.ExpireNow(); n != 1 {
		t.Fatalf("ExpireNow collected %d idle sessions, want 1", n)
	}
}

// TestLeaseStillCollectsAbandonedInFlight: the in-flight grace is
// bounded by the straggler deadline — a session whose client vanished
// for good is still collected once the window closes, so the fix
// cannot leak sessions.
func TestLeaseStillCollectsAbandonedInFlight(t *testing.T) {
	clk := newFakeClock()
	s := newFaultServer(clk)
	s.SessionTimeout = time.Minute
	s.ReportTimeout = 5 * time.Minute
	s.MaxReissues = 1
	id := mustRegister(t, s, &proto.Message{
		Strategy: proto.StrategyRandom, Seed: 33, MaxRuns: 10,
		Space: proto.EncodeSpace(testSpace()),
	})
	if r := s.call(&proto.Message{Type: proto.TypeFetch, Session: id}); r.Type != proto.TypeConfig {
		t.Fatalf("fetch: %+v", r)
	}
	// Well past the hand-out + ReportTimeout + SessionTimeout: the
	// straggler window closed long ago and nobody came back.
	clk.Advance(7 * time.Minute)
	if n := s.ExpireNow(); n != 1 {
		t.Fatalf("ExpireNow collected %d abandoned sessions, want 1", n)
	}
}

// TestRegisteredSimplexIsTheOfflineSimplex is the regression test for
// the second copy of the strategy switch this package used to carry:
// it built the simplex without SimplexOptions.Adaptive, so an
// 8-parameter session ran the fixed coefficients that htune (and the
// ensemble's own simplex arm) replace from 8 dimensions up. The
// initial simplex is the same either way; the proposals diverge at
// the first expansion or contraction after it.
func TestRegisteredSimplexIsTheOfflineSimplex(t *testing.T) {
	params := make([]space.Param, 8)
	for d := range params {
		params[d] = space.IntParam(fmt.Sprintf("p%d", d), 0, 100, 1)
	}
	sp := space.MustNew(params...)
	f := func(pt space.Point) float64 {
		sum := 0.0
		for d, v := range pt {
			sum += float64((v - int64(10*d+7)) * (v - int64(10*d+7)))
		}
		return sum
	}
	s := newFaultServer(newFakeClock())
	id := mustRegister(t, s, &proto.Message{Strategy: proto.StrategySimplex, MaxRuns: 200, Space: proto.EncodeSpace(sp)})
	ref := search.NewSimplex(sp, search.SimplexOptions{Adaptive: true})
	for i := 0; i < 60; i++ {
		want, ok := ref.Next()
		if !ok {
			t.Fatalf("reference simplex converged after %d proposals", i)
		}
		reply := s.call(&proto.Message{Type: proto.TypeFetch, Session: id})
		if reply.Type != proto.TypeConfig || !reflect.DeepEqual(reply.Values, sp.MustDecode(want).Map()) {
			t.Fatalf("proposal %d: session hands out %+v, the adaptive simplex proposes %v", i, reply, sp.MustDecode(want).Format())
		}
		ref.Report(want, f(want))
		if r := s.call(&proto.Message{Type: proto.TypeReport, Session: id, Tag: reply.Tag, Perf: f(want)}); r.Type != proto.TypeOK {
			t.Fatalf("report %d: %+v", i, r)
		}
	}
}

// TestRegisterOverflowingSpanIsRefused: an int parameter spanning all
// of int64 once registered and then crashed the server — Levels
// wrapped, so exhaustive divided by zero in Space.Size at register,
// and random and the ensemble panicked in Int63n at the first fetch.
// The register line is refused with an error reply for every
// strategy, and the connection goes on serving a well-formed session.
func TestRegisterOverflowingSpanIsRefused(t *testing.T) {
	_, addr := startServer(t)
	const wide = `[{"name":"a","kind":"int","min":-9223372036854775808,"max":9223372036854775807,"step":1}]`
	for _, strategy := range []string{
		proto.StrategySimplex, proto.StrategyCoordinate, proto.StrategyRandom, proto.StrategySystematic,
		proto.StrategyExhaustive, proto.StrategyPRO, proto.StrategyEnsemble,
	} {
		t.Run(strategy, func(t *testing.T) {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			r := bufio.NewReader(conn)
			call := func(line string) proto.Message {
				t.Helper()
				if _, err := fmt.Fprintln(conn, line); err != nil {
					t.Fatal(err)
				}
				reply, err := r.ReadBytes('\n')
				if err != nil {
					t.Fatalf("%s: no reply: %v", line, err)
				}
				var m proto.Message
				if err := json.Unmarshal(reply, &m); err != nil {
					t.Fatalf("reply %q: %v", reply, err)
				}
				return m
			}
			reg := call(`{"type":"register","strategy":"` + strategy + `","space":` + wide + `}`)
			if reg.Type != proto.TypeError || !strings.HasPrefix(reg.Error, "register:") {
				fetch := call(`{"type":"fetch","session":"` + reg.Session + `"}`)
				t.Fatalf("register = %+v (then fetch = %+v), want a register error", reg, fetch)
			}
			reg = call(`{"type":"register","strategy":"` + strategy + `","seed":1,"max_runs":4,` +
				`"space":[{"name":"a","kind":"int","min":0,"max":9,"step":1}]}`)
			if reg.Type != proto.TypeRegistered {
				t.Fatalf("well-formed register after the refused one = %+v", reg)
			}
			if cfg := call(`{"type":"fetch","session":"` + reg.Session + `"}`); cfg.Type != proto.TypeConfig {
				t.Fatalf("fetch = %+v, want a config", cfg)
			}
		})
	}
}
