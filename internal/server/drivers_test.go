package server

import (
	"context"
	"math"
	"reflect"
	"testing"
	"time"

	"harmony/internal/core"
	"harmony/internal/history"
	"harmony/internal/proto"
	"harmony/internal/search"
	"harmony/internal/space"
)

// Tests of the one issue/commit machine through both of its drivers:
// what core.Tune and a server session must agree on is checked on the
// two of them with one scenario and one expectation; and of the one
// on-line driver through its three (depth, group) pairs: the fault
// ladder is checked on the three of them the same way.

// driverRun is what one driver did with a scenario.
type driverRun struct {
	measured                []string // configurations an objective call or a client measured, in order
	charged                 int
	cacheHits, cacheLookups int64
}

// scenario is one strategy and one cache state, to be run to its end by
// either driver under a run budget.
type scenario struct {
	strat   func() search.Strategy
	cached  []space.Point // points the evaluation cache already holds
	maxRuns int
}

// machineDrivers runs a scenario to its end off-line and on-line.
var machineDrivers = []struct {
	name string
	run  func(t *testing.T, sc scenario) driverRun
}{
	{"core.Tune", func(t *testing.T, sc scenario) driverRun {
		sp := testSpace()
		ec, cache := warmCache(sp, sc.cached)
		var out driverRun
		res, err := core.Tune(context.Background(), sp, sc.strat(),
			func(_ context.Context, cfg space.Config) (float64, error) {
				out.measured = append(out.measured, cfg.Map()["x"]+","+cfg.Map()["y"])
				return objective(cfg.Map()), nil
			},
			core.Options{MaxRuns: sc.maxRuns, Cache: cache})
		if err != nil {
			t.Fatalf("Tune: %v", err)
		}
		out.charged = res.Runs
		out.cacheHits = int64(res.CacheHits)
		out.cacheLookups = lookups(ec)
		return out
	}},
	{"tagged session", func(t *testing.T, sc scenario) driverRun {
		sp := testSpace()
		strat := sc.strat()
		ec, cache := warmCache(sp, sc.cached)
		ss := newTestSession(sp, strat, sc.maxRuns, nil)
		ss.cache = cache
		roundWindow(strat)(ss)
		var out driverRun
		for i := 0; ; i++ {
			r := ss.callFetch()
			if r.Type != proto.TypeConfig || i > 20000 {
				t.Fatalf("fetch %d: %+v", i, r)
			}
			if r.Converged {
				break
			}
			out.measured = append(out.measured, r.Values["x"]+","+r.Values["y"])
			ss.callReport(&proto.Message{Tag: r.Tag, Perf: objective(r.Values)})
		}
		out.charged = ss.win.m.Charged
		out.cacheHits = ss.stat().cacheHits.Load()
		out.cacheLookups = lookups(ec)
		return out
	}},
}

// warmCache returns an evaluation cache holding the true objective of
// the given points, bound to the test space.
func warmCache(sp *space.Space, pts []space.Point) (*history.EvalCache, *history.BoundCache) {
	ec := history.NewEvalCache()
	cache := ec.BoundNS("drivers", "m", "", sp)
	for _, pt := range pts {
		cache.Store(pt, objective(sp.MustDecode(pt).Map()))
	}
	return ec, cache
}

func lookups(ec *history.EvalCache) int64 {
	hits, misses := ec.Counters()
	return hits + misses
}

// TestClassificationOrderOnBothDrivers pins the one classification
// order — run budget, cache, work — on both drivers. The script
// proposes, one per round, an uncached point, two cached points and a
// last uncached point, under a budget of three runs.
//
//   - The cached points are charged like runs and answered by the
//     cache, without a measurement.
//   - The last point finds the budget spent: it is never looked up, and
//     the search ends. The budget decides what is charged, the cache
//     answers only what is charged.
//
// Where the surrogate gate stands in the order, ahead of the budget,
// is core.Tune's alone: TestSurrogateClassificationOrder in core.
func TestClassificationOrderOnBothDrivers(t *testing.T) {
	first, cachedA, cachedB, last := space.Point{20, 20}, space.Point{0, 0}, space.Point{25, 5}, space.Point{24, 5}
	sc := scenario{
		strat: func() search.Strategy {
			return &scriptedBatch{rounds: [][]space.Point{{first}, {cachedA}, {cachedB}, {last}}}
		},
		cached:  []space.Point{cachedA, cachedB},
		maxRuns: 3,
	}
	want := driverRun{
		measured:  []string{"20,20"},
		charged:   3,
		cacheHits: 2, cacheLookups: 3, // first (a miss) and the two hits
	}
	for _, d := range machineDrivers {
		t.Run(d.name, func(t *testing.T) {
			if got := d.run(t, sc); !reflect.DeepEqual(got, want) {
				t.Errorf("got  %+v\nwant %+v", got, want)
			}
		})
	}
}

// endlessStrategy proposes a fresh point every round and never
// converges; asks counts how often it was asked for one.
type endlessStrategy struct {
	scriptedBatch
	asks int
}

func (s *endlessStrategy) Ask() (space.Point, bool) {
	if s.committed < s.issued {
		return nil, false
	}
	s.asks++
	s.issued++
	return space.Point{int64(s.asks % 41), int64(s.asks / 41 % 41)}, true
}

// TestRunawayGuardOnBothDrivers: a session with no run budget and a
// strategy that never converges would ask forever. The machine's
// proposal cap — the same number on both drivers — ends it: the
// strategy is asked exactly that often, Tune returns and fetch replies
// converged. Each of the 41×41 distinct points is measured once:
// core.Tune answers a repeat from its memo, the session from its
// evaluation cache.
func TestRunawayGuardOnBothDrivers(t *testing.T) {
	for _, d := range machineDrivers {
		t.Run(d.name, func(t *testing.T) {
			strat := &endlessStrategy{}
			got := d.run(t, scenario{strat: func() search.Strategy { return strat }})
			if want := core.DefaultMaxProposals(0); strat.asks != want {
				t.Errorf("strategy asked %d times, want the proposal cap %d", strat.asks, want)
			}
			if len(got.measured) != 41*41 {
				t.Errorf("measured %d configurations, want each of the %d distinct points once", len(got.measured), 41*41)
			}
		})
	}
}

// sessionKinds are the three (depth, group) pairs register opens a
// window with — all a session kind is. reg is what a registration sets
// to get the kind, win the window register then opens.
var sessionKinds = []struct {
	name string
	reg  func(m *proto.Message)
	win  func(strat search.Strategy) func(*session)
}{
	{"shared", func(*proto.Message) {}, sharedWindow},
	{"parallel", func(m *proto.Message) { m.Parallel = true }, roundWindow},
	{"async", func(m *proto.Message) { m.Async, m.AsyncDepth = true, 4 },
		func(strat search.Strategy) func(*session) { return pipelineWindow(strat, 4) }},
}

// TestRegistrationDefaultsAreCores: a registration that chooses no
// async depth gets core's default; the server keeps no default of its
// own in front of it.
func TestRegistrationDefaultsAreCores(t *testing.T) {
	s := newFaultServer(newFakeClock())
	msg := &proto.Message{Async: true, Strategy: proto.StrategyRandom, MaxRuns: 10, Space: proto.EncodeSpace(testSpace())}
	id := mustRegister(t, s, msg)
	if got := s.shardFor(id).sessions[id].win.m.Depth; got != core.DefaultAsyncDepth {
		t.Errorf("async session with no depth has window depth %d, want core.DefaultAsyncDepth = %d", got, core.DefaultAsyncDepth)
	}
}

// ladder is one session of one kind on a server with a fake clock,
// driven over dispatch. Every report echoes the tag of the fetch it
// answers.
type ladder struct {
	t   *testing.T
	s   *Server
	clk *fakeClock
	id  string
}

func (l *ladder) fetch() *proto.Message {
	l.t.Helper()
	r := l.s.call(&proto.Message{Type: proto.TypeFetch, Session: l.id})
	if r.Type != proto.TypeConfig {
		l.t.Fatalf("fetch: %+v", r)
	}
	return r
}

func (l *ladder) report(tag int, perf float64) {
	l.t.Helper()
	if r := l.s.call(&proto.Message{Type: proto.TypeReport, Session: l.id, Tag: tag, Perf: perf}); r.Type != proto.TypeOK {
		l.t.Fatalf("report under tag %d: %+v, want it acknowledged", tag, r)
	}
}

// best returns the Best reply's value, NaN when the session has none.
func (l *ladder) best() float64 {
	if b := l.s.call(&proto.Message{Type: proto.TypeBest, Session: l.id}); b.Type == proto.TypeBestReply {
		return b.Perf
	}
	return math.NaN()
}

// ladderCounts are the fault counters a row pins.
type ladderCounts struct{ accepted, stale, reissued, forfeited int64 }

func (l *ladder) counts() ladderCounts {
	st := l.s.Stats()
	return ladderCounts{st.ReportsAccepted, st.ReportsDroppedStale, st.ProposalsReissued, st.ProposalsForfeited}
}

func sameConfig(a, b *proto.Message) bool {
	return a.Values["x"] == b.Values["x"] && a.Values["y"] == b.Values["y"]
}

// faultLadder is the one fault policy of the server: each row is one
// scenario and one expectation, run on all three session kinds. A row
// names what the registration needs beyond the kind (Random strategy,
// seed 4 and the test space are given) and drives the session; a single
// client fetching serially is handed the same stream of configurations
// on every kind, and the rows with two reporters keep the budget at one
// run so every kind has one candidate to hand out.
var faultLadder = []struct {
	name string
	reg  proto.Message
	cfg  func(s *Server)
	run  func(t *testing.T, l *ladder)
}{
	{"stale tag", proto.Message{MaxRuns: 10}, nil, func(t *testing.T, l *ladder) {
		// No identity, and nothing outstanding: acknowledged and dropped.
		l.report(0, 0.001)
		cfg1 := l.fetch()
		l.report(cfg1.Tag, 7)
		cfg2 := l.fetch()
		// The straggler answers the first hand-out again, with a value
		// that would be the best were it credited to the second; so does a
		// report that echoes no tag, and one whose tag was never issued.
		l.report(cfg1.Tag, 0.001)
		l.report(0, 0.001)
		l.report(cfg2.Tag+100, 0.001)
		l.report(cfg2.Tag, 9)
		if best, want := l.best(), 7.0; best != want {
			t.Errorf("best = %v, want the genuine %v", best, want)
		}
		if got, want := l.counts(), (ladderCounts{accepted: 2, stale: 4}); got != want {
			t.Errorf("counters %+v, want %+v", got, want)
		}
	}},
	{"duplicate tag", proto.Message{MaxRuns: 1, Reporters: 2}, nil, func(t *testing.T, l *ladder) {
		// A retried report must not stand in for the second reporter's.
		cfg := l.fetch()
		l.report(cfg.Tag, 4)
		l.report(cfg.Tag, 1)
		if best := l.best(); !math.IsNaN(best) {
			t.Errorf("best = %v after one reporter of two, want none yet", best)
		}
		if r := l.fetch(); !sameConfig(r, cfg) {
			t.Errorf("the search advanced to %v on a duplicate", r.Values)
		}
		if got, want := l.counts(), (ladderCounts{accepted: 1, stale: 1}); got != want {
			t.Errorf("counters %+v, want %+v", got, want)
		}
	}},
	{"NaN report", proto.Message{MaxRuns: 10}, nil, func(t *testing.T, l *ladder) {
		// A client that measured NaN measured nothing: a forfeit, not a win.
		l.report(l.fetch().Tag, math.NaN())
		l.report(l.fetch().Tag, 5)
		if best, want := l.best(), 5.0; best != want {
			t.Errorf("best = %v, want the genuine %v", best, want)
		}
	}},
	{"partial reports then forfeit", proto.Message{MaxRuns: 1, Reporters: 2},
		func(s *Server) { s.ReportTimeout, s.MaxReissues = 30*time.Second, 1 },
		func(t *testing.T, l *ladder) {
			// Two clients hold the configuration; one reports, one crashed.
			alive, crashed := l.fetch(), l.fetch()
			if !sameConfig(alive, crashed) {
				t.Fatalf("two clients of one candidate were handed %v and %v", alive.Values, crashed.Values)
			}
			l.report(alive.Tag, 5)
			// The crashed client's hand-out expires and the candidate is
			// offered again; nobody takes the re-issue to its end either.
			l.clk.Advance(31 * time.Second)
			if r := l.fetch(); r.Converged || !sameConfig(r, alive) {
				t.Fatalf("after the first expiry: %+v, want %v re-issued", r, alive.Values)
			}
			l.clk.Advance(31 * time.Second)
			// Past the limit it is forfeited with the aggregate it has.
			if r := l.fetch(); !r.Converged || !sameConfig(r, alive) {
				t.Fatalf("after the forfeit: %+v, want the budget spent and %v the best", r, alive.Values)
			}
			l.report(crashed.Tag, 100)
			if best, want := l.best(), 5.0; best != want {
				t.Errorf("best = %v, want the surviving report %v", best, want)
			}
			if got, want := l.counts(), (ladderCounts{accepted: 1, stale: 1, reissued: 1, forfeited: 1}); got != want {
				t.Errorf("counters %+v, want %+v", got, want)
			}
		}},
	{"no reports then reissue then penalty", proto.Message{MaxRuns: 10},
		func(s *Server) { s.ReportTimeout, s.MaxReissues = 30*time.Second, 2 },
		func(t *testing.T, l *ladder) {
			cfg1 := l.fetch()
			for i := 1; i <= 2; i++ {
				l.clk.Advance(31 * time.Second)
				if r := l.fetch(); !sameConfig(r, cfg1) || r.Tag != cfg1.Tag+i {
					t.Fatalf("re-issue %d: %+v, want %v under a new tag", i, r, cfg1.Values)
				}
			}
			l.clk.Advance(31 * time.Second) // the third expiry exceeds MaxReissues
			cfg2 := l.fetch()
			if cfg2.Converged || sameConfig(cfg2, cfg1) {
				t.Fatalf("after the forfeit: %+v, want the next configuration", cfg2)
			}
			l.report(cfg1.Tag, 1) // the slow client, at last
			l.report(cfg2.Tag, 3)
			if best, want := l.best(), 3.0; best != want {
				t.Errorf("best = %v, want %v: neither the +Inf penalty nor the stale 1 may win", best, want)
			}
			if got, want := l.counts(), (ladderCounts{accepted: 1, stale: 1, reissued: 2, forfeited: 1}); got != want {
				t.Errorf("counters %+v, want %+v", got, want)
			}
		}},
	{"lease survives in-flight evaluation", proto.Message{MaxRuns: 10},
		func(s *Server) { s.SessionTimeout, s.ReportTimeout = time.Minute, 5*time.Minute },
		func(t *testing.T, l *ladder) {
			cfg := l.fetch()
			// Past the lease, inside the straggler deadline: still busy.
			l.clk.Advance(90 * time.Second)
			if n := l.s.ExpireNow(); n != 0 {
				t.Fatalf("ExpireNow collected %d sessions mid-evaluation, want 0", n)
			}
			l.report(cfg.Tag, 6)
			if got, want := l.counts(), (ladderCounts{accepted: 1}); got != want {
				t.Errorf("counters %+v, want %+v", got, want)
			}
			// With nothing in flight the lease governs again.
			l.clk.Advance(70 * time.Second)
			if n := l.s.ExpireNow(); n != 1 {
				t.Fatalf("ExpireNow collected %d idle sessions, want 1", n)
			}
		}},
}

func TestFaultLadder(t *testing.T) {
	for _, row := range faultLadder {
		for _, kind := range sessionKinds {
			t.Run(row.name+"/"+kind.name, func(t *testing.T) {
				l := &ladder{t: t, clk: newFakeClock()}
				l.s = newFaultServer(l.clk)
				if row.cfg != nil {
					row.cfg(l.s)
				}
				reg := row.reg
				reg.Strategy, reg.Seed, reg.Space = proto.StrategyRandom, 4, proto.EncodeSpace(testSpace())
				kind.reg(&reg)
				l.id = mustRegister(t, l.s, &reg)
				row.run(t, l)
			})
		}
	}
	// The row that needs a strategy no registration can name: the first
	// proposal is a point the space cannot decode. It is forfeited — at
	// +Inf, charged, counted — and the search advances: the same fetch
	// hands out the next proposal. (The slot replied with an error, and
	// with the same error to every later fetch.)
	for _, kind := range sessionKinds {
		t.Run("undecodable proposal/"+kind.name, func(t *testing.T) {
			sp := testSpace()
			strat := &scriptedStrategy{pts: []space.Point{{99, 99}, sp.Center(), sp.Clamp(space.Point{1, 1})}}
			ss := newTestSession(sp, strat, 3, kind.win(strat))
			for i, want := range []string{"20,20", "1,1"} {
				r := ss.callFetch()
				if r.Type != proto.TypeConfig || r.Converged || r.Values["x"]+","+r.Values["y"] != want {
					t.Fatalf("fetch %d: %+v, want %s handed out", i, r, want)
				}
				ss.callReport(&proto.Message{Tag: r.Tag, Perf: float64(i + 1)})
			}
			if r := ss.callFetch(); !r.Converged {
				t.Fatalf("fetch past the budget: %+v, want converged (the forfeit is a charged run)", r)
			}
			if st := ss.stat(); ss.win.m.Charged != 3 || st.proposalsForfeited.Load() != 1 || st.reportsAccepted.Load() != 2 {
				t.Errorf("charged %d, forfeited %d, accepted %d: want 3, 1, 2",
					ss.win.m.Charged, st.proposalsForfeited.Load(), st.reportsAccepted.Load())
			}
			if b := ss.callBest(); b.Type != proto.TypeBestReply || b.Perf != 1 {
				t.Errorf("best = %+v, want the measured 1, never the forfeit's +Inf", b)
			}
		})
	}
}

// TestBestAgreesWithFetchOnConvergence: when the run budget or the
// proposal cap ends a session whose strategy never finishes, fetch
// replies converged, and best must say the same of the same session.
func TestBestAgreesWithFetchOnConvergence(t *testing.T) {
	for _, c := range []struct {
		name    string
		maxRuns int
	}{{"max_runs 5", 5}, {"proposal cap", 0}} {
		t.Run(c.name, func(t *testing.T) {
			strat := &endlessStrategy{}
			ss := newTestSession(testSpace(), strat, c.maxRuns, roundWindow(strat))
			for i := 0; ; i++ {
				r := ss.callFetch()
				if r.Type != proto.TypeConfig || i > 20000 {
					t.Fatalf("fetch %d: %+v", i, r)
				}
				if r.Converged {
					break
				}
				ss.callReport(&proto.Message{Tag: r.Tag, Perf: objective(r.Values)})
			}
			if b := ss.callBest(); b.Type != proto.TypeBestReply || !b.Converged {
				t.Errorf("fetch replied converged, best replies %+v", b)
			}
		})
	}
}
