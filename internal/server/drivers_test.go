package server

import (
	"context"
	"reflect"
	"testing"

	"harmony/internal/core"
	"harmony/internal/history"
	"harmony/internal/proto"
	"harmony/internal/search"
	"harmony/internal/space"
)

// Tests of the one issue/commit machine through both of its drivers:
// what core.Tune and a tagged server session must agree on is checked
// on the two of them with one scenario and one expectation.

// driverRun is what one driver did with a scenario.
type driverRun struct {
	measured                []string // configurations an objective call or a client measured, in order
	charged, pruned, kept   int
	cacheHits, cacheLookups int64
}

// scenario is one strategy, one model and one cache state, to be run to
// its end by either driver under a run budget.
type scenario struct {
	strat   func() search.Strategy
	model   core.Surrogate
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
			core.Options{MaxRuns: sc.maxRuns, Cache: cache, Surrogate: &core.SurrogateOptions{Model: sc.model}})
		if err != nil {
			t.Fatalf("Tune: %v", err)
		}
		out.charged, out.pruned, out.kept = res.Runs, res.SurrogatePruned, res.SurrogateKept
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
		ss.surGate = core.NewSurrogateGate(&core.SurrogateOptions{Model: sc.model})
		roundWindow(strat)(ss)
		var out driverRun
		for i := 0; ; i++ {
			r := ss.fetch(nil)
			if r.Type != proto.TypeConfig || i > 1000 {
				t.Fatalf("fetch %d: %+v", i, r)
			}
			if r.Converged {
				break
			}
			out.measured = append(out.measured, r.Values["x"]+","+r.Values["y"])
			ss.report(&proto.Message{Tag: r.Tag, Perf: objective(r.Values)})
		}
		st := ss.stat()
		out.charged = ss.win.m.Charged
		out.pruned, out.kept = int(st.surrogatePruned.Load()), int(st.surrogateKept.Load())
		out.cacheHits = st.cacheHits.Load()
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

// scoreTable is a surrogate that knows exactly the points of a script.
type scoreTable map[string]float64

func (m scoreTable) Predict(pt space.Point, _ space.Config) (float64, bool) {
	v, ok := m[pt.Key()]
	return v, ok
}

// TestClassificationOrderOnBothDrivers pins the one classification
// order — surrogate gate, run budget, cache, work — on both drivers.
// The script proposes, one per round: a first point (always kept), a
// point that is in the cache and that the gate rejects, a cached point
// the gate keeps, and an uncached point the gate rejects only if the
// cached point's score was committed.
//
//   - The rejected cached point is pruned, costs no run and is never
//     looked up: the gate decides what is charged, the cache answers
//     only what is charged.
//   - The kept cached point is charged, answered by the cache, and its
//     score reaches Committed — so the last point (score 90 against a
//     committed best of 50, not 100) is pruned too.
//
// Before the server window took core's order it consulted the cache
// first: the rejected cached point was a charged cache hit, Committed
// never saw a cache hit's score, and the last point was handed out.
func TestClassificationOrderOnBothDrivers(t *testing.T) {
	first, rejectedCached, keptCached, last := space.Point{20, 20}, space.Point{0, 0}, space.Point{25, 5}, space.Point{24, 5}
	sc := scenario{
		strat: func() search.Strategy {
			return &scriptedBatch{rounds: [][]space.Point{{first}, {rejectedCached}, {keptCached}, {last}}}
		},
		model:  scoreTable{first.Key(): 100, rejectedCached.Key(): 500, keptCached.Key(): 50, last.Key(): 90},
		cached: []space.Point{rejectedCached, keptCached},
	}
	want := driverRun{
		measured: []string{"20,20"},
		charged:  2, pruned: 2, kept: 2,
		cacheHits: 1, cacheLookups: 2, // first (a miss) and keptCached (the hit)
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

func (s *endlessStrategy) NextBatch() []space.Point {
	s.asks++
	return []space.Point{{int64(s.asks % 41), int64(s.asks / 41 % 41)}}
}

// risingModel scores every point worse than the one before, so after
// the first proposal the gate rejects everything it is shown.
type risingModel struct{ n float64 }

func (m *risingModel) Predict(space.Point, space.Config) (float64, bool) {
	m.n++
	return 100 * m.n, true
}

// TestRunawayGuardOnBothDrivers: a model that rejects everything the
// strategy proposes costs no run, so the run budget alone would let
// the session ask forever. The machine's proposal cap — ten proposals
// per budgeted run, the same number on both drivers — ends it: the
// strategy is asked exactly that often, one configuration is measured,
// Tune returns and fetch replies converged.
func TestRunawayGuardOnBothDrivers(t *testing.T) {
	const maxRuns = 3
	for _, d := range machineDrivers {
		t.Run(d.name, func(t *testing.T) {
			strat := &endlessStrategy{}
			got := d.run(t, scenario{
				strat:   func() search.Strategy { return strat },
				model:   &risingModel{},
				maxRuns: maxRuns,
			})
			if want := core.DefaultMaxProposals(maxRuns); strat.asks != want {
				t.Errorf("strategy asked %d times, want the proposal cap %d", strat.asks, want)
			}
			if len(got.measured) != 1 || got.charged != 1 || got.pruned != strat.asks-1 {
				t.Errorf("measured %v, charged %d, pruned %d of %d proposals: want one measured, the rest pruned",
					got.measured, got.charged, got.pruned, strat.asks)
			}
		})
	}
}
