package server

import (
	"math"
	"reflect"
	"testing"

	"harmony/internal/client"
	"harmony/internal/core"
	"harmony/internal/proto"
	"harmony/internal/search"
	"harmony/internal/space"
)

// predictFunc adapts a function to core.Surrogate for tests.
type predictFunc func(pt space.Point, cfg space.Config) (float64, bool)

func (f predictFunc) Predict(pt space.Point, cfg space.Config) (float64, bool) { return f(pt, cfg) }

// bowlModel scores a configuration of testSpace with the true
// objective scaled by mul — a perfect-ranking model whose absolute
// values can be made arbitrarily wrong.
func bowlModel(mul float64) core.Surrogate {
	return predictFunc(func(_ space.Point, cfg space.Config) (float64, bool) {
		return objective(cfg.Map()) * mul, true
	})
}

// resolver wraps a model into the Server.Surrogate hook.
func resolver(m core.Surrogate) func(string) core.Surrogate {
	return func(string) core.Surrogate { return m }
}

// driveSurrogate runs one tuning session against the server and
// returns the number of client evaluations performed and the smallest
// value the client genuinely measured.
func driveSurrogate(t *testing.T, addr string, reg client.Registration) (evals int, minMeasured float64) {
	t.Helper()
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	sess, err := c.Register(reg)
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	minMeasured = math.Inf(1)
	for i := 0; i < 1000; i++ {
		values, converged, err := sess.Fetch()
		if err != nil {
			t.Fatalf("Fetch: %v", err)
		}
		if converged {
			return evals, minMeasured
		}
		v := objective(values)
		if v < minMeasured {
			minMeasured = v
		}
		evals++
		if err := sess.Report(v); err != nil {
			t.Fatalf("Report: %v", err)
		}
	}
	t.Fatal("session did not converge within 1000 evaluations")
	return 0, 0
}

// TestSurrogateSequentialPrunesAndBestMeasured: a shared-config
// session with a perfect-ranking model prunes proposals, and the best
// reply is always one of the values the client genuinely measured —
// never a model prediction.
func TestSurrogateSequentialPrunesAndBestMeasured(t *testing.T) {
	s, addr := startServer(t)
	s.Surrogate = resolver(bowlModel(1))

	c, err := client.Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	sess, err := c.Register(client.Registration{
		App: "bowl", Space: testSpace(), Surrogate: true, MaxRuns: 60,
	})
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	minMeasured := math.Inf(1)
	for i := 0; i < 1000; i++ {
		values, converged, err := sess.Fetch()
		if err != nil {
			t.Fatalf("Fetch: %v", err)
		}
		if converged {
			break
		}
		v := objective(values)
		if v < minMeasured {
			minMeasured = v
		}
		if err := sess.Report(v); err != nil {
			t.Fatalf("Report: %v", err)
		}
	}
	st := s.Stats()
	if st.SurrogatePruned == 0 {
		t.Errorf("perfect model pruned nothing: %+v", st)
	}
	if st.SurrogateKept == 0 {
		t.Errorf("no proposal was committed to evaluation: %+v", st)
	}
	values, perf, err := sess.Best()
	if err != nil {
		t.Fatalf("Best: %v", err)
	}
	if perf != minMeasured {
		t.Errorf("best perf %v is not the smallest measured value %v", perf, minMeasured)
	}
	if got := objective(values); got != perf {
		t.Errorf("best values %v re-evaluate to %v, reply claimed %v", values, got, perf)
	}
}

// TestSurrogateParallelBestIsMeasured: with a model whose absolute
// predictions are 1000x too small, every pruned proposal enters the
// strategy at a value far below any real measurement — so the
// strategy's own best is a prediction. The best reply must ignore it
// and return the best genuinely measured configuration.
func TestSurrogateParallelBestIsMeasured(t *testing.T) {
	s, addr := startServer(t)
	s.Surrogate = resolver(bowlModel(1.0 / 1000))

	evals, minMeasured := driveSurrogate(t, addr, client.Registration{
		App: "bowl", Space: testSpace(), Strategy: proto.StrategyRandom,
		Seed: 7, Parallel: true, Surrogate: true, MaxRuns: 30,
	})
	st := s.Stats()
	if st.SurrogatePruned == 0 {
		t.Fatalf("nothing pruned (evals=%d): %+v", evals, st)
	}
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	sess := c.Attach("s1")
	values, perf, err := sess.Best()
	if err != nil {
		t.Fatalf("Best: %v", err)
	}
	if perf != minMeasured {
		t.Errorf("best perf %v is not the smallest measured value %v", perf, minMeasured)
	}
	if got := objective(values); got != perf {
		t.Errorf("best values %v re-evaluate to %v, reply claimed %v", values, got, perf)
	}
}

// TestSurrogateParallelPrunesWithinRunBudget: pruned proposals are
// never charged against MaxRuns, so a parallel surrogate session
// evaluates no more than its budget while the search sees more
// candidates than the budget alone would allow.
func TestSurrogateParallelPrunesWithinRunBudget(t *testing.T) {
	s, addr := startServer(t)
	s.Surrogate = resolver(bowlModel(1))

	const budget = 20
	evals, _ := driveSurrogate(t, addr, client.Registration{
		App: "bowl", Space: testSpace(), Strategy: proto.StrategyRandom,
		Seed: 3, Parallel: true, Surrogate: true, MaxRuns: budget,
	})
	if evals >= budget {
		t.Errorf("client evaluated %d configurations, want fewer than the %d budget", evals, budget)
	}
	st := s.Stats()
	if st.SurrogatePruned == 0 {
		t.Errorf("nothing pruned: %+v", st)
	}
	if seen := st.SurrogatePruned + st.SurrogateKept; seen != budget {
		t.Errorf("search saw %d candidates, want the full %d-point random stream", seen, budget)
	}
}

// TestSurrogateFallbackOnDecline: a model that declines every point
// degrades the session to full evaluation — nothing pruned, fallback
// counted, tuning completes normally.
func TestSurrogateFallbackOnDecline(t *testing.T) {
	s, addr := startServer(t)
	s.Surrogate = resolver(predictFunc(func(space.Point, space.Config) (float64, bool) {
		return 0, false
	}))

	evals, _ := driveSurrogate(t, addr, client.Registration{
		App: "bowl", Space: testSpace(), Strategy: proto.StrategyRandom,
		Seed: 5, Parallel: true, Surrogate: true, MaxRuns: 25,
	})
	st := s.Stats()
	if st.SurrogatePruned != 0 || st.SurrogateKept != 0 {
		t.Errorf("declined model still pruned or kept: %+v", st)
	}
	if st.SurrogateFallbacks == 0 {
		t.Errorf("no fallback counted: %+v", st)
	}
	if evals != 25 {
		t.Errorf("full-simulation fallback evaluated %d configurations, want 25", evals)
	}
}

// TestSurrogateFlagIgnoredWithoutResolver: registering with the
// surrogate flag against a server with no model resolver behaves
// exactly like a plain session.
func TestSurrogateFlagIgnoredWithoutResolver(t *testing.T) {
	s, addr := startServer(t)
	evals, _ := driveSurrogate(t, addr, client.Registration{
		App: "bowl", Space: testSpace(), Strategy: proto.StrategyRandom,
		Seed: 9, Surrogate: true, SurrogateKeep: 0.1, MaxRuns: 15,
	})
	st := s.Stats()
	if st.SurrogatePruned != 0 || st.SurrogateKept != 0 || st.SurrogateFallbacks != 0 {
		t.Errorf("surrogate counters moved without a resolver: %+v", st)
	}
	if evals != 15 {
		t.Errorf("evaluated %d configurations, want 15", evals)
	}
}

// TestSurrogateBestBeforeAnyMeasurement: a surrogate session that has
// pruned proposals but measured nothing yet must refuse a best query
// instead of serving a prediction.
func TestSurrogateBestBeforeAnyMeasurement(t *testing.T) {
	sp := testSpace()
	gate := core.NewSurrogateGate(&core.SurrogateOptions{Model: bowlModel(1)})
	strat := mustStrategy(t, sp)
	ss := newTestSession(sp, strat, 0, nil)
	ss.surGate = gate
	// Feed the strategy a prediction directly, as a pruned proposal would.
	pt, err := sp.Encode(map[string]string{"x": "1", "y": "1"})
	if err != nil {
		t.Fatal(err)
	}
	strat.Next()
	strat.Report(pt, 42)
	reply := ss.callBest()
	if reply.Type != proto.TypeError {
		t.Fatalf("best before any measurement replied %+v, want error", reply)
	}
	ss.noteMeasuredLocked(pt, 42)
	reply = ss.callBest()
	if reply.Type != proto.TypeBestReply || reply.Perf != 42 {
		t.Fatalf("best after measurement replied %+v", reply)
	}
}

// TestSurrogateRoundQuota: a round session prunes by the quota over
// the scores of its whole round, not candidate by candidate, and a
// round with any member the model declines or cannot decode goes to
// clients whole, counted as one fallback.
func TestSurrogateRoundQuota(t *testing.T) {
	sp := testSpace()
	// The model is the bowl itself, except that it declines x = 0.
	model := predictFunc(func(_ space.Point, cfg space.Config) (float64, bool) {
		return objective(cfg.Map()), cfg.Map()["x"] != "0"
	})
	strat := &scriptedBatch{rounds: [][]space.Point{
		// Scores 410, 235, 110, 35, 10: each better than the last, so the
		// per-candidate rule would keep all five. The quota keeps two.
		{{5, 5}, {10, 5}, {15, 5}, {20, 5}, {25, 5}},
		{{24, 5}, {0, 5}, {26, 5}},   // one member declined
		{{24, 6}, {99, 99}, {26, 6}}, // one member undecodable
	}}
	ss := newTestSession(sp, strat, 0, nil)
	ss.surGate = core.NewSurrogateGate(&core.SurrogateOptions{Model: model, Keep: 0.4})
	roundWindow(strat)(ss)

	// fetchRound fetches and reports until the window moves on to the
	// next round, returning the configurations clients were handed.
	fetchRound := func(want int) []string {
		t.Helper()
		var got []string
		for i := 0; i < want; i++ {
			r := ss.callFetch()
			if r.Type != proto.TypeConfig || r.Converged {
				t.Fatalf("fetch: %+v", r)
			}
			got = append(got, r.Values["x"]+","+r.Values["y"])
			ss.callReport(&proto.Message{Tag: r.Tag, Perf: objective(r.Values)})
		}
		return got
	}
	counts := func() [3]int64 {
		st := ss.stat()
		return [3]int64{st.surrogateKept.Load(), st.surrogatePruned.Load(), st.surrogateFallback.Load()}
	}

	if got, want := fetchRound(2), []string{"20,5", "25,5"}; !reflect.DeepEqual(got, want) {
		t.Errorf("round 1 handed out %v, want the quota's best two %v", got, want)
	}
	if got, want := counts(), [3]int64{2, 3, 0}; got != want {
		t.Errorf("after round 1: kept/pruned/fallbacks = %v, want %v", got, want)
	}
	if got, want := fetchRound(3), []string{"24,5", "0,5", "26,5"}; !reflect.DeepEqual(got, want) {
		t.Errorf("round 2 handed out %v, want the whole round %v", got, want)
	}
	if got, want := counts(), [3]int64{2, 3, 1}; got != want {
		t.Errorf("after the declined round: kept/pruned/fallbacks = %v, want %v", got, want)
	}
	if got, want := fetchRound(2), []string{"24,6", "26,6"}; !reflect.DeepEqual(got, want) {
		t.Errorf("round 3 handed out %v, want every decodable member %v", got, want)
	}
	if got, want := counts(), [3]int64{2, 3, 2}; got != want {
		t.Errorf("after the undecodable round: kept/pruned/fallbacks = %v, want %v", got, want)
	}
	if r := ss.callFetch(); !r.Converged {
		t.Fatalf("fetch after the last round: %+v, want converged", r)
	}
	if got := ss.stat().roundsCompleted.Load(); got != 3 {
		t.Errorf("roundsCompleted = %d, want 3", got)
	}
}

func mustStrategy(t *testing.T, sp *space.Space) search.Strategy {
	t.Helper()
	strat, err := search.New(proto.StrategySimplex, sp, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	return strat
}
