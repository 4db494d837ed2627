package core

import (
	"context"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"harmony/internal/history"
	"harmony/internal/search"
	"harmony/internal/space"
)

// modelFunc adapts a plain function to the Surrogate interface.
type modelFunc func(pt space.Point, cfg space.Config) (float64, bool)

func (f modelFunc) Predict(pt space.Point, cfg space.Config) (float64, bool) { return f(pt, cfg) }

// perfectModel predicts the bowl exactly: the best case for pruning.
var perfectModel = modelFunc(func(_ space.Point, cfg space.Config) (float64, bool) {
	v, _ := parBowl(context.Background(), cfg)
	return v, true
})

// constantModel cannot distinguish any two points; the confidence
// gate must then simulate everything.
var constantModel = modelFunc(func(space.Point, space.Config) (float64, bool) { return 42, true })

// invertedModel ranks points exactly backwards: the worst wrong-model
// case short of lying about feasibility.
var invertedModel = modelFunc(func(_ space.Point, cfg space.Config) (float64, bool) {
	v, _ := parBowl(context.Background(), cfg)
	return 1e7 / v, true
})

// TestSurrogatePrunesAndStaysTransparent drives PRO with a perfect
// model and checks the contract: fewer simulated runs at the same
// proposal budget, pruned trials charged to nothing, and Best backed
// by a genuine measurement.
func TestSurrogatePrunesAndStaysTransparent(t *testing.T) {
	sp := parallelSpace(t)
	opts := Options{MaxRuns: 200, MaxProposals: 200, RunOverhead: 3}
	full, err := Tune(context.Background(), sp,
		search.NewPRO(sp, search.PROOptions{Seed: 17}), parBowl, opts)
	if err != nil {
		t.Fatalf("full: %v", err)
	}

	opts.Surrogate = &SurrogateOptions{Model: perfectModel}
	var evals atomic.Int64
	counted := func(ctx context.Context, cfg space.Config) (float64, error) {
		evals.Add(1)
		return parBowl(ctx, cfg)
	}
	pruned, err := Tune(context.Background(), sp,
		search.NewPRO(sp, search.PROOptions{Seed: 17}), counted, opts)
	if err != nil {
		t.Fatalf("pruned: %v", err)
	}

	if pruned.SurrogatePruned == 0 {
		t.Fatal("surrogate pruned nothing")
	}
	if pruned.Runs >= full.Runs {
		t.Fatalf("surrogate did not reduce simulated runs: %d vs %d", pruned.Runs, full.Runs)
	}
	if got := int(evals.Load()); got != pruned.Runs-pruned.CacheHits {
		t.Fatalf("objective invoked %d times, %d runs charged", got, pruned.Runs)
	}
	if pruned.BestValue > full.BestValue {
		t.Fatalf("surrogate Best %v worse than full-simulation Best %v", pruned.BestValue, full.BestValue)
	}
	// Best must be a genuine measurement of the best point.
	if want, _ := parBowl(context.Background(), pruned.BestConfig); want != pruned.BestValue {
		t.Fatalf("BestValue %v is not the measured objective %v", pruned.BestValue, want)
	}
	prunedTrials, measured := 0, 0
	for _, tr := range pruned.Trials {
		if tr.Pruned {
			prunedTrials++
			if tr.Run != 0 || tr.Cached || tr.Err != nil {
				t.Fatalf("pruned trial carries run accounting: %+v", tr)
			}
			continue
		}
		if tr.Run > 0 {
			measured++
		}
	}
	if prunedTrials != pruned.SurrogatePruned {
		t.Fatalf("trial log has %d pruned trials, counter says %d", prunedTrials, pruned.SurrogatePruned)
	}
	if measured != pruned.Runs {
		t.Fatalf("trial log has %d measured runs, Runs=%d", measured, pruned.Runs)
	}
	if pruned.SurrogateKept != pruned.Runs {
		t.Fatalf("SurrogateKept=%d, Runs=%d", pruned.SurrogateKept, pruned.Runs)
	}
}

// TestSurrogateDeterministicAcrossWorkers pins that pruning decisions
// and the full trial log are identical for 1 and 8 workers.
func TestSurrogateDeterministicAcrossWorkers(t *testing.T) {
	sp := parallelSpace(t)
	var logs []string
	for _, workers := range []int{1, 8} {
		res, err := Tune(context.Background(), sp,
			search.NewPRO(sp, search.PROOptions{Seed: 17}), parBowl,
			Options{MaxRuns: 120, MaxProposals: 300, Workers: workers,
				Surrogate: &SurrogateOptions{Model: perfectModel}})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		logs = append(logs, resultFingerprint(res))
	}
	if logs[0] != logs[1] {
		t.Fatalf("fingerprints differ across workers:\n1: %s\n8: %s", logs[0], logs[1])
	}
}

// TestSurrogateConstantModelSimulatesEverything: when every
// prediction ties, the confidence gate keeps every point, and the
// session is identical to one without a surrogate.
func TestSurrogateConstantModelSimulatesEverything(t *testing.T) {
	sp := parallelSpace(t)
	run := func(sur *SurrogateOptions) *Result {
		res, err := Tune(context.Background(), sp,
			search.NewPRO(sp, search.PROOptions{Seed: 5}), parBowl,
			Options{MaxRuns: 60, RunOverhead: 1, Surrogate: sur})
		if err != nil {
			t.Fatalf("tune: %v", err)
		}
		return res
	}
	off := run(nil)
	on := run(&SurrogateOptions{Model: constantModel})
	if on.SurrogatePruned != 0 {
		t.Fatalf("tied predictions pruned %d points", on.SurrogatePruned)
	}
	if a, b := resultFingerprint(off), resultFingerprint(on); a != b {
		t.Fatalf("constant model changed the session:\noff: %s\non:  %s", a, b)
	}
}

// TestSurrogateWrongModelNeverCorruptsBest: an inverted model wrecks
// the evaluation ordering but every reported number stays a genuine
// measurement, and Best is the best of what was measured.
func TestSurrogateWrongModelNeverCorruptsBest(t *testing.T) {
	sp := parallelSpace(t)
	res, err := Tune(context.Background(), sp,
		search.NewPRO(sp, search.PROOptions{Seed: 17}), parBowl,
		Options{MaxRuns: 120, MaxProposals: 300,
			Surrogate: &SurrogateOptions{Model: invertedModel}})
	if err != nil {
		t.Fatalf("tune: %v", err)
	}
	best := math.Inf(1)
	for _, tr := range res.Trials {
		if tr.Pruned {
			continue
		}
		want, _ := parBowl(context.Background(), sp.MustDecode(tr.Point))
		if tr.Value != want {
			t.Fatalf("measured trial %d reports %v, objective says %v", tr.Proposal, tr.Value, want)
		}
		if tr.Value < best {
			best = tr.Value
		}
	}
	if res.BestValue != best {
		t.Fatalf("BestValue %v is not the best measured value %v", res.BestValue, best)
	}
}

// TestSurrogateFallbackOnDecline: a model that declines points forces
// full simulation of the round and counts a fallback.
func TestSurrogateFallbackOnDecline(t *testing.T) {
	sp := parallelSpace(t)
	declining := modelFunc(func(space.Point, space.Config) (float64, bool) { return 0, false })
	run := func(sur *SurrogateOptions) *Result {
		res, err := Tune(context.Background(), sp,
			search.NewPRO(sp, search.PROOptions{Seed: 5}), parBowl,
			Options{MaxRuns: 40, Surrogate: sur})
		if err != nil {
			t.Fatalf("tune: %v", err)
		}
		return res
	}
	off := run(nil)
	on := run(&SurrogateOptions{Model: declining})
	if on.SurrogateFallbacks == 0 {
		t.Fatal("declining model recorded no fallbacks")
	}
	if on.SurrogatePruned != 0 || on.SurrogateKept != 0 {
		t.Fatalf("declined rounds must not prune or keep: %+v", on)
	}
	if a, b := resultFingerprint(off), resultFingerprint(on); a != b {
		t.Fatalf("fallback changed the session:\noff: %s\non:  %s", a, b)
	}
}

// TestSurrogateSequentialSimplexPrunes covers the rounds-of-one path:
// a sequential strategy's gate group is one proposal, and the
// single-proposal rule prunes points the model ranks confidently
// worse than the committed best.
func TestSurrogateSequentialSimplexPrunes(t *testing.T) {
	sp := parallelSpace(t)
	res, err := Tune(context.Background(), sp,
		search.NewSimplex(sp, search.SimplexOptions{}), parBowl,
		Options{MaxRuns: 60, MaxProposals: 600,
			Surrogate: &SurrogateOptions{Model: perfectModel}})
	if err != nil {
		t.Fatalf("tune: %v", err)
	}
	if res.SurrogatePruned == 0 {
		t.Fatal("simplex session pruned nothing")
	}
	if want, _ := parBowl(context.Background(), res.BestConfig); want != res.BestValue {
		t.Fatalf("BestValue %v is not a measurement (%v)", res.BestValue, want)
	}
}

// scriptedRounds proposes fixed rounds: Ask hands out a round's points
// and stalls until they have all committed, and every committed value
// is kept, in order.
type scriptedRounds struct {
	rounds            [][]space.Point
	reported          []float64
	issued, committed int // of rounds[0]
	done              bool
}

func (s *scriptedRounds) Name() string                       { return "scripted" }
func (s *scriptedRounds) Next() (space.Point, bool)          { return nil, false }
func (s *scriptedRounds) Report(space.Point, float64)        {}
func (s *scriptedRounds) Best() (space.Point, float64, bool) { return nil, 0, false }
func (s *scriptedRounds) Done() bool                         { return s.done }

func (s *scriptedRounds) Ask() (space.Point, bool) {
	if len(s.rounds) == 0 {
		s.done = true
		return nil, false
	}
	if s.issued == len(s.rounds[0]) {
		return nil, false
	}
	s.issued++
	return s.rounds[0][s.issued-1], true
}

func (s *scriptedRounds) Commit(_ space.Point, value float64) {
	s.reported = append(s.reported, value)
	if s.committed++; s.committed == len(s.rounds[0]) {
		s.rounds, s.issued, s.committed = s.rounds[1:], 0, 0
	}
}

// TestSurrogateInRoundDuplicateOfPrunedPoint: a proposal that repeats
// a point pruned earlier in the same round is pruned at the same
// score and never charged, while a repeat of a kept point is an
// ordinary memo hit.
func TestSurrogateInRoundDuplicateOfPrunedPoint(t *testing.T) {
	sp := parallelSpace(t)
	good, bad, worse := space.Point{41, 13, 27}, space.Point{0, 0, 0}, space.Point{60, 60, 60}
	var evals atomic.Int64
	counted := func(ctx context.Context, cfg space.Config) (float64, error) {
		evals.Add(1)
		return parBowl(ctx, cfg)
	}
	for _, workers := range []int{1, 4} {
		evals.Store(0)
		strat := &scriptedRounds{rounds: [][]space.Point{{good, bad, bad, worse, good}}}
		res, err := Tune(context.Background(), sp, strat, counted,
			Options{Workers: workers, RunOverhead: 3, Surrogate: &SurrogateOptions{Model: perfectModel}})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if res.Runs != 1 || evals.Load() != 1 || res.SurrogatePruned != 3 || !res.Converged {
			t.Fatalf("workers=%d: runs=%d evals=%d pruned=%d converged=%t, want 1 run, 1 evaluation, 3 pruned, converged",
				workers, res.Runs, evals.Load(), res.SurrogatePruned, res.Converged)
		}
		first, dup, memo := res.Trials[1], res.Trials[2], res.Trials[4]
		if !first.Pruned || !dup.Pruned || dup.Value != first.Value || dup.Run != 0 || dup.Cached {
			t.Fatalf("workers=%d: duplicate of a pruned point = %+v, want pruned at %v, uncharged", workers, dup, first.Value)
		}
		if memo.Pruned || !memo.Cached || memo.Value != res.Trials[0].Value {
			t.Fatalf("workers=%d: duplicate of the kept point = %+v, want a memo hit", workers, memo)
		}
		if res.TuningCost != res.Trials[0].Value+3 {
			t.Fatalf("workers=%d: TuningCost = %v, want the one measured run %v", workers, res.TuningCost, res.Trials[0].Value+3)
		}
		if len(strat.reported) != 5 || strat.reported[2] != first.Value {
			t.Fatalf("workers=%d: strategy saw %v, want the prediction at position 2", workers, strat.reported)
		}
	}
}

// scoreTable is a surrogate that knows exactly the points of a script
// and declines every other.
type scoreTable map[string]float64

func (m scoreTable) Predict(pt space.Point, _ space.Config) (float64, bool) {
	v, ok := m[pt.Key()]
	return v, ok
}

// measuring returns parBowl and the log of the points it measured, in
// the order the evaluations ran.
func measuring() (Objective, *[]string) {
	var mu sync.Mutex
	var log []string
	return func(ctx context.Context, cfg space.Config) (float64, error) {
		mu.Lock()
		log = append(log, cfg.Format())
		mu.Unlock()
		return parBowl(ctx, cfg)
	}, &log
}

// TestSurrogateRoundQuota: the gate keeps the top keepFraction of a
// round by the scores of the whole round, not candidate by candidate,
// and a round with a member the model declines is simulated whole and
// counts one fallback.
func TestSurrogateRoundQuota(t *testing.T) {
	sp := parallelSpace(t)
	model := scoreTable{}
	var first []space.Point
	for i := int64(1); i <= 10; i++ {
		// Scores 1000, 900, ..., 100: each better than the last, so the
		// single-proposal rule would keep all ten. The quota keeps two.
		pt := space.Point{i, 0, 0}
		first = append(first, pt)
		model[pt.Key()] = float64(1100 - 100*i)
	}
	second := []space.Point{{20, 0, 0}, {21, 0, 0}, {22, 0, 0}} // the model declines {21,0,0}
	model[second[0].Key()], model[second[2].Key()] = 50, 60
	obj, measured := measuring()
	strat := &scriptedRounds{rounds: [][]space.Point{first, second}}
	res, err := Tune(context.Background(), sp, strat, obj, Options{Surrogate: &SurrogateOptions{Model: model}})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"x=10 y=0 z=0", "x=20 y=0 z=0", "x=21 y=0 z=0", "x=22 y=0 z=0", "x=9 y=0 z=0"}
	if slices.Sort(*measured); !slices.Equal(*measured, want) {
		t.Errorf("measured %v, want the quota's best two of round 1 and all of round 2 %v", *measured, want)
	}
	if res.Runs != 5 || res.SurrogateKept != 2 || res.SurrogatePruned != 8 || res.SurrogateFallbacks != 1 {
		t.Errorf("runs/kept/pruned/fallbacks = %d/%d/%d/%d, want 5/2/8/1",
			res.Runs, res.SurrogateKept, res.SurrogatePruned, res.SurrogateFallbacks)
	}
	for i, pt := range first[:8] {
		if strat.reported[i] != model[pt.Key()] {
			t.Errorf("pruned %v reported to the strategy at %v, want its prediction %v", pt, strat.reported[i], model[pt.Key()])
		}
	}
}

// TestSurrogateClassificationOrder pins where the gate stands in the
// one classification order — gate, run budget, cache, work. The
// script proposes, one per round: a first point (always kept), a
// cached point the gate rejects, a cached point the gate keeps, and an
// uncached point the gate rejects only if the kept cached point's
// score was committed.
//
//   - The rejected cached point is pruned, costs no run and is never
//     looked up: the gate decides what is charged, the cache answers
//     only what is charged.
//   - The kept cached point is charged, answered by the cache, and its
//     score is committed — so the last point (score 90 against a
//     committed best of 50, not 100) is pruned too.
func TestSurrogateClassificationOrder(t *testing.T) {
	sp := parallelSpace(t)
	first, rejectedCached, keptCached, last := space.Point{20, 20, 20}, space.Point{0, 0, 0}, space.Point{25, 5, 5}, space.Point{24, 5, 5}
	ec := history.NewEvalCache()
	cache := ec.Bound("bowl", "m", sp)
	cache.Store(rejectedCached, 7)
	cache.Store(keptCached, 8)
	obj, measured := measuring()
	res, err := Tune(context.Background(), sp,
		&scriptedRounds{rounds: [][]space.Point{{first}, {rejectedCached}, {keptCached}, {last}}}, obj,
		Options{Cache: cache, Surrogate: &SurrogateOptions{Model: scoreTable{
			first.Key(): 100, rejectedCached.Key(): 500, keptCached.Key(): 50, last.Key(): 90,
		}}})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"x=20 y=20 z=20"}; !slices.Equal(*measured, want) {
		t.Errorf("measured %v, want %v", *measured, want)
	}
	hits, misses := ec.Counters()
	if res.Runs != 2 || res.SurrogatePruned != 2 || res.SurrogateKept != 2 || hits != 1 || misses != 1 {
		t.Errorf("runs %d, pruned %d, kept %d, cache hits %d, misses %d; want 2, 2, 2, 1 (the kept cached point) and 1 (first)",
			res.Runs, res.SurrogatePruned, res.SurrogateKept, hits, misses)
	}
}

// TestSurrogatePredictionsNeverMeasured: a model whose scores are a
// thousandth of the truth answers every pruned proposal below any
// measurement, yet no prediction reaches the cache, Best, BestConfig,
// BestAtRun, FirstValue or the run cost; only the strategy hears of
// them.
func TestSurrogatePredictionsNeverMeasured(t *testing.T) {
	sp := parallelSpace(t)
	tiny := modelFunc(func(_ space.Point, cfg space.Config) (float64, bool) {
		v, _ := parBowl(context.Background(), cfg)
		return v / 1000, true
	})
	var round []space.Point
	for i := int64(0); i < 10; i++ {
		round = append(round, space.Point{41 - 4*i, 13, 27})
	}
	for _, workers := range []int{1, 4} {
		ec := history.NewEvalCache()
		cache := ec.Bound("bowl", "m", sp)
		strat := &scriptedRounds{rounds: [][]space.Point{round}}
		res, err := Tune(context.Background(), sp, strat, parBowl,
			Options{Workers: workers, RunOverhead: 3, Cache: cache, Surrogate: &SurrogateOptions{Model: tiny}})
		if err != nil {
			t.Fatal(err)
		}
		if res.SurrogatePruned != 8 || res.Runs != 2 {
			t.Fatalf("workers=%d: pruned %d, runs %d; want the quota's 8 and 2", workers, res.SurrogatePruned, res.Runs)
		}
		// The kept two are the best-scored: {41,13,27} (1) and {37,13,27} (17).
		if res.BestValue != 1 || res.FirstValue != 1 || res.TuningCost != 1+17+2*3 {
			t.Errorf("workers=%d: best %v, first %v, cost %v; want the measured 1, 1 and 24",
				workers, res.BestValue, res.FirstValue, res.TuningCost)
		}
		if want := sp.MustDecode(round[0]).Format(); res.BestAtRun != 1 || res.BestConfig.Format() != want {
			t.Errorf("workers=%d: best %s at run %d; want the measured %s at run 1",
				workers, res.BestConfig.Format(), res.BestAtRun, want)
		}
		a, _ := cache.Lookup(round[0])
		b, _ := cache.Lookup(round[1])
		if ec.Len() != 2 || a != 1 || b != 17 {
			t.Errorf("workers=%d: cache holds %d entries (%v, %v), want only the two measurements 1 and 17", workers, ec.Len(), a, b)
		}
		for i, v := range strat.reported[2:] {
			if want, _ := tiny.Predict(round[i+2], sp.MustDecode(round[i+2])); v != want {
				t.Errorf("workers=%d: pruned %v reported at %v, want its prediction %v", workers, round[i+2], v, want)
			}
		}
	}
}

// endlessRounds proposes a fresh point in every round of one and never
// converges; asks counts how often it was asked.
type endlessRounds struct {
	scriptedRounds
	asks     int
	inFlight bool
}

func (s *endlessRounds) Ask() (space.Point, bool) {
	if s.inFlight {
		return nil, false
	}
	s.asks++
	s.inFlight = true
	return space.Point{int64(s.asks % 61), int64(s.asks / 61 % 61), 0}, true
}

func (s *endlessRounds) Commit(space.Point, float64) { s.inFlight = false }

// TestSurrogateRunawayGuard: a model that rejects everything after the
// first proposal costs no run, so the run budget alone would let Tune
// ask forever. The proposal cap — ten proposals per budgeted run —
// ends it: the strategy is asked exactly that often and one
// configuration is measured.
func TestSurrogateRunawayGuard(t *testing.T) {
	const maxRuns = 3
	n := 0.0
	rising := modelFunc(func(space.Point, space.Config) (float64, bool) { n++; return 100 * n, true })
	strat := &endlessRounds{}
	res, err := Tune(context.Background(), parallelSpace(t), strat, parBowl,
		Options{MaxRuns: maxRuns, Surrogate: &SurrogateOptions{Model: rising}})
	if err != nil {
		t.Fatal(err)
	}
	if want := DefaultMaxProposals(maxRuns); strat.asks != want || res.Proposals != want {
		t.Errorf("strategy asked %d times, %d proposals; want the cap %d", strat.asks, res.Proposals, want)
	}
	if res.Runs != 1 || res.SurrogatePruned != res.Proposals-1 {
		t.Errorf("runs %d, pruned %d of %d proposals: want one run, the rest pruned", res.Runs, res.SurrogatePruned, res.Proposals)
	}
}
