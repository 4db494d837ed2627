package core

import (
	"context"
	"math"
	"sync/atomic"
	"testing"

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
		want, _ := parBowl(context.Background(), tr.Config)
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

// scriptedRounds is a BatchStrategy that proposes fixed rounds.
type scriptedRounds struct {
	rounds   [][]space.Point
	reported []float64
}

func (s *scriptedRounds) Name() string                       { return "scripted" }
func (s *scriptedRounds) Next() (space.Point, bool)          { return nil, false }
func (s *scriptedRounds) Report(space.Point, float64)        {}
func (s *scriptedRounds) Best() (space.Point, float64, bool) { return nil, 0, false }

func (s *scriptedRounds) NextBatch() []space.Point {
	if len(s.rounds) == 0 {
		return nil
	}
	return s.rounds[0]
}

func (s *scriptedRounds) ReportBatch(_ []space.Point, values []float64) {
	s.rounds = s.rounds[1:]
	s.reported = append(s.reported, values...)
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
