package core

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"harmony/internal/history"
	"harmony/internal/search"
	"harmony/internal/space"
)

func asyncStrategies(sp *space.Space) map[string]func() search.Strategy {
	return map[string]func() search.Strategy{
		"simplex": func() search.Strategy {
			return search.NewSimplex(sp, search.SimplexOptions{Restarts: 3})
		},
		"pro":    func() search.Strategy { return search.NewPRO(sp, search.PROOptions{Seed: 17}) },
		"random": func() search.Strategy { return search.NewRandom(sp, 17, 150) },
		"ensemble": func() search.Strategy {
			return search.NewEnsemble(sp, search.EnsembleOptions{Seed: 17, Budget: 150})
		},
	}
}

// TestTuneAsyncDeterministicAcrossWorkers pins the headline property
// of an Async session: the issue/commit trace depends on AsyncDepth
// and the strategy, never on Workers, so the accounts, the trial log
// and the starvation counters are identical for 1, 4, and 8 workers.
func TestTuneAsyncDeterministicAcrossWorkers(t *testing.T) {
	sp := parallelSpace(t)
	for name, mk := range asyncStrategies(sp) {
		t.Run(name, func(t *testing.T) {
			const maxRuns = 60
			var fingerprints []string
			var results []*Result
			for _, workers := range []int{1, 4, 8} {
				res, err := Tune(context.Background(), sp, mk(), parBowl,
					Options{MaxRuns: maxRuns, RunOverhead: 3, Workers: workers, Async: true})
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if res.Runs > maxRuns {
					t.Fatalf("workers=%d: %d runs exceed MaxRuns=%d", workers, res.Runs, maxRuns)
				}
				fingerprints = append(fingerprints, resultFingerprint(res))
				results = append(results, res)
			}
			for i := 1; i < len(fingerprints); i++ {
				if fingerprints[i] != fingerprints[0] {
					t.Fatalf("accounting differs across worker counts:\n  workers=1: %s\n  other:     %s",
						fingerprints[0], fingerprints[i])
				}
			}
			for i := range results[0].Trials {
				a, b := results[0].Trials[i], results[2].Trials[i]
				if !a.Point.Equal(b.Point) || a.Value != b.Value || a.Run != b.Run || a.Cached != b.Cached {
					t.Fatalf("trial %d differs: workers=1 %+v, workers=8 %+v", i, a, b)
				}
			}
			if results[0].QueueStarved != results[2].QueueStarved || results[0].IdleSlots != results[2].IdleSlots {
				t.Fatalf("starvation counters differ across workers: (%d,%d) vs (%d,%d)",
					results[0].QueueStarved, results[0].IdleSlots,
					results[2].QueueStarved, results[2].IdleSlots)
			}
		})
	}
}

// TestTuneAsyncMatchesSequentialTune verifies that pipelining is a
// wall-clock optimisation, not a semantic change: for strategies
// whose batch view replays the sequential state machine, an Async
// session reproduces the reference loop's accounting exactly.
func TestTuneAsyncMatchesSequentialTune(t *testing.T) {
	sp := parallelSpace(t)
	for _, name := range []string{"simplex", "pro", "random"} {
		mk := asyncStrategies(sp)[name]
		t.Run(name, func(t *testing.T) {
			opt := Options{MaxRuns: 50, RunOverhead: 1}
			seq, err := referenceTune(context.Background(), sp, mk(), parBowl, opt)
			if err != nil {
				t.Fatal(err)
			}
			opt.Workers, opt.Async = 4, true
			async, err := Tune(context.Background(), sp, mk(), parBowl, opt)
			if err != nil {
				t.Fatal(err)
			}
			sameCampaign(t, name, async, seq)
		})
	}
}

// TestTuneAsyncFailuresMemoised verifies failed runs are charged the
// overhead, memoised, and replayed to duplicate proposals exactly as
// in the reference loop.
func TestTuneAsyncFailuresMemoised(t *testing.T) {
	sp := parallelSpace(t)
	boom := errors.New("boom")
	obj := func(ctx context.Context, cfg space.Config) (float64, error) {
		if cfg.Int("x")%2 == 1 {
			return 0, boom
		}
		return parBowl(ctx, cfg)
	}
	mk := func() search.Strategy { return search.NewPRO(sp, search.PROOptions{Seed: 5}) }
	seq, err := referenceTune(context.Background(), sp, mk(), obj, Options{MaxRuns: 40, RunOverhead: 2})
	if err != nil {
		t.Fatal(err)
	}
	async, err := Tune(context.Background(), sp, mk(), obj,
		Options{MaxRuns: 40, RunOverhead: 2, Workers: 4, Async: true})
	if err != nil {
		t.Fatal(err)
	}
	if async.Failures == 0 {
		t.Fatal("objective failures never reached the Async session")
	}
	sameCampaign(t, "failures", async, seq)
}

// TestTuneAsyncEvalCacheTransparent verifies Options.Cache changes
// only the CacheHits/CacheMisses diagnostics of an Async session,
// exactly as for a round-at-a-time one.
func TestTuneAsyncEvalCacheTransparent(t *testing.T) {
	sp := parallelSpace(t)
	mk := func() search.Strategy { return search.NewPRO(sp, search.PROOptions{Seed: 9}) }
	opt := Options{MaxRuns: 40, RunOverhead: 2, Workers: 4, Async: true}
	bare, err := Tune(context.Background(), sp, mk(), parBowl, opt)
	if err != nil {
		t.Fatal(err)
	}
	cache := history.NewEvalCache().BoundNS("bowl", "m", "", sp)
	opt.Cache = cache
	cold, err := Tune(context.Background(), sp, mk(), parBowl, opt)
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	counted := func(ctx context.Context, cfg space.Config) (float64, error) {
		calls.Add(1)
		return parBowl(ctx, cfg)
	}
	warm, err := Tune(context.Background(), sp, mk(), counted, opt)
	if err != nil {
		t.Fatal(err)
	}
	sameCampaign(t, "cold cache", cold, bare)
	sameCampaign(t, "warm cache", warm, bare)
	if calls.Load() != 0 {
		t.Fatalf("warm cache still invoked the objective %d times", calls.Load())
	}
	if warm.CacheHits != warm.Runs {
		t.Fatalf("warm run: CacheHits=%d, want %d (every run answered)", warm.CacheHits, warm.Runs)
	}
}

// TestTuneAsyncSurrogatePerCandidate verifies the surrogate gate
// screens every candidate of an Async session individually: pruned
// proposals carry the prediction in the trial log but are invisible
// to Runs, TuningCost, Best, and the evaluation cache — the PR 8
// invariants, per candidate instead of per round.
func TestTuneAsyncSurrogatePerCandidate(t *testing.T) {
	sp := parallelSpace(t)
	var evals atomic.Int64
	counted := func(ctx context.Context, cfg space.Config) (float64, error) {
		evals.Add(1)
		return parBowl(ctx, cfg)
	}
	cache := history.NewEvalCache().BoundNS("bowl", "m", "", sp)
	res, err := Tune(context.Background(), sp,
		search.NewPRO(sp, search.PROOptions{Seed: 17}), counted,
		Options{MaxRuns: 200, MaxProposals: 200, RunOverhead: 3, Workers: 4, Async: true,
			Cache:     cache,
			Surrogate: &SurrogateOptions{Model: perfectModel}})
	if err != nil {
		t.Fatal(err)
	}
	if res.SurrogatePruned == 0 {
		t.Fatal("perfect model pruned nothing")
	}
	if int(evals.Load()) != res.Runs {
		t.Fatalf("objective ran %d times, Runs=%d", evals.Load(), res.Runs)
	}
	var cost float64
	for _, tr := range res.Trials {
		if tr.Pruned {
			if tr.Run != 0 || tr.Cached {
				t.Fatalf("pruned trial charged: %+v", tr)
			}
			if _, ok := cache.Lookup(tr.Point); ok {
				t.Fatalf("pruned point %v stored in the evaluation cache", tr.Point)
			}
			continue
		}
		if tr.Run > 0 && tr.Err == nil {
			cost += tr.Value + 3
		}
	}
	if math.Abs(cost-res.TuningCost) > 1e-9 {
		t.Fatalf("TuningCost %v does not equal the sum of measured trials %v", res.TuningCost, cost)
	}
	best, ok := cache.Lookup(res.Best)
	if !ok || best != res.BestValue {
		t.Fatalf("Best %v (%v) not backed by a cached measurement (%v, %v)", res.Best, res.BestValue, best, ok)
	}
}

// TestTuneAsyncStarvationObservable verifies the satellite's point:
// the sequential simplex starves the pipeline (it can justify one
// candidate at a time) and the counters say so, while the ensemble
// keeps the queue fed.
func TestTuneAsyncStarvationObservable(t *testing.T) {
	sp := parallelSpace(t)
	opt := Options{MaxRuns: 60, Workers: 4, Async: true}
	simplex, err := Tune(context.Background(), sp,
		search.NewSimplex(sp, search.SimplexOptions{Restarts: 3}), parBowl, opt)
	if err != nil {
		t.Fatal(err)
	}
	ensemble, err := Tune(context.Background(), sp,
		search.NewEnsemble(sp, search.EnsembleOptions{Seed: 17, Budget: 150}), parBowl, opt)
	if err != nil {
		t.Fatal(err)
	}
	if simplex.QueueStarved == 0 || simplex.IdleSlots == 0 {
		t.Fatalf("sequential simplex did not starve the pipeline: starved=%d idle=%d",
			simplex.QueueStarved, simplex.IdleSlots)
	}
	if ensemble.IdleSlots >= simplex.IdleSlots {
		t.Fatalf("ensemble idle slots (%d) not below simplex (%d): the bandit is not feeding the queue",
			ensemble.IdleSlots, simplex.IdleSlots)
	}
}

// TestOneDeepWindowNeverStarves is the negative case beside
// TestTuneAsyncStarvationObservable: a window one deep has no slot to
// leave idle, so even the stalling simplex counts no starved pass,
// whether the depth comes from one worker or from AsyncDepth 1.
func TestOneDeepWindowNeverStarves(t *testing.T) {
	sp := parallelSpace(t)
	for _, opt := range []Options{
		{MaxRuns: 60, Workers: 1},
		{MaxRuns: 60, Workers: 1, Async: true, AsyncDepth: 1},
		{MaxRuns: 60, Workers: 4, Async: true, AsyncDepth: 1},
	} {
		res, err := Tune(context.Background(), sp,
			search.NewSimplex(sp, search.SimplexOptions{Restarts: 3}), parBowl, opt)
		if err != nil {
			t.Fatal(err)
		}
		if res.Runs == 0 || res.QueueStarved != 0 || res.IdleSlots != 0 {
			t.Errorf("workers %d, async %v, depth %d: %d runs, starved=%d idle=%d, want no starved pass",
				opt.Workers, opt.Async, opt.AsyncDepth, res.Runs, res.QueueStarved, res.IdleSlots)
		}
	}
}

// TestTuneAsyncOccupancy verifies WorkerOccupancy lands in (0, 1] and
// rises with a second worker when evaluations genuinely overlap.
func TestTuneAsyncOccupancy(t *testing.T) {
	sp := parallelSpace(t)
	slow := func(ctx context.Context, cfg space.Config) (float64, error) {
		time.Sleep(200 * time.Microsecond)
		return parBowl(ctx, cfg)
	}
	res, err := Tune(context.Background(), sp,
		search.NewPRO(sp, search.PROOptions{Seed: 17}), slow,
		Options{MaxRuns: 40, Workers: 4, Async: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.WorkerOccupancy <= 0 || res.WorkerOccupancy > 1 {
		t.Fatalf("WorkerOccupancy %v outside (0, 1]", res.WorkerOccupancy)
	}
}

// TestTuneAsyncContextCancel verifies a cancelled session returns
// ctx.Err() and drains its workers.
func TestTuneAsyncContextCancel(t *testing.T) {
	sp := parallelSpace(t)
	ctx, cancel := context.WithCancel(context.Background())
	var n atomic.Int64
	obj := func(ctx context.Context, cfg space.Config) (float64, error) {
		if n.Add(1) == 5 {
			cancel()
		}
		select {
		case <-ctx.Done():
			return 0, ctx.Err()
		case <-time.After(time.Millisecond):
		}
		return parBowl(ctx, cfg)
	}
	_, err := Tune(ctx, sp, search.NewPRO(sp, search.PROOptions{Seed: 17}), obj,
		Options{MaxRuns: 500, Workers: 4, Async: true})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestTuneAsyncSpeculativeSimplex verifies an Async session
// prefetches a stalled simplex's follow-up candidates and charges a
// consumed prefetch exactly like an on-demand run.
func TestTuneAsyncSpeculativeSimplex(t *testing.T) {
	sp := parallelSpace(t)
	res, err := Tune(context.Background(), sp,
		search.NewSimplex(sp, search.SimplexOptions{Restarts: 3}), parBowl,
		Options{MaxRuns: 60, Workers: 4, Async: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.SpeculativeRuns == 0 {
		t.Fatal("no speculative prefetches were launched for a stalled simplex")
	}
	if res.SpeculativeHits == 0 {
		t.Fatal("no speculative prefetch was ever consumed")
	}
}
