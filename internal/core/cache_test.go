package core

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"testing"

	"harmony/internal/history"
	"harmony/internal/search"
	"harmony/internal/space"
)

// countingBowl wraps bowl with an invocation counter so tests can
// prove the objective was (not) re-run.
func countingBowl(calls *atomic.Int64) Objective {
	return func(ctx context.Context, cfg space.Config) (float64, error) {
		calls.Add(1)
		return bowl(ctx, cfg)
	}
}

// sameCampaign asserts that two results describe the identical
// campaign, account by account and trial by trial on exact float
// bits: caches, worker counts and Async may change only diagnostics
// (CacheHits/CacheMisses, speculation, starvation, occupancy), never
// the accounts the paper's cost model reports.
func sameCampaign(t *testing.T, label string, got, want *Result) {
	t.Helper()
	bits := math.Float64bits
	if got.Runs != want.Runs || got.Proposals != want.Proposals || got.Failures != want.Failures || got.Converged != want.Converged {
		t.Errorf("%s: (Runs, Proposals, Failures, Converged) = (%d, %d, %d, %t), want (%d, %d, %d, %t)",
			label, got.Runs, got.Proposals, got.Failures, got.Converged, want.Runs, want.Proposals, want.Failures, want.Converged)
	}
	if !got.Best.Equal(want.Best) || bits(got.BestValue) != bits(want.BestValue) || got.BestAtRun != want.BestAtRun {
		t.Errorf("%s: best (%v, %v, run %d), want (%v, %v, run %d)",
			label, got.Best, got.BestValue, got.BestAtRun, want.Best, want.BestValue, want.BestAtRun)
	}
	if bits(got.FirstValue) != bits(want.FirstValue) || bits(got.TuningCost) != bits(want.TuningCost) {
		t.Errorf("%s: (FirstValue, TuningCost) = (%v, %v), want (%v, %v)",
			label, got.FirstValue, got.TuningCost, want.FirstValue, want.TuningCost)
	}
	if len(got.Trials) != len(want.Trials) {
		t.Fatalf("%s: %d trials, want %d", label, len(got.Trials), len(want.Trials))
	}
	for i := range want.Trials {
		g, w := got.Trials[i], want.Trials[i]
		if g.Proposal != w.Proposal || g.Run != w.Run || !g.Point.Equal(w.Point) ||
			bits(g.Value) != bits(w.Value) || g.Cached != w.Cached || (g.Err != nil) != (w.Err != nil) {
			t.Fatalf("%s: trial %d = {proposal %d run %d pt %v v %v cached %t err %v}, want {proposal %d run %d pt %v v %v cached %t err %v}",
				label, i, g.Proposal, g.Run, g.Point, g.Value, g.Cached, g.Err, w.Proposal, w.Run, w.Point, w.Value, w.Cached, w.Err)
		}
	}
}

// TestTuneEvalCacheTransparent runs the same campaign uncached, with
// a cold cache, and with the cache warmed by the cold run, and
// requires bit-identical results each time. The warm run must answer
// every evaluation from the cache without invoking the objective.
func TestTuneEvalCacheTransparent(t *testing.T) {
	sp := bowlSpace(t)
	newStrat := func() search.Strategy { return search.NewSimplex(sp, search.SimplexOptions{}) }
	opt := Options{RunOverhead: 2}

	base, err := Tune(context.Background(), sp, newStrat(), bowl, opt)
	if err != nil {
		t.Fatalf("Tune (uncached): %v", err)
	}

	cache := history.NewEvalCache().Bound("bowl", "m", sp)
	optCold := opt
	optCold.Cache = cache
	cold, err := Tune(context.Background(), sp, newStrat(), bowl, optCold)
	if err != nil {
		t.Fatalf("Tune (cold cache): %v", err)
	}
	sameCampaign(t, "cold", cold, base)
	if cold.CacheHits != 0 || cold.CacheMisses != cold.Runs {
		t.Errorf("cold: (CacheHits, CacheMisses) = (%d, %d), want (0, %d)", cold.CacheHits, cold.CacheMisses, cold.Runs)
	}

	var calls atomic.Int64
	warm, err := Tune(context.Background(), sp, newStrat(), countingBowl(&calls), optCold)
	if err != nil {
		t.Fatalf("Tune (warm cache): %v", err)
	}
	sameCampaign(t, "warm", warm, base)
	if warm.CacheHits != warm.Runs || warm.CacheMisses != 0 {
		t.Errorf("warm: (CacheHits, CacheMisses) = (%d, %d), want (%d, 0)", warm.CacheHits, warm.CacheMisses, warm.Runs)
	}
	if calls.Load() != 0 {
		t.Errorf("warm run invoked the objective %d times, want 0", calls.Load())
	}
}

// TestTuneParallelEvalCacheTransparent is the same contract for
// whole rounds at several worker counts: the warm-cache campaign
// is identical to the uncached baseline and runs nothing.
func TestTuneParallelEvalCacheTransparent(t *testing.T) {
	sp := bowlSpace(t)
	opt := Options{MaxRuns: 60, RunOverhead: 1}
	newStrat := func() search.Strategy {
		return search.NewPRO(sp, search.PROOptions{Seed: 7})
	}

	base, err := Tune(context.Background(), sp, newStrat(), bowl, opt)
	if err != nil {
		t.Fatalf("Tune (uncached): %v", err)
	}

	for _, workers := range []int{1, 4} {
		cache := history.NewEvalCache().Bound("bowl", "m", sp)
		copt := opt
		copt.Cache = cache
		copt.Workers = workers
		cold, err := Tune(context.Background(), sp, newStrat(), bowl, copt)
		if err != nil {
			t.Fatalf("Tune (cold, workers=%d): %v", workers, err)
		}
		sameCampaign(t, "cold", cold, base)
		if cold.CacheHits != 0 {
			t.Errorf("workers=%d cold: CacheHits = %d, want 0", workers, cold.CacheHits)
		}

		var calls atomic.Int64
		warm, err := Tune(context.Background(), sp, newStrat(), countingBowl(&calls), copt)
		if err != nil {
			t.Fatalf("Tune (warm, workers=%d): %v", workers, err)
		}
		sameCampaign(t, "warm", warm, base)
		if warm.CacheHits != warm.Runs {
			t.Errorf("workers=%d warm: CacheHits = %d, want %d", workers, warm.CacheHits, warm.Runs)
		}
		if calls.Load() != 0 {
			t.Errorf("workers=%d warm run invoked the objective %d times, want 0", workers, calls.Load())
		}
	}
}

// TestTuneCacheNeverStoresFailures: a failing configuration must be
// re-attempted (and fail identically) on replay rather than serve a
// bogus cached value.
func TestTuneCacheNeverStoresFailures(t *testing.T) {
	sp := bowlSpace(t)
	boom := errors.New("boom")
	obj := func(_ context.Context, cfg space.Config) (float64, error) {
		if cfg.Int("x")%2 == 1 {
			return 0, boom
		}
		return bowl(context.Background(), cfg)
	}
	cache := history.NewEvalCache().Bound("bowl", "m", sp)
	opt := Options{MaxRuns: 30, Cache: cache}
	first, err := Tune(context.Background(), sp, search.NewSimplex(sp, search.SimplexOptions{}), obj, opt)
	if err != nil {
		t.Fatalf("Tune: %v", err)
	}
	if first.Failures == 0 {
		t.Fatal("campaign had no failures; test needs at least one")
	}
	second, err := Tune(context.Background(), sp, search.NewSimplex(sp, search.SimplexOptions{}), obj, opt)
	if err != nil {
		t.Fatalf("Tune (replay): %v", err)
	}
	sameCampaign(t, "replay", second, first)
	if second.Failures != first.Failures {
		t.Errorf("replay Failures = %d, want %d", second.Failures, first.Failures)
	}
}
