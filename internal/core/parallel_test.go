package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"harmony/internal/history"
	"harmony/internal/search"
	"harmony/internal/space"
)

func parallelSpace(t *testing.T) *space.Space {
	t.Helper()
	return space.MustNew(
		space.IntParam("x", 0, 60, 1),
		space.IntParam("y", 0, 60, 1),
		space.IntParam("z", 0, 60, 1),
	)
}

// parBowl is a deterministic, concurrency-safe objective with a unique
// optimum.
func parBowl(_ context.Context, cfg space.Config) (float64, error) {
	dx := float64(cfg.Int("x") - 41)
	dy := float64(cfg.Int("y") - 13)
	dz := float64(cfg.Int("z") - 27)
	return dx*dx + dy*dy + dz*dz + 1, nil
}

// resultFingerprint compresses the determinism-relevant accounting.
func resultFingerprint(r *Result) string {
	return fmt.Sprintf("runs=%d proposals=%d failures=%d best=%.9g@%d first=%.9g cost=%.9g trials=%d",
		r.Runs, r.Proposals, r.Failures, r.BestValue, r.BestAtRun, r.FirstValue, r.TuningCost, len(r.Trials))
}

// TestTuneParallelDeterministicAcrossWorkers verifies the engine's
// headline property: with a fixed seed, Tune produces identical
// accounting — same BestValue, same Runs, same trial
// sequence — for 1 and 8 workers, for PRO and random search, and
// never exceeds MaxRuns.
func TestTuneParallelDeterministicAcrossWorkers(t *testing.T) {
	sp := parallelSpace(t)
	strategies := map[string]func() search.Strategy{
		"pro":    func() search.Strategy { return search.NewPRO(sp, search.PROOptions{Seed: 17}) },
		"random": func() search.Strategy { return search.NewRandom(sp, 17, 200) },
	}
	for name, mk := range strategies {
		t.Run(name, func(t *testing.T) {
			const maxRuns = 70
			var fingerprints []string
			var trials [][]Trial
			for _, workers := range []int{1, 8} {
				res, err := Tune(context.Background(), sp, mk(), parBowl,
					Options{MaxRuns: maxRuns, RunOverhead: 3, Workers: workers})
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if res.Runs > maxRuns {
					t.Fatalf("workers=%d: %d runs exceed MaxRuns=%d", workers, res.Runs, maxRuns)
				}
				fingerprints = append(fingerprints, resultFingerprint(res))
				trials = append(trials, res.Trials)
			}
			if fingerprints[0] != fingerprints[1] {
				t.Fatalf("accounting differs across worker counts:\n  workers=1: %s\n  workers=8: %s",
					fingerprints[0], fingerprints[1])
			}
			for i := range trials[0] {
				a, b := trials[0][i], trials[1][i]
				if !a.Point.Equal(b.Point) || a.Value != b.Value || a.Run != b.Run || a.Cached != b.Cached {
					t.Fatalf("trial %d differs: workers=1 %+v, workers=8 %+v", i, a, b)
				}
			}
		})
	}
}

// TestTuneParallelMatchesSequentialTune verifies that issuing a whole
// round at once reproduces the reference sequential loop's accounting
// exactly for natively batched strategies: batching is a wall-clock
// optimisation, not a semantic change.
func TestTuneParallelMatchesSequentialTune(t *testing.T) {
	sp := parallelSpace(t)
	for _, name := range []string{"pro", "random"} {
		t.Run(name, func(t *testing.T) {
			mk := func() search.Strategy {
				if name == "pro" {
					return search.NewPRO(sp, search.PROOptions{Seed: 3})
				}
				return search.NewRandom(sp, 3, 120)
			}
			opt := Options{MaxRuns: 50, RunOverhead: 1}
			seq, err := referenceTune(context.Background(), sp, mk(), parBowl, opt)
			if err != nil {
				t.Fatal(err)
			}
			opt.Workers = 4
			par, err := Tune(context.Background(), sp, mk(), parBowl, opt)
			if err != nil {
				t.Fatal(err)
			}
			if resultFingerprint(seq) != resultFingerprint(par) {
				t.Fatalf("parallel accounting diverges from sequential:\n  sequential: %s\n  parallel:   %s",
					resultFingerprint(seq), resultFingerprint(par))
			}
		})
	}
}

// TestTuneParallelInFlightDedup verifies that duplicate lattice
// points inside one round cost a single application run: followers
// are recorded as cache hits.
func TestTuneParallelInFlightDedup(t *testing.T) {
	sp := space.MustNew(space.IntParam("x", 0, 3, 1))
	// A tiny space forces the PRO population (min size 4) to snap
	// several members onto the same lattice points every round.
	var calls atomic.Int64
	seen := make(map[string]bool)
	var mu sync.Mutex
	obj := func(_ context.Context, cfg space.Config) (float64, error) {
		calls.Add(1)
		mu.Lock()
		key := cfg.Format()
		if seen[key] {
			mu.Unlock()
			return 0, fmt.Errorf("point %s evaluated twice", key)
		}
		seen[key] = true
		mu.Unlock()
		v := float64(cfg.Int("x") - 2)
		return v*v + 1, nil
	}
	res, err := Tune(context.Background(), sp,
		search.NewPRO(sp, search.PROOptions{Seed: 1}), obj,
		Options{MaxRuns: 10, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures > 0 {
		t.Fatalf("%d duplicate evaluations slipped past the in-flight dedup", res.Failures)
	}
	if int(calls.Load()) != res.Runs {
		t.Fatalf("objective called %d times for %d charged runs", calls.Load(), res.Runs)
	}
	if res.Runs > 4 {
		t.Fatalf("%d runs on a 4-point space", res.Runs)
	}
}

// TestTuneParallelSpeculativeSimplex verifies the speculative simplex
// path: with spare workers the engine prefetches expansion and
// contraction candidates, the search trajectory and charged accounting
// are identical to the reference sequential loop, and the speculation
// is visible in the result.
func TestTuneParallelSpeculativeSimplex(t *testing.T) {
	sp := parallelSpace(t)
	mk := func() search.Strategy {
		return search.NewSimplex(sp, search.SimplexOptions{Restarts: 2})
	}
	opt := Options{MaxRuns: 60, RunOverhead: 2}
	seq, err := referenceTune(context.Background(), sp, mk(), parBowl, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Workers = 4
	par, err := Tune(context.Background(), sp, mk(), parBowl, opt)
	if err != nil {
		t.Fatal(err)
	}
	if resultFingerprint(seq) != resultFingerprint(par) {
		t.Fatalf("speculation changed the charged accounting:\n  sequential: %s\n  speculative: %s",
			resultFingerprint(seq), resultFingerprint(par))
	}
	if par.SpeculativeRuns == 0 {
		t.Fatal("no speculative evaluations were launched with 4 workers")
	}
	if par.SpeculativeHits == 0 {
		t.Fatal("no speculative evaluation was ever used; the simplex always follows a reflection with expansion or contraction")
	}
	one, err := Tune(context.Background(), sp, mk(), parBowl, Options{MaxRuns: 60, RunOverhead: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if one.SpeculativeRuns != 0 || one.SpeculativeHits != 0 {
		t.Fatalf("a single worker speculated: %d/%d", one.SpeculativeRuns, one.SpeculativeHits)
	}
}

// TestTuneChargesOverheadForFailedRuns is the regression test for the
// cost-accounting fix: failed runs still pay launch and teardown, at
// every worker count, per the paper's "all costs ... into
// consideration".
func TestTuneChargesOverheadForFailedRuns(t *testing.T) {
	sp := space.MustNew(space.IntParam("x", 0, 9, 1))
	failing := errors.New("configuration crashed")
	obj := func(_ context.Context, cfg space.Config) (float64, error) {
		if cfg.Int("x")%2 == 1 {
			return 0, failing
		}
		return float64(cfg.Int("x")) + 10, nil
	}
	const overhead = 5.0
	for _, workers := range []int{1, 3} {
		res, err := Tune(context.Background(), sp,
			search.NewExhaustive(sp), obj,
			Options{RunOverhead: overhead, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if res.Failures != 5 {
			t.Fatalf("workers=%d: %d failures, want 5", workers, res.Failures)
		}
		var wantCost float64
		for x := 0; x <= 9; x++ {
			wantCost += overhead // every run launches
			if x%2 == 0 {
				wantCost += float64(x) + 10
			}
		}
		if math.Abs(res.TuningCost-wantCost) > 1e-9 {
			t.Fatalf("workers=%d: TuningCost=%v, want %v (failures must be charged RunOverhead)", workers, res.TuningCost, wantCost)
		}
	}
	// Workers unset must agree.
	res, err := Tune(context.Background(), sp, search.NewExhaustive(sp), obj, Options{RunOverhead: overhead})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.TuningCost-(5*(overhead)+5*overhead+10+12+14+16+18)) > 1e-9 {
		t.Fatalf("sequential TuningCost=%v does not charge overhead for failures", res.TuningCost)
	}
}

// TestTuneParallelContextCancel verifies cancellation surfaces as the
// context error.
func TestTuneParallelContextCancel(t *testing.T) {
	sp := parallelSpace(t)
	ctx, cancel := context.WithCancel(context.Background())
	var calls atomic.Int64
	obj := func(c context.Context, cfg space.Config) (float64, error) {
		if calls.Add(1) == 3 {
			cancel()
		}
		select {
		case <-c.Done():
			return 0, c.Err()
		case <-time.After(time.Millisecond):
		}
		return parBowl(c, cfg)
	}
	_, err := Tune(ctx, sp, search.NewPRO(sp, search.PROOptions{Seed: 1}), obj,
		Options{MaxRuns: 100, Workers: 4})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestTuneParallelRaceStress drives many workers against a shared
// objective to give the race detector surface area; run with -race.
func TestTuneParallelRaceStress(t *testing.T) {
	sp := parallelSpace(t)
	var concurrent, peak atomic.Int64
	obj := func(c context.Context, cfg space.Config) (float64, error) {
		cur := concurrent.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		time.Sleep(200 * time.Microsecond)
		concurrent.Add(-1)
		return parBowl(c, cfg)
	}
	res, err := Tune(context.Background(), sp,
		search.NewPRO(sp, search.PROOptions{Seed: 5}), obj,
		Options{MaxRuns: 64, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs == 0 || res.Runs > 64 {
		t.Fatalf("runs = %d", res.Runs)
	}
	if peak.Load() < 2 {
		t.Fatalf("peak concurrency %d; the pool never overlapped evaluations", peak.Load())
	}
	if peak.Load() > 8 {
		t.Fatalf("peak concurrency %d exceeds the 8-worker pool", peak.Load())
	}
}

// TestConcurrentTunesShareNothing runs eight different campaigns at
// once, three times each — the round engine, Async with a cache, the
// surrogate gate, a speculating simplex — so that their pooled scratch
// passes between them, and requires every Result to equal the
// campaign's sequential run in every deterministic field. Each campaign
// measures its own shift of the bowl, so a value that leaks from one
// campaign into another shows.
func TestConcurrentTunesShareNothing(t *testing.T) {
	sp := parallelSpace(t)
	cache := func() PointCache { return history.NewEvalCache().Bound("bowl", "m", sp) }
	surrogate := &SurrogateOptions{Model: perfectModel}
	campaigns := []struct {
		name  string
		strat func() search.Strategy
		opt   func() Options
	}{
		{"pro rounds",
			func() search.Strategy { return search.NewPRO(sp, search.PROOptions{Seed: 17}) },
			func() Options { return Options{MaxRuns: 60, Workers: 2} }},
		{"random rounds",
			func() search.Strategy { return search.NewRandom(sp, 17, 80) },
			func() Options { return Options{MaxRuns: 60, Workers: 3} }},
		{"ensemble rounds cached",
			func() search.Strategy { return search.NewEnsemble(sp, search.EnsembleOptions{Seed: 31, Budget: 80}) },
			func() Options { return Options{MaxRuns: 80, Workers: 4, Cache: cache()} }},
		{"ensemble async cached",
			func() search.Strategy { return search.NewEnsemble(sp, search.EnsembleOptions{Seed: 17, Budget: 80}) },
			func() Options { return Options{MaxRuns: 80, Workers: 2, Async: true, AsyncDepth: 4, Cache: cache()} }},
		{"pro rounds surrogate",
			func() search.Strategy { return search.NewPRO(sp, search.PROOptions{Seed: 29}) },
			func() Options { return Options{MaxRuns: 60, Workers: 2, Surrogate: surrogate} }},
		{"pro async cached surrogate",
			func() search.Strategy { return search.NewPRO(sp, search.PROOptions{Seed: 23}) },
			func() Options {
				return Options{MaxRuns: 60, MaxProposals: 200, Workers: 2, Async: true, Cache: cache(), Surrogate: surrogate}
			}},
		// Both budgets end the campaign with a prefetch still waiting.
		{"simplex speculating",
			func() search.Strategy { return search.NewSimplex(sp, search.SimplexOptions{Restarts: 2}) },
			func() Options { return Options{MaxRuns: 40, Workers: 2} }},
		{"simplex async speculating",
			func() search.Strategy { return search.NewSimplex(sp, search.SimplexOptions{Restarts: 2}) },
			func() Options { return Options{MaxRuns: 45, Workers: 2, Async: true} }},
	}
	// deterministic drops what may differ between two runs of a campaign.
	deterministic := func(r *Result) Result {
		d := *r
		d.WorkerOccupancy, d.SpeculativeRuns, d.SpeculativeHits, d.QueueStarved, d.IdleSlots = 0, 0, 0, 0, 0
		return d
	}
	objective := func(i int) Objective {
		return func(ctx context.Context, cfg space.Config) (float64, error) {
			v, err := parBowl(ctx, cfg)
			return v + float64(1000*i), err
		}
	}
	const repeats = 3
	want := make([]Result, len(campaigns))
	for i, c := range campaigns {
		res, err := Tune(context.Background(), sp, c.strat(), objective(i), c.opt())
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		want[i] = deterministic(res)
	}
	got := make([][repeats]*Result, len(campaigns))
	errs := make([]error, len(campaigns))
	var wg sync.WaitGroup
	for i, c := range campaigns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range repeats {
				if got[i][r], errs[i] = Tune(context.Background(), sp, c.strat(), objective(i), c.opt()); errs[i] != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	for i, c := range campaigns {
		if errs[i] != nil {
			t.Fatalf("%s: %v", c.name, errs[i])
		}
		for r, res := range got[i] {
			if d := deterministic(res); !reflect.DeepEqual(d, want[i]) {
				t.Errorf("%s, concurrent run %d: %+v\nsequential: %+v", c.name, r, d, want[i])
			}
		}
	}
}
