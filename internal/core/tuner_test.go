package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"harmony/internal/search"
	"harmony/internal/space"
)

func bowlSpace(t *testing.T) *space.Space {
	t.Helper()
	return space.MustNew(
		space.IntParam("x", 0, 50, 1),
		space.IntParam("y", 0, 50, 1),
	)
}

func bowl(_ context.Context, cfg space.Config) (float64, error) {
	dx := float64(cfg.Int("x") - 30)
	dy := float64(cfg.Int("y") - 10)
	return 100 + dx*dx + dy*dy, nil
}

func TestTuneFindsMinimum(t *testing.T) {
	sp := bowlSpace(t)
	res, err := Tune(context.Background(), sp, search.NewSimplex(sp, search.SimplexOptions{}), bowl, Options{})
	if err != nil {
		t.Fatalf("Tune: %v", err)
	}
	if !res.Converged {
		t.Error("expected convergence")
	}
	if res.BestValue > 105 {
		t.Errorf("best value %v, want near 100", res.BestValue)
	}
	if res.BestConfig.Int("x") < 27 || res.BestConfig.Int("x") > 33 {
		t.Errorf("best x = %d, want near 30", res.BestConfig.Int("x"))
	}
}

func TestTuneMemoisesRepeatedPoints(t *testing.T) {
	sp := bowlSpace(t)
	calls := map[string]int{}
	obj := func(_ context.Context, cfg space.Config) (float64, error) {
		calls[cfg.Format()]++
		return bowl(context.Background(), cfg)
	}
	res, err := Tune(context.Background(), sp, search.NewSimplex(sp, search.SimplexOptions{}), obj, Options{})
	if err != nil {
		t.Fatalf("Tune: %v", err)
	}
	for cfg, n := range calls {
		if n > 1 {
			t.Errorf("configuration %q ran %d times, want 1", cfg, n)
		}
	}
	if res.Proposals <= res.Runs {
		t.Logf("no cache hits this run (proposals=%d runs=%d); acceptable but unusual", res.Proposals, res.Runs)
	}
	var cachedTrials int
	for _, tr := range res.Trials {
		if tr.Cached {
			cachedTrials++
			if tr.Run != 0 {
				t.Error("cached trial carries a run number")
			}
		}
	}
	if cachedTrials != res.Proposals-res.Runs {
		t.Errorf("cached trials %d, want %d", cachedTrials, res.Proposals-res.Runs)
	}
}

func TestTuneMaxRuns(t *testing.T) {
	sp := bowlSpace(t)
	res, err := Tune(context.Background(), sp, search.NewRandom(sp, 1, 0), bowl, Options{MaxRuns: 12})
	if err != nil {
		t.Fatalf("Tune: %v", err)
	}
	if res.Runs != 12 {
		t.Errorf("runs = %d, want 12", res.Runs)
	}
	if res.Converged {
		t.Error("budget exhaustion must not be reported as convergence")
	}
}

func TestTuneObjectiveErrorsAreInf(t *testing.T) {
	sp := bowlSpace(t)
	fail := errors.New("application crashed")
	obj := func(_ context.Context, cfg space.Config) (float64, error) {
		// Fail everywhere except a small island, so the search must
		// navigate failures.
		if cfg.Int("x") < 20 {
			return 0, fail
		}
		return bowl(context.Background(), cfg)
	}
	res, err := Tune(context.Background(), sp, search.NewRandom(sp, 5, 40), obj, Options{})
	if err != nil {
		t.Fatalf("Tune: %v", err)
	}
	if res.Failures == 0 {
		t.Fatal("expected some failed runs")
	}
	if math.IsInf(res.BestValue, 1) {
		t.Fatal("no successful run found")
	}
	var sawErr bool
	for _, tr := range res.Trials {
		if tr.Err != nil {
			sawErr = true
			if !math.IsInf(tr.Value, 1) {
				t.Error("failed trial value should be +Inf")
			}
		}
	}
	if !sawErr {
		t.Error("no trial recorded its error")
	}
}

func TestTuneAllRunsFail(t *testing.T) {
	sp := bowlSpace(t)
	obj := func(context.Context, space.Config) (float64, error) {
		return 0, errors.New("boom")
	}
	res, err := Tune(context.Background(), sp, search.NewRandom(sp, 1, 5), obj, Options{})
	if err != nil {
		t.Fatalf("Tune: %v", err)
	}
	if res.Failures != 5 || !math.IsInf(res.BestValue, 1) {
		t.Errorf("failures=%d best=%v", res.Failures, res.BestValue)
	}
}

func TestTuneContextCancellation(t *testing.T) {
	sp := bowlSpace(t)
	ctx, cancel := context.WithCancel(context.Background())
	n := 0
	obj := func(ctx context.Context, cfg space.Config) (float64, error) {
		n++
		if n == 3 {
			cancel()
		}
		return bowl(ctx, cfg)
	}
	_, err := Tune(ctx, sp, search.NewRandom(sp, 1, 0), obj, Options{})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if n > 4 {
		t.Errorf("objective ran %d times after cancellation", n)
	}
}

func TestTuneCostAccounting(t *testing.T) {
	sp := bowlSpace(t)
	res, err := Tune(context.Background(), sp, search.NewRandom(sp, 2, 10), bowl, Options{RunOverhead: 7})
	if err != nil {
		t.Fatalf("Tune: %v", err)
	}
	var want float64
	for _, tr := range res.Trials {
		if !tr.Cached && tr.Err == nil {
			want += tr.Value + 7
		}
	}
	if math.Abs(res.TuningCost-want) > 1e-9 {
		t.Errorf("TuningCost = %v, want %v", res.TuningCost, want)
	}
	if res.TuningCost < 10*7 {
		t.Errorf("TuningCost = %v should include overhead for 10 runs", res.TuningCost)
	}
}

func TestTuneImprovementAndSpeedup(t *testing.T) {
	sp := space.MustNew(space.IntParam("x", 0, 10, 1))
	obj := func(_ context.Context, cfg space.Config) (float64, error) {
		return float64(100 - 5*cfg.Int("x")), nil // 100 at x=0 down to 50 at x=10
	}
	res, err := Tune(context.Background(), sp,
		search.NewCoordinate(sp, search.CoordinateOptions{Start: space.Point{0}}), obj, Options{})
	if err != nil {
		t.Fatalf("Tune: %v", err)
	}
	if res.FirstValue != 100 {
		t.Fatalf("FirstValue = %v, want 100", res.FirstValue)
	}
	if res.BestValue != 50 {
		t.Fatalf("BestValue = %v, want 50", res.BestValue)
	}
	if got := res.Improvement(); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("Improvement = %v, want 0.5", got)
	}
	if got := res.Speedup(); math.Abs(got-2.0) > 1e-9 {
		t.Errorf("Speedup = %v, want 2", got)
	}
}

func TestTuneNoEvaluations(t *testing.T) {
	sp := bowlSpace(t)
	// An exhausted strategy that proposes nothing.
	s := search.NewRandom(sp, 1, 0)
	_, err := Tune(context.Background(), sp, s, bowl, Options{MaxProposals: 0, MaxRuns: 0})
	// Random with max=0 is unbounded, so instead use MaxProposals via
	// an immediately-empty systematic strategy.
	_ = err
	empty := search.NewSystematic(space.MustNew(space.IntParam("x", 0, 0, 1)), 0)
	_, err = Tune(context.Background(), sp, empty, bowl, Options{})
	if !errors.Is(err, errNoEvaluations) {
		t.Errorf("err = %v, want errNoEvaluations", err)
	}
}

func TestTuneLogf(t *testing.T) {
	sp := bowlSpace(t)
	var lines int
	_, err := Tune(context.Background(), sp, search.NewRandom(sp, 1, 5), bowl, Options{
		Logf: func(format string, args ...any) {
			lines++
			_ = fmt.Sprintf(format, args...)
		},
	})
	if err != nil {
		t.Fatalf("Tune: %v", err)
	}
	if lines != 5 {
		t.Errorf("logged %d lines, want 5", lines)
	}
}

func TestTuneBestAtRun(t *testing.T) {
	sp := bowlSpace(t)
	res, err := Tune(context.Background(), sp, search.NewSimplex(sp, search.SimplexOptions{}), bowl, Options{})
	if err != nil {
		t.Fatalf("Tune: %v", err)
	}
	if res.BestAtRun < 1 || res.BestAtRun > res.Runs {
		t.Errorf("BestAtRun = %d outside [1,%d]", res.BestAtRun, res.Runs)
	}
	// Verify against the trial log.
	best := math.Inf(1)
	bestRun := 0
	for _, tr := range res.Trials {
		if !tr.Cached && tr.Err == nil && tr.Value < best {
			best = tr.Value
			bestRun = tr.Run
		}
	}
	if bestRun != res.BestAtRun {
		t.Errorf("BestAtRun = %d, trials say %d", res.BestAtRun, bestRun)
	}
}
