package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"harmony/internal/search"
	"harmony/internal/space"
)

// countingObjective tracks invocations.
type countingObjective struct {
	n  int
	fn Objective
}

func (c *countingObjective) call(ctx context.Context, cfg space.Config) (float64, error) {
	c.n++
	return c.fn(ctx, cfg)
}

func TestTuneMaxProposalsGuardsNonConvergingStrategies(t *testing.T) {
	sp := space.MustNew(space.IntParam("x", 0, 1, 1))
	// A strategy that always proposes the same point and never stops:
	// the cache answers everything after the first run, so only the
	// proposal guard can end the session.
	s := &stuckStrategy{pt: space.Point{0}}
	res, err := Tune(context.Background(), sp, s, func(context.Context, space.Config) (float64, error) {
		return 1, nil
	}, Options{MaxProposals: 25})
	if err != nil {
		t.Fatalf("Tune: %v", err)
	}
	if res.Proposals != 25 {
		t.Errorf("proposals = %d, want 25", res.Proposals)
	}
	if res.Runs != 1 {
		t.Errorf("runs = %d, want 1 (cache must absorb repeats)", res.Runs)
	}
}

type stuckStrategy struct {
	pt   space.Point
	best float64
	has  bool
}

func (s *stuckStrategy) Name() string              { return "stuck" }
func (s *stuckStrategy) Next() (space.Point, bool) { return s.pt.Clone(), true }
func (s *stuckStrategy) Report(_ space.Point, v float64) {
	if !s.has || v < s.best {
		s.best, s.has = v, true
	}
}
func (s *stuckStrategy) Best() (space.Point, float64, bool) {
	if !s.has {
		return nil, 0, false
	}
	return s.pt.Clone(), s.best, true
}

func TestTuneDefaultProposalBudgetFromMaxRuns(t *testing.T) {
	sp := space.MustNew(space.IntParam("x", 0, 1, 1))
	s := &stuckStrategy{pt: space.Point{1}}
	res, err := Tune(context.Background(), sp, s, func(context.Context, space.Config) (float64, error) {
		return 2, nil
	}, Options{MaxRuns: 3})
	if err != nil {
		t.Fatalf("Tune: %v", err)
	}
	if res.Proposals != 30 { // 10 × MaxRuns
		t.Errorf("proposals = %d, want 30", res.Proposals)
	}
}

// TestTuneHugeRunBudgetRuns: the default proposal cap saturates, so a
// run budget too large for ten times itself is no budget at all rather
// than a negative cap that ends the session before its first proposal.
func TestTuneHugeRunBudgetRuns(t *testing.T) {
	sp := space.MustNew(space.IntParam("x", 0, 3, 1))
	res, err := Tune(context.Background(), sp, search.NewExhaustive(sp), func(_ context.Context, cfg space.Config) (float64, error) {
		return float64(cfg.Int("x")), nil
	}, Options{MaxRuns: math.MaxInt})
	if err != nil {
		t.Fatalf("Tune: %v", err)
	}
	if res.Runs != 4 || !res.Converged {
		t.Errorf("runs = %d, converged = %v; want all 4 points and convergence", res.Runs, res.Converged)
	}
	for _, n := range []int{math.MaxInt / 10, math.MaxInt/10 + 1, math.MaxInt} {
		if c := DefaultMaxProposals(n); c < math.MaxInt/10 {
			t.Errorf("DefaultMaxProposals(%d) = %d, want it saturated", n, c)
		}
	}
}

func TestTuneUndecodableProposalIsError(t *testing.T) {
	sp := space.MustNew(space.IntParam("x", 0, 1, 1))
	s := &stuckStrategy{pt: space.Point{99}} // out of range
	_, err := Tune(context.Background(), sp, s, func(context.Context, space.Config) (float64, error) {
		return 1, nil
	}, Options{})
	if err == nil {
		t.Error("expected error for undecodable proposal")
	}
}

func TestImprovementDegenerateBaselines(t *testing.T) {
	r := &Result{FirstValue: math.Inf(1), BestValue: 5}
	if got := r.Improvement(); got != 0 {
		t.Errorf("Improvement with failed first run = %v, want 0", got)
	}
	r2 := &Result{FirstValue: 0, BestValue: 0}
	if got := r2.Speedup(); got != 1 {
		t.Errorf("Speedup with zero values = %v, want 1", got)
	}
}

func TestTuneObjectiveErrorAfterCancelPropagates(t *testing.T) {
	sp := space.MustNew(space.IntParam("x", 0, 100, 1))
	ctx, cancel := context.WithCancel(context.Background())
	obj := func(ctx context.Context, cfg space.Config) (float64, error) {
		cancel()
		return 0, errors.New("killed by signal")
	}
	_, err := Tune(ctx, sp, search.NewRandom(sp, 1, 10), obj, Options{})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled (not a recorded failure)", err)
	}
}
