package core

import (
	"math"

	"harmony/internal/space"
)

// Surrogate predicts the objective value of a configuration
// analytically — from a closed-form performance model of the
// application and machine — without running anything. The tuning
// engine uses the prediction only to decide *what to evaluate*: a
// configuration the model ranks poorly may be skipped, but every
// value the session reports (Best, FirstValue, the measured trial
// log, the evaluation caches) comes from a genuine objective run.
//
// Predictions must be deterministic pure functions of the point: the
// engine may score the same point repeatedly and on any goroutine.
type Surrogate interface {
	// Predict returns the model's predicted objective value for the
	// configuration, in the objective's own units (lower is better).
	// The prediction must be a positive finite number; returning
	// ok=false declares the point outside the model's competence, and
	// the engine falls back to fully simulating the group of
	// proposals containing it.
	Predict(pt space.Point, cfg space.Config) (float64, bool)
}

// SurrogateOptions attach a performance-model surrogate to a tuning
// session (Options.Surrogate). The engine scores every group of
// proposals it is about to issue — a whole round, or one candidate
// under Options.Async — and simulates only the fifth the model ranks
// best (keepFraction); the rest are pruned — reported to the search strategy at
// their predicted value, flagged Trial.Pruned, and never charged to
// Runs, TuningCost, Best, or the evaluation caches.
type SurrogateOptions struct {
	// Model scores candidate configurations. Nil disables the layer.
	Model Surrogate
}

// keepFraction is the share of each scored round the engine simulates:
// the top fifth, and always at least one point.
const keepFraction = 0.2

// surrogateTolerance is the ranking-confidence gate: a candidate whose
// predicted value is within this relative distance of the keep
// threshold is simulated anyway, because the model cannot confidently
// order near-ties.
const surrogateTolerance float64 = 0.05

// surrogateGate is the per-session pruning state and decision rules.
// The issue/commit window screens every group Tune issues with it, a
// round or one proposal at a time.
type surrogateGate struct {
	model Surrogate
	// modelBest is the smallest model score among configurations the
	// session has committed to simulate; the single-proposal keep rule
	// compares against it.
	modelBest float64
}

// newSurrogateGate returns nil when the layer is disabled (nil options
// or model).
func newSurrogateGate(opt *SurrogateOptions) *surrogateGate {
	if opt == nil || opt.Model == nil {
		return nil
	}
	return &surrogateGate{model: opt.Model, modelBest: math.Inf(1)}
}

// Score predicts one configuration. It returns ok=false — demanding
// full simulation of the containing group — when the model declines
// the point or returns a non-positive or non-finite score.
func (g *surrogateGate) Score(pt space.Point, cfg space.Config) (float64, bool) {
	v, ok := g.model.Predict(pt, cfg)
	if !ok || math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
		return 0, false
	}
	return v, true
}

// Keep decides which points of a fully scored group to simulate and
// writes the verdicts into keep; sorted is its scratch. Both are the
// caller's, as long as scores. Groups of one (sequential strategies)
// keep the point unless the model ranks it confidently worse than the
// best configuration the session has already committed to simulate;
// larger groups keep the top ceil(keepFraction×n) scores plus every
// near-tie within surrogateTolerance of the cut. The decision depends
// only on the scores, so it is identical for every worker count.
func (g *surrogateGate) Keep(scores []float64, keep []bool, sorted []float64) {
	if len(scores) == 1 {
		keep[0] = math.IsInf(g.modelBest, 1) || scores[0] <= g.modelBest*(1+surrogateTolerance)
		return
	}
	k := int(math.Ceil(keepFraction * float64(len(scores))))
	copy(sorted, scores)
	// Insertion sort: rounds are small (a PRO population, a sampler
	// stride) and this avoids pulling in package sort for a hot path.
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	cut := sorted[k-1] * (1 + surrogateTolerance)
	for i, v := range scores {
		keep[i] = v <= cut
	}
}

// Committed records that the session will simulate a configuration
// the model scored; the single-proposal rule prunes against the best
// such score. It sits on the fetch hot path (once per kept proposal),
// so it allocates nothing: TestWindowSteadyCycleAllocatesNothing pins it.
func (g *surrogateGate) Committed(score float64) {
	if score < g.modelBest {
		g.modelBest = score
	}
}
