// Package core implements the Active Harmony tuning engine: the
// Adaptation Controller that drives a search strategy against an
// application objective.
//
// The package provides the "off-line" iterative tuning mode this
// paper added to Active Harmony: every tuning iteration is one
// representative short run (a benchmarking run) of the application,
// and configuration changes happen between runs. The engine is one
// state machine, the issue/commit Window (window.go), with two drivers:
// Tune (driver.go) runs its work on worker goroutines, and the tagged
// sessions of internal/server hand it to clients over TCP — the
// pre-existing "on-line" mode, where a running application fetches new
// parameter values mid-execution.
package core

import (
	"context"
	"errors"
	"math"

	"harmony/internal/space"
)

// Objective measures the performance of one configuration: typically
// the execution time, in seconds, of one representative short run.
// Lower is better. An error marks the configuration as failed; the
// tuner records it and treats its value as +Inf so the search moves
// away from it.
type Objective func(ctx context.Context, cfg space.Config) (float64, error)

// Options configure a tuning session.
type Options struct {
	// MaxRuns bounds the number of actual application runs (distinct
	// configurations evaluated). Cached re-evaluations are free.
	// 0 means no bound; the strategy's own termination applies.
	MaxRuns int
	// MaxProposals bounds the total number of strategy proposals,
	// including ones answered from the evaluation cache. It guards
	// against strategies that never converge. 0 means 10×MaxRuns when
	// MaxRuns is set, otherwise 10000.
	MaxProposals int
	// RunOverhead is the fixed cost, in seconds, charged to the
	// tuning-time account for every application run on top of the
	// measured objective: job launch, warm-up, teardown. The paper
	// notes that "our experiments take all costs of parameter changes
	// (including applications needed to be re-run and their warm up
	// time) into consideration". Failed runs are charged the overhead
	// too: a configuration that crashes still paid its launch and
	// teardown.
	RunOverhead float64
	// Cache, if non-nil, answers objective evaluations from prior
	// sessions before the objective is invoked. A hit is charged to
	// Runs and TuningCost exactly as if the application had run — the
	// paper's cost model counts the run whether or not this process
	// re-measured it — so Runs, Best, and the trial log are identical
	// for every cache state and worker count; only wall-clock time and
	// the CacheHits/CacheMisses counters change. Failed evaluations
	// are never cached: a configuration that crashed is re-attempted
	// by every session that proposes it.
	Cache PointCache
	// Surrogate, if non-nil with a Model, turns on model-guided
	// evaluation pruning: every group of proposals the engine is about
	// to issue (a whole round; one candidate under Async) is scored
	// analytically and only the fifth the model ranks best is
	// simulated. Pruned proposals are answered to the search strategy
	// at their predicted value and recorded as Trial.Pruned, but are
	// never charged to Runs or TuningCost, never stored in any cache,
	// and never eligible for Best or FirstValue: the surrogate chooses
	// what to evaluate, never what to report.
	// Pruning decisions are identical for every worker count.
	Surrogate *SurrogateOptions
	// Workers is the number of objective evaluations that may run at
	// once (0 means 1). The engine issues each round of the strategy —
	// what its Ask hands out before it stalls: a PRO phase, a sampler's
	// batch of points — as a whole, so up to Workers of its
	// evaluations overlap, and with more than one worker it
	// speculatively prefetches the follow-up candidates of a sequential
	// simplex step. Result accounting (Runs, Trials, TuningCost,
	// BestAtRun) is identical regardless of worker count.
	Workers int
	// Async drives the strategy through its issue/commit view instead
	// of its round view: rather than issuing one round and draining it
	// before the next, the engine keeps a window of up to AsyncDepth
	// candidates in flight, so a pipelined strategy (the ensemble)
	// proposes ahead of its outstanding values. Results are still
	// committed to the strategy in issue order, and accounting stays
	// deterministic — it depends on AsyncDepth and the strategy, never
	// on Workers or completion timing.
	Async bool
	// AsyncDepth bounds the window of an Async session: how many
	// issued-but-uncommitted candidates it may hold. 0 selects
	// DefaultAsyncDepth. The depth is deliberately independent of
	// Workers (set it at least as large to keep every worker busy):
	// the issue/commit trace is a pure function of depth and the
	// strategy, so changing only Workers can never change the result.
	AsyncDepth int
	// Logf, if non-nil, receives one line per evaluation.
	Logf func(format string, args ...any)
}

// PointCache is a cross-session evaluation cache consulted by the
// tuning engine. Implementations must be safe for concurrent use
// (the engine looks points up from its coordinating goroutine but
// servers may share one cache across sessions) and must
// only answer for the exact (application, machine, space) identity
// they were bound to — see history.EvalCache.
type PointCache interface {
	// Lookup returns the cached objective value for the point.
	Lookup(pt space.Point) (float64, bool)
	// Store records a successful evaluation of the point.
	Store(pt space.Point, value float64)
}

// Trial records one strategy proposal and its outcome.
type Trial struct {
	// Proposal is the 1-based proposal sequence number.
	Proposal int
	// Run is the 1-based application-run number, or 0 if the value
	// came from the evaluation cache.
	Run    int
	Point  space.Point
	Value  float64
	Cached bool
	// Pruned marks a proposal the surrogate model skipped: Value is
	// the model's prediction, not a measurement, and the proposal was
	// charged to no account. Pruned trials exist so the trial log
	// explains the search trajectory; reported results never include
	// them.
	Pruned bool
	Err    error
}

// Result summarises a completed tuning session.
type Result struct {
	Strategy   string
	Best       space.Point
	BestConfig space.Config
	BestValue  float64
	FirstValue float64 // objective of the first evaluated configuration
	Runs       int     // actual application runs
	Proposals  int     // strategy proposals (incl. cache hits)
	Failures   int     // runs whose objective returned an error
	TuningCost float64 // total seconds spent running the application
	Converged  bool    // the strategy stopped on its own
	Trials     []Trial
	BestAtRun  int // run number that produced the incumbent best
	// SpeculativeRuns counts objective evaluations the engine launched
	// ahead of need — simplex expansion/contraction prefetches, and
	// issued candidates that completed but were never committed because
	// the session was cancelled or failed first. They consume
	// wall-clock on idle capacity but are not charged to Runs or
	// TuningCost unless the strategy actually proposes them (see
	// SpeculativeHits); a session with one worker never prefetches.
	SpeculativeRuns int
	// SpeculativeHits counts speculative evaluations whose point the
	// strategy later proposed for real. Each hit is charged to Runs
	// and TuningCost exactly as if it had been evaluated on demand;
	// the wall-clock win is that the result was already in hand.
	SpeculativeHits int
	// CacheHits counts runs answered by Options.Cache; CacheMisses
	// counts runs that consulted it and invoked the objective. Both
	// are diagnostics only: cache hits are charged to Runs and
	// TuningCost like real runs, so no other Result field depends on
	// the cache state.
	CacheHits   int
	CacheMisses int
	// SurrogateKept counts proposals the surrogate model scored and
	// committed to simulation; SurrogatePruned counts proposals it
	// skipped. SurrogateFallbacks counts groups of proposals fully
	// simulated because the model declined a point or predicted a
	// degenerate score. All three are zero without Options.Surrogate.
	SurrogateKept      int
	SurrogatePruned    int
	SurrogateFallbacks int
	// WorkerOccupancy is the measured fraction of available
	// worker-seconds the session spent inside the objective:
	// busy-time / (Workers × session wall clock). It is a wall-clock
	// diagnostic — the only Result field that is not deterministic —
	// and it is what makes the "parallel but starved" failure mode
	// (throughput dropping as workers rise) observable directly. It is
	// measured for every session.
	WorkerOccupancy float64
	// QueueStarved counts the deterministic refill passes (one follows
	// every commit) that left capacity idle because the strategy was
	// stalled on in-flight values. Capacity is AsyncDepth under Async
	// and Workers otherwise, less the candidates in flight — so a
	// round that is draining, or too small to cover the workers, is
	// starving them.
	QueueStarved int
	// IdleSlots accumulates how much capacity went unfilled over those
	// starved passes — the integral of the starvation that
	// QueueStarved counts events of.
	IdleSlots int
}

// Improvement returns the fractional improvement of the best value
// over the first evaluated configuration, e.g. 0.18 for the paper's
// 18% PETSc result. It returns 0 when no baseline is available.
func (r *Result) Improvement() float64 {
	if r.FirstValue <= 0 || math.IsInf(r.FirstValue, 1) {
		return 0
	}
	return (r.FirstValue - r.BestValue) / r.FirstValue
}

// Speedup returns FirstValue/BestValue, e.g. 3.4 for the paper's GS2
// layout result. It returns 1 when no baseline is available.
func (r *Result) Speedup() float64 {
	if r.BestValue <= 0 || r.FirstValue <= 0 {
		return 1
	}
	return r.FirstValue / r.BestValue
}

// errNoEvaluations is returned when the session ends before any
// configuration was evaluated.
var errNoEvaluations = errors.New("core: tuning session performed no evaluations")
