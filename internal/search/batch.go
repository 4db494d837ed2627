package search

import "harmony/internal/space"

// BatchStrategy is implemented by strategies whose proposals arrive
// in rounds of mutually independent points: every point of a batch
// may be evaluated before any value of the batch is known. This is
// the property the Parallel Rank Order algorithm was designed around
// (all N−1 transformed population members of a PRO round are
// independent), and it is what lets the engine fan one round out
// over parallel workers — or, on a real cluster, over parallel
// tuning clients.
//
// NextBatch returns the remaining proposals of the current round, in
// a fixed deterministic order; it returns an empty batch when the
// strategy has converged or exhausted its space. A batch is valid
// until the next NextBatch, which may reuse its backing array: a
// caller that needs it longer copies it. ReportBatch delivers
// the measured values for a prefix of the batch most recently
// returned by NextBatch, in the same order. Reporting a strict
// prefix is allowed (the engine truncates rounds at budget
// boundaries); the strategy then resumes the round, and a subsequent
// NextBatch returns the unreported remainder.
//
// Like Strategy, a BatchStrategy is engine-locked: it is not safe
// for concurrent use, and the engines in internal/core and
// internal/server serialise every call under a single mutex. Batch
// and sequential calls may be interleaved between rounds but not
// within one (do not call Next after NextBatch before the batch is
// fully reported).
type BatchStrategy interface {
	Strategy
	// NextBatch proposes the remaining independent points of the
	// current round. Empty means converged/exhausted.
	NextBatch() []space.Point
	// ReportBatch delivers values for pts, a prefix of the batch
	// returned by the preceding NextBatch, in proposal order.
	ReportBatch(pts []space.Point, values []float64)
}

// Speculator is implemented by strategies that can preview the
// possible follow-up proposals of the current step before its value
// is known. The sequential simplex is the canonical case: while the
// reflection point is being evaluated, the expansion and the two
// contraction points of the same iteration are already determined,
// so spare workers can prefetch them and the engine discards the
// losers. Speculative evaluations are charged to the tuning-time
// account only if the strategy actually proposes them later.
type Speculator interface {
	// Speculate returns up to max lattice points that may be proposed
	// next, in decreasing order of likelihood. It must not change the
	// strategy's state.
	Speculate(max int) []space.Point
}

// AsBatch returns a BatchStrategy view of strat. Strategies that
// batch natively (PRO, Random, Systematic, Exhaustive) are returned
// unchanged; any other Strategy is adapted to batches of size one,
// which preserves its exact sequential ask/tell semantics under the
// batch engine.
func AsBatch(strat Strategy) BatchStrategy {
	if bs, ok := strat.(BatchStrategy); ok {
		return bs
	}
	return &seqBatch{Strategy: strat}
}

// seqBatch adapts a sequential Strategy to batches of one proposal.
// one backs every batch it returns, so a proposal costs no slice.
type seqBatch struct {
	Strategy
	one [1]space.Point
}

func (b *seqBatch) NextBatch() []space.Point {
	pt, ok := b.Strategy.Next()
	if !ok {
		return nil
	}
	b.one[0] = pt
	return b.one[:]
}

func (b *seqBatch) ReportBatch(pts []space.Point, values []float64) {
	for i := range pts {
		b.Strategy.Report(pts[i], values[i])
	}
}

// Speculate forwards to the wrapped strategy when it speculates, so
// the engine sees through the adapter.
func (b *seqBatch) Speculate(max int) []space.Point {
	if sp, ok := b.Strategy.(Speculator); ok {
		return sp.Speculate(max)
	}
	return nil
}

// DefaultBatchStride is the round size of the sampling strategies
// (Random, Systematic, Exhaustive). Unlike PRO, whose round size is
// fixed by the population, a sampler's "round" is an arbitrary slice
// of its stream: samples and grid points are independent, so the
// sample stream, the visit order and Systematic.Values are the same
// for any stride, which only bounds how much work the engine may have
// in flight at once.
const DefaultBatchStride = 16
