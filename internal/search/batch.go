package search

import "harmony/internal/space"

// BatchStrategy is the round interface strategies once implemented
// beside Ask/Commit. No strategy implements it now — every round is an
// AsyncStrategy's run of Asks up to its stall — and it is declared only
// for the frozen bench harness, whose tracing decorator still names it
// in a type switch.
type BatchStrategy interface {
	Strategy
	NextBatch() []space.Point
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

// DefaultBatchStride is the round size of the sampling strategies
// (Random, Systematic, Exhaustive). Unlike PRO, whose round size is
// fixed by the population, a sampler's "round" is an arbitrary slice
// of its stream: samples and grid points are independent, so the
// sample stream, the visit order and Systematic.Values are the same
// for any stride, which only bounds how much work the engine may have
// in flight at once.
const DefaultBatchStride = 16
