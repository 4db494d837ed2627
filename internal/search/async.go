package search

import "harmony/internal/space"

// AsyncStrategy is the issue/commit interface the tuning engine
// drives. Where Strategy forces a strict ask/tell alternation and
// BatchStrategy forces a barrier at every round boundary, an
// AsyncStrategy can be *asked* for further candidates while earlier
// ones are still being evaluated, and receives their values later —
// always in exactly the order it issued them.
//
// The contract:
//
//   - Ask proposes the next candidate. ok=false means no candidate is
//     available right now: either the strategy has finished (Done
//     returns true) or it is stalled waiting for commits of
//     already-issued candidates (Done returns false).
//   - Commit delivers the objective value (lower is better) for an
//     issued candidate. Candidates are committed in exactly the order
//     Ask returned them; the engine sequence-numbers issues and
//     buffers out-of-order completions to guarantee this. A strategy
//     therefore observes one canonical, worker-count-independent
//     interleaving of its own state machine.
//   - Candidates issued but never committed (a session that hits its
//     budget or stop condition mid-flight) are simply abandoned; the
//     strategy must not require every issue to be committed.
//
// Like Strategy, an AsyncStrategy is engine-locked: not safe for
// concurrent use, no internal locking. The engines call
// Ask/Commit/Done/Best from a single coordinating goroutine.
type AsyncStrategy interface {
	// Name identifies the strategy in reports and logs.
	Name() string
	// Ask proposes the next candidate, or reports that none is
	// available right now (stalled or done — check Done).
	Ask() (pt space.Point, ok bool)
	// Commit delivers the value for an issued candidate. Calls arrive
	// in exactly the order Ask issued the candidates.
	Commit(pt space.Point, value float64)
	// Done reports that the strategy will never issue another
	// candidate (converged or exhausted).
	Done() bool
	// Best returns the best point committed so far.
	Best() (pt space.Point, value float64, ok bool)
}

// AsAsync returns an AsyncStrategy view of strat. Strategies that
// implement the issue/commit interface natively (Ensemble) are
// returned unchanged; any other Strategy is adapted through its
// BatchStrategy view: Ask hands out the points of the current round
// one at a time, stalls once the round is fully issued, and the
// adapter fires one ReportBatch for the whole round when its last
// value commits. That stall is the round barrier: core.Tune runs
// every round-structured session through this adapter, which is why
// a campaign's fingerprint does not depend on Options.Async for an
// adapted strategy.
func AsAsync(strat Strategy) AsyncStrategy {
	if as, ok := strat.(AsyncStrategy); ok {
		return as
	}
	return &batchAsync{bs: AsBatch(strat)}
}

// batchAsync adapts a BatchStrategy to the issue/commit interface by
// round-buffering commits.
type batchAsync struct {
	bs        BatchStrategy
	round     []space.Point
	vals      []float64
	issued    int
	committed int
	done      bool
}

func (a *batchAsync) Name() string { return a.bs.Name() }

func (a *batchAsync) Best() (space.Point, float64, bool) { return a.bs.Best() }

func (a *batchAsync) Done() bool { return a.done }

func (a *batchAsync) Ask() (space.Point, bool) {
	if a.done {
		return nil, false
	}
	if a.issued < len(a.round) {
		pt := a.round[a.issued]
		a.issued++
		return pt, true
	}
	if a.committed < a.issued {
		// Round fully issued, values still in flight: stalled until the
		// last commit delivers the round and the strategy can advance.
		return nil, false
	}
	batch := a.bs.NextBatch()
	if len(batch) == 0 {
		a.done = true
		return nil, false
	}
	a.round = batch
	a.vals = a.vals[:0]
	a.issued, a.committed = 1, 0
	return batch[0], true
}

func (a *batchAsync) Commit(pt space.Point, value float64) {
	_ = pt // commits arrive in issue order; the position identifies the point
	a.vals = append(a.vals, value)
	a.committed++
	if a.committed == len(a.round) {
		a.bs.ReportBatch(a.round, a.vals)
		a.round = nil
		a.issued, a.committed = 0, 0
	}
}

// Speculate forwards to the wrapped strategy when it speculates, so
// the engine sees through the adapter and can prefetch the follow-up
// proposals of a stalled round onto idle workers.
func (a *batchAsync) Speculate(max int) []space.Point {
	if sp, ok := a.bs.(Speculator); ok {
		return sp.Speculate(max)
	}
	return nil
}
