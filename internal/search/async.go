package search

import "harmony/internal/space"

// AsyncStrategy is the issue/commit interface the tuning engine
// drives, and the one state machine every strategy in this package
// implements. Where Strategy forces a strict ask/tell alternation, an
// AsyncStrategy can be *asked* for further candidates while earlier
// ones are still being evaluated, and receives their values later —
// always in exactly the order it issued them.
//
// The contract:
//
//   - Ask proposes the next candidate. ok=false means no candidate is
//     available right now: either the strategy has finished (Done
//     returns true) or it is stalled waiting for commits of
//     already-issued candidates (Done returns false). A strategy stalls
//     where its round ends — PRO at the end of a phase, the samplers
//     every defaultBatchStride points, the simplex and coordinate
//     descent after every candidate — so everything issued between two
//     stalls is independent and may be evaluated at once.
//   - Commit delivers the objective value (lower is better) for an
//     issued candidate. Candidates are committed in exactly the order
//     Ask returned them; the engine sequence-numbers issues and
//     buffers out-of-order completions to guarantee this. A strategy
//     therefore observes one canonical, worker-count-independent
//     interleaving of its own state machine.
//   - Candidates issued but never committed (a session that hits its
//     budget or stop condition mid-flight) are simply abandoned; the
//     strategy must not require every issue to be committed.
//   - Done turns true only on an Ask that finds the strategy finished.
//   - A point Ask returns belongs to the engine: the strategy never
//     writes it again. The engine keeps it as the candidate's point,
//     decodes the candidate's configuration over it without a copy
//     (space.Space.DecodeShared) and logs it in the trial record;
//     TestAskedPointsAreNeverWritten pins the rule for every strategy.
//
// Like Strategy, an AsyncStrategy is engine-locked: not safe for
// concurrent use, no internal locking. The engines call
// Ask/Commit/Done/Best from a single coordinating goroutine.
type AsyncStrategy interface {
	// Name identifies the strategy in reports and logs.
	Name() string
	// Ask proposes the next candidate, or reports that none is
	// available right now (stalled or done — check Done). The point
	// belongs to the engine: the strategy never writes it again.
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

// AsAsync returns an AsyncStrategy view of strat: strat itself when it
// implements the issue/commit interface (every strategy in this
// package does), and rounds of one over its Next/Report otherwise.
func AsAsync(strat Strategy) AsyncStrategy {
	if as, ok := strat.(AsyncStrategy); ok {
		return as
	}
	return &roundOfOne{s: strat}
}

// Rounds returns the round view of strat: Ask hands out the points of
// the current round and stalls until the round has fully committed.
// That stall is the round barrier, and every strategy's own Ask already
// stalls where its round ends, so the view is AsAsync(strat) — except
// for the Ensemble, which runs ahead of its commits and so gets rounds
// of one. core.Tune runs every session that is not Options.Async
// through this view, which is why a campaign's fingerprint does not
// depend on Options.Async for any strategy but the Ensemble.
func Rounds(strat Strategy) AsyncStrategy {
	if _, ahead := strat.(*Ensemble); ahead {
		return &roundOfOne{s: strat}
	}
	return AsAsync(strat)
}

// roundOfOne drives a Strategy's Next/Report as issue/commit: Ask
// issues one proposal and stalls until it commits.
type roundOfOne struct {
	s        Strategy
	inFlight bool
	done     bool
}

func (a *roundOfOne) Name() string { return a.s.Name() }

func (a *roundOfOne) Best() (space.Point, float64, bool) { return a.s.Best() }

func (a *roundOfOne) Done() bool { return a.done }

func (a *roundOfOne) Ask() (space.Point, bool) {
	if a.done || a.inFlight {
		return nil, false
	}
	pt, ok := a.s.Next()
	a.done, a.inFlight = !ok, ok
	return pt, ok
}

func (a *roundOfOne) Commit(pt space.Point, value float64) {
	a.inFlight = false
	a.s.Report(pt, value)
}
