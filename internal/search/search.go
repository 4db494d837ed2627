// Package search implements the search strategies used by the Active
// Harmony tuning system.
//
// The central strategy is Simplex, the integer-adapted Nelder–Mead
// method the paper uses as the kernel of the Adaptation Controller.
// The package also provides the comparison strategies the paper's
// evaluation relies on: coordinate descent (the one-parameter-per-
// iteration behaviour visible in Table I), uniform random search,
// systematic sampling (Fig. 6), and exhaustive enumeration.
//
// Every strategy is one issue/commit state machine, AsyncStrategy:
// Ask hands out candidates and stalls where the strategy's round ends,
// Commit delivers their values in issue order. The sequential ask/tell
// Strategy interface (Next/Report) is one shared facade over it, so
// the same machine drives off-line tuning (iterative benchmarking runs)
// and on-line tuning (the client/server protocol).
package search

import (
	"fmt"
	"math"

	"harmony/internal/space"
)

// Strategy is the ask/tell interface implemented by every search
// method.
//
// The caller repeatedly asks for the next configuration to evaluate
// with Next and reports the measured performance with Report. A
// strategy may propose the same lattice point more than once (the
// continuous simplex frequently snaps distinct vertices to one
// lattice point); callers that charge per application run should
// memoise evaluations (core.Tuner does).
//
// Next returns ok=false when the strategy has converged or exhausted
// its space. Calling Next again without an intervening Report returns
// the same pending proposal. Every strategy in this package is also an
// AsyncStrategy, and its Next/Report is Ask/Commit one candidate at a
// time.
//
// Strategies are engine-locked: no strategy in this package is safe
// for concurrent use, and none carries its own locking. The engines
// that drive them serialise every call: core.Tune talks to the
// strategy only from its coordinating goroutine, and the on-line
// server sessions hold a single mutex, so even when objective
// evaluations run on many workers the strategy state machine only
// ever advances from one goroutine at a time. Callers embedding a
// strategy elsewhere must uphold the same discipline.
type Strategy interface {
	// Name identifies the strategy in reports and logs.
	Name() string
	// Next proposes the next point to evaluate. The point belongs to
	// the caller, as Ask's does: the strategy never writes it again.
	Next() (pt space.Point, ok bool)
	// Report delivers the objective value (lower is better) measured
	// at the most recent proposal.
	Report(pt space.Point, value float64)
	// Best returns the best point reported so far.
	Best() (pt space.Point, value float64, ok bool)
}

// defaultBudget bounds the sampling strategies (Random, Systematic and
// the ensemble's two sampling members) when the caller does not supply
// an evaluation budget.
const defaultBudget = 100

// adaptiveDims is the dimension count from which a simplex built by
// New or as an ensemble member uses SimplexOptions.Adaptive: the fixed
// coefficients collapse prematurely on the 32-weight decomposition
// spaces.
const adaptiveDims = 8

// maxExhaustivePoints is the largest space New will enumerate.
const maxExhaustivePoints = 1_000_000

// New builds a strategy by its Name() string ("" selects simplex) with
// the settings every front end uses, so a specification tuned off-line
// by htune and a session registered with harmonyd get the same search.
// seed drives the seeded strategies, budget bounds the sampling ones
// (<= 0 selects defaultBudget), and seeds are prior configurations
// offered to the simplex as initial vertices.
func New(name string, sp *space.Space, seed int64, budget int, seeds []space.Point) (Strategy, error) {
	if budget <= 0 {
		budget = defaultBudget
	}
	switch name {
	case "", "simplex":
		return NewSimplex(sp, SimplexOptions{Seeds: seeds, Adaptive: sp.Dims() >= adaptiveDims}), nil
	case "coordinate":
		return NewCoordinate(sp, CoordinateOptions{}), nil
	case "pro":
		return NewPRO(sp, PROOptions{Seed: seed}), nil
	case "random":
		return NewRandom(sp, seed, budget), nil
	case "systematic":
		return NewSystematic(sp, budget), nil
	case "ensemble":
		return NewEnsemble(sp, EnsembleOptions{Seed: seed, Budget: budget}), nil
	case "exhaustive":
		if sp.Size() > maxExhaustivePoints {
			return nil, fmt.Errorf("space too large for exhaustive search (%d points)", sp.Size())
		}
		return NewExhaustive(sp), nil
	}
	return nil, fmt.Errorf("unknown strategy %q", name)
}

// tracker records the incumbent best result. Non-finite values (a
// failed or forfeited run) are never an incumbent.
type tracker struct {
	best      space.Point
	bestValue float64
	has       bool
}

func (t *tracker) observe(pt space.Point, value float64) {
	if math.IsNaN(value) || math.IsInf(value, 0) {
		return
	}
	if !t.has || value < t.bestValue {
		t.best = pt.Clone()
		t.bestValue = value
		t.has = true
	}
}

// Best returns the best point observed so far.
func (t *tracker) Best() (space.Point, float64, bool) {
	if !t.has {
		return nil, 0, false
	}
	return t.best.Clone(), t.bestValue, true
}

// machine is embedded by every strategy: the incumbent best, the Done
// flag, and the one implementation of Next/Report, over the Ask and
// Commit of the strategy that embeds it (self).
type machine struct {
	tracker
	self     AsyncStrategy
	pending  space.Point // Next's proposal, until Report commits it
	finished bool        // an Ask found the strategy done
}

// finish is what Ask returns once the strategy is done. Done turns true
// on the Ask that finds the strategy finished, not on the Commit that
// finished it: an engine that stops asking first, at its proposal cap,
// must not report the search converged.
func (m *machine) finish() (space.Point, bool) {
	m.finished = true
	return nil, false
}

// Done implements AsyncStrategy.
func (m *machine) Done() bool { return m.finished }

// Next implements Strategy: Ask, holding the candidate until Report.
// With nothing in flight no strategy stalls, so ok=false means done.
func (m *machine) Next() (space.Point, bool) {
	if m.pending == nil {
		pt, ok := m.self.Ask()
		if !ok {
			return nil, false
		}
		m.pending = pt
	}
	return m.pending, true
}

// Report implements Strategy: Commit the pending proposal.
func (m *machine) Report(pt space.Point, value float64) {
	if m.pending == nil {
		panic(fmt.Sprintf("search: %s.Report called with no pending proposal", m.self.Name()))
	}
	m.pending = nil
	m.self.Commit(pt, value)
}
