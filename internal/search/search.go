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
// All strategies implement the ask/tell Strategy interface so the
// same engine drives both off-line tuning (iterative benchmarking
// runs) and on-line tuning (the client/server protocol).
package search

import (
	"fmt"

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
// the same pending proposal.
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
	// Next proposes the next point to evaluate.
	Next() (pt space.Point, ok bool)
	// Report delivers the objective value (lower is better) measured
	// at the most recent proposal.
	Report(pt space.Point, value float64)
	// Best returns the best point reported so far.
	Best() (pt space.Point, value float64, ok bool)
}

// DefaultBudget bounds the sampling strategies (Random, Systematic and
// the ensemble's two sampling members) when the caller does not supply
// an evaluation budget.
const DefaultBudget = 100

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
// (<= 0 selects DefaultBudget), and seeds are prior configurations
// offered to the simplex as initial vertices.
func New(name string, sp *space.Space, seed int64, budget int, seeds []space.Point) (Strategy, error) {
	if budget <= 0 {
		budget = DefaultBudget
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

// tracker records the incumbent best result; embedded by strategies.
type tracker struct {
	best      space.Point
	bestValue float64
	has       bool
}

func (t *tracker) observe(pt space.Point, value float64) {
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

func mustPending(name string, pending bool) {
	if !pending {
		panic(fmt.Sprintf("search: %s.Report called with no pending proposal", name))
	}
}
