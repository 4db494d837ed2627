package search

import (
	"math"

	"harmony/internal/space"
)

// EnsembleOptions configure the bandit ensemble.
type EnsembleOptions struct {
	// Seed fixes the pseudo-random state of the seeded member
	// techniques (PRO, Random). The ensemble itself is deterministic
	// arithmetic — same seed, same commits, same allocation trace.
	Seed int64
	// Budget bounds the sampling members: it is the Random member's
	// sample cap and the Systematic member's grid budget. 0 selects
	// defaultBudget.
	Budget int
}

// ucbExplore is the UCB1 exploration constant.
const ucbExplore = math.Sqrt2

// ensembleArm is one member technique plus its bandit statistics.
type ensembleArm struct {
	name   string
	as     AsyncStrategy
	pulls  int     // candidates issued from this member
	reward float64 // summed per-commit payoff
}

// Ensemble multiplexes several search techniques through a UCB1
// bandit, in the style of OpenTuner's multi-armed-technique driver:
// every time the engine asks for a candidate, the ensemble picks the
// member with the highest upper confidence bound on per-candidate
// payoff and issues that member's next proposal. Because the members
// advance independently, some member can almost always propose even
// while another is stalled waiting for in-flight values — which is
// exactly what the pipelined engine needs to keep its candidate
// queue from running dry.
//
// Payoff per committed candidate is −1 for a non-finite value
// (failed or forfeited run), +1 for a new global best, 0 otherwise.
// A member whose candidates keep failing pins its mean payoff at −1,
// so UCB1 provably starves it: its pulls grow only logarithmically
// in the total issue count.
//
// Unlike every other strategy, the Ensemble does not stall where a
// member's round ends, so Rounds gives it rounds of one. It is
// engine-locked like every other strategy in this package, and fully
// deterministic: selection is closed-form arithmetic with index-order
// tie-breaking, no random state of its own.
type Ensemble struct {
	machine
	arms   []*ensembleArm
	issues int    // total candidates issued
	queue  []int  // arm index per in-flight candidate, issue order
	skip   []bool // Ask's per-call mask of stalled arms
}

// NewEnsemble constructs the bandit ensemble over the space. The
// default member set is PRO (seeded), simplex (adaptive in high
// dimension), random (seeded, capped at Budget samples), and
// systematic sampling (grid sized to Budget).
func NewEnsemble(sp *space.Space, opt EnsembleOptions) *Ensemble {
	budget := opt.Budget
	if budget <= 0 {
		budget = defaultBudget
	}
	return newEnsemble(
		NewPRO(sp, PROOptions{Seed: opt.Seed}),
		NewSimplex(sp, SimplexOptions{Adaptive: sp.Dims() >= adaptiveDims}),
		NewRandom(sp, opt.Seed+1, budget),
		NewSystematic(sp, budget),
	)
}

// newEnsemble builds the bandit over the given members, one arm each
// in argument order.
func newEnsemble(techs ...AsyncStrategy) *Ensemble {
	e := &Ensemble{skip: make([]bool, len(techs))}
	e.self = e
	for _, t := range techs {
		e.arms = append(e.arms, &ensembleArm{name: t.Name(), as: t})
	}
	return e
}

// Name implements Strategy.
func (e *Ensemble) Name() string { return "ensemble" }

// ucb returns the arm's upper confidence bound on per-candidate
// payoff. Unpulled arms score +Inf so every member is tried once.
func (e *Ensemble) ucb(a *ensembleArm) float64 {
	if a.pulls == 0 {
		return math.Inf(1)
	}
	mean := a.reward / float64(a.pulls)
	return mean + ucbExplore*math.Sqrt(math.Log(float64(e.issues+1))/float64(a.pulls))
}

// Ask implements AsyncStrategy: pick the highest-UCB member that can
// propose right now. A member whose Ask stalls (its round is fully in
// flight) is skipped for this call and retried later; ties break on
// arm order, so the whole selection is deterministic.
func (e *Ensemble) Ask() (space.Point, bool) {
	skip := e.skip
	clear(skip)
	for {
		best, bestScore := -1, math.Inf(-1)
		for i, a := range e.arms {
			if skip[i] || a.as.Done() {
				continue
			}
			if s := e.ucb(a); s > bestScore {
				best, bestScore = i, s
			}
		}
		if best < 0 {
			return nil, false
		}
		if pt, ok := e.arms[best].as.Ask(); ok {
			e.arms[best].pulls++
			e.issues++
			e.queue = append(e.queue, best)
			return pt, true
		}
		skip[best] = true
	}
}

// Commit implements AsyncStrategy. Because the engine commits in
// issue order and the ensemble issues from one arm at a time, the
// head of the in-flight queue names the arm the value belongs to.
func (e *Ensemble) Commit(pt space.Point, value float64) {
	if len(e.queue) == 0 {
		panic("search: ensemble.Commit with no candidate in flight")
	}
	i := e.queue[0]
	// Shifting keeps the array: the queue is as deep as the engine's
	// window, so the copy is short.
	e.queue = e.queue[:copy(e.queue, e.queue[1:])]
	a := e.arms[i]
	switch {
	case math.IsNaN(value) || math.IsInf(value, 0):
		a.reward-- // failed or forfeited candidate
	case !e.has || value < e.bestValue:
		a.reward++ // new global best
	}
	a.as.Commit(pt, value)
	e.observe(pt, value)
}

// Done implements AsyncStrategy: the ensemble is finished only when
// every member is.
func (e *Ensemble) Done() bool {
	for _, a := range e.arms {
		if !a.as.Done() {
			return false
		}
	}
	return true
}
