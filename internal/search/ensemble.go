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
	// DefaultBudget.
	Budget int
	// Techniques overrides the default member set (PRO, simplex,
	// random, systematic). Used by tests to inject faulty members.
	Techniques []Strategy
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
// Ensemble implements AsyncStrategy natively and the sequential
// Strategy facade (for the round-barrier engines); both drive the
// same member state machines. It is engine-locked like every other
// strategy in this package, and fully deterministic: selection is
// closed-form arithmetic with index-order tie-breaking, no random
// state of its own.
type Ensemble struct {
	tracker
	arms    []*ensembleArm
	issues  int   // total candidates issued
	queue   []int // arm index per in-flight candidate, issue order
	trace   []int // arm index per issue, full history
	pending space.Point
}

// NewEnsemble constructs the bandit ensemble over the space. The
// default member set is PRO (seeded), simplex (adaptive in high
// dimension), random (seeded, capped at Budget samples), and
// systematic sampling (grid sized to Budget).
func NewEnsemble(sp *space.Space, opt EnsembleOptions) *Ensemble {
	budget := opt.Budget
	if budget <= 0 {
		budget = DefaultBudget
	}
	techs := opt.Techniques
	if len(techs) == 0 {
		techs = []Strategy{
			NewPRO(sp, PROOptions{Seed: opt.Seed}),
			NewSimplex(sp, SimplexOptions{Adaptive: sp.Dims() >= adaptiveDims}),
			NewRandom(sp, opt.Seed+1, budget),
			NewSystematic(sp, budget),
		}
	}
	e := &Ensemble{}
	for _, t := range techs {
		e.arms = append(e.arms, &ensembleArm{name: t.Name(), as: AsAsync(t)})
	}
	return e
}

// Name implements Strategy.
func (e *Ensemble) Name() string { return "ensemble" }

// Techniques returns the member names in arm order.
func (e *Ensemble) Techniques() []string {
	out := make([]string, len(e.arms))
	for i, a := range e.arms {
		out[i] = a.name
	}
	return out
}

// AllocTrace returns the arm index of every candidate issued so far,
// in issue order. Tests pin this trace to prove the allocation is a
// pure function of the seed and the committed values.
func (e *Ensemble) AllocTrace() []int {
	return append([]int(nil), e.trace...)
}

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
	skip := make([]bool, len(e.arms))
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
			e.trace = append(e.trace, best)
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
	e.queue = e.queue[1:]
	a := e.arms[i]
	switch {
	case math.IsNaN(value) || math.IsInf(value, 0):
		a.reward-- // failed or forfeited candidate
	case !e.has || value < e.bestValue:
		a.reward++ // new global best
	}
	a.as.Commit(pt, value)
	if !math.IsNaN(value) {
		e.observe(pt, value)
	}
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

// Next implements the sequential Strategy facade: one candidate at a
// time through the same bandit. Under strict ask/tell alternation no
// member is ever mid-round, so Ask can only fail when every member
// has finished.
func (e *Ensemble) Next() (space.Point, bool) {
	if e.pending != nil {
		return e.pending.Clone(), true
	}
	pt, ok := e.Ask()
	if !ok {
		return nil, false
	}
	e.pending = pt
	return pt.Clone(), true
}

// Report implements Strategy.
func (e *Ensemble) Report(pt space.Point, value float64) {
	mustPending(e.Name(), e.pending)
	e.pending = nil
	e.Commit(pt, value)
}
