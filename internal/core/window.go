package core

import (
	"fmt"
	"math"

	"harmony/internal/search"
	"harmony/internal/space"
)

// DefaultAsyncDepth is the window bound of an Options.Async session
// when Options.AsyncDepth is unset: up to this many issued candidates
// may be awaiting their commit at once.
const DefaultAsyncDepth = 8

// Unbounded is the depth and group size of a round-structured window:
// what is in flight is bounded by the strategy's round, not by a count.
const Unbounded = math.MaxInt

// DefaultMaxProposals is the runaway guard of a window whose caller
// chose none: ten proposals per budgeted run, else 10000.
func DefaultMaxProposals(maxRuns int) int {
	if maxRuns > 0 {
		return 10 * maxRuns
	}
	return 10000
}

// CandKind says how an issued candidate gets its value.
type CandKind uint8

const (
	Work      CandKind = iota // the driver measures it (Complete); charged
	CacheHit                  // answered by the evaluation cache at issue; charged
	Forfeited                 // undecodable under the forfeit policy: charged, answered at +Inf
	Follower                  // duplicates an earlier charged candidate (memo); free
	Pruned                    // rejected by the surrogate gate: free, answered at the prediction
)

// Candidate is one sequence-numbered proposal of the window. Measured
// and Predicted are separate fields on purpose: predictions choose what
// to evaluate and must never flow into the measured accounts. They meet
// only in CommitHead's Commit call — the one channel predictions are
// designed to flow through — which lets prunepurity prove, once for
// both drivers, that no prediction reaches an evaluation cache, a
// measured best, or run accounting through this struct.
type Candidate[P any] struct {
	Kind      CandKind
	Pt        space.Point
	Cfg       space.Config  // zero for a Forfeited candidate
	Measured  float64       // a charged candidate's genuine value: the driver's, the cache's, +Inf for a forfeit
	Predicted float64       // the gate's score, if it screened the group: what a Pruned candidate is answered at
	Leader    *Candidate[P] // the charged candidate a Follower duplicates; it commits first
	Kept      bool          // charged after the gate scored it and let it through
	// ClosesRound marks the last candidate of a group the strategy's
	// stall closed: the strategy hears of the round when it commits.
	ClosesRound bool
	// Done: the outcome is in hand. Committed: it has left the window.
	// Drivers read both and write neither.
	Done, Committed bool
	Payload         P // the driver's own state, by value: no second allocation
}

// Complete gives a Work candidate its measured value — an evaluation's
// result, an aggregate of reports, or the driver's penalty for work it
// gave up on — and reports whether it was accepted: an outcome already
// in hand stays, so a duplicate or late completion changes nothing.
func (c *Candidate[P]) Complete(measured float64) bool {
	if c.Done {
		return false
	}
	c.Measured, c.Done = measured, true
	return true
}

// Window is the issue/commit window: the one tuning state machine,
// driven off-line by Tune and on-line by the server's tagged sessions.
// Refill asks the strategy for groups of candidates and classifies each
// one; the driver completes Work candidates in any order; CommitHead
// delivers outcomes to the strategy strictly in issue order, so
// completion order never reaches the search. The machine is
// single-threaded and clock-free, and what the strategy observes is a
// pure function of the settings below and of when the driver calls
// Refill relative to CommitHead (its cadence). A driver fills in the
// settings before the first Refill; the second block is every way the
// off-line and the on-line driver differ in what the machine does.
type Window[P any] struct {
	Space        *space.Space
	Strategy     search.AsyncStrategy
	MaxRuns      int            // charged candidates the session may issue; 0 = no budget
	MaxProposals int            // candidates it may issue at all: the runaway guard
	Gate         *SurrogateGate // nil = no surrogate screening
	Cache        PointCache     // nil = none; the machine only looks up, drivers store

	// Depth bounds the candidates awaiting their commit, GroupMax those
	// classified — and scored by the gate — together: both Unbounded is
	// a round (the strategy's stall is the barrier), Depth and 1 a pipeline.
	Depth, GroupMax int
	// Memo makes a duplicate of a charged point a free Follower (off-line:
	// re-running a benchmark run is pure cost). Off, it is measured and
	// charged again (on-line: the running application is re-observed).
	Memo bool
	// ForfeitUndecodable issues a point the space cannot decode as a
	// Forfeited candidate, so a session serving live clients keeps
	// moving. Off, the point ends the search with Err.
	ForfeitUndecodable bool

	// State the drivers read and never write.
	Exhausted bool  // the run budget cut a group; what it could not cover is abandoned
	Err       error // an undecodable point ended the search
	// Stalled, Finished: the last Refill stopped asking because the
	// strategy needs commits it has not received, or is done.
	Stalled, Finished bool
	Fallbacks         int // groups issued unscreened: the model declined, or the space could not decode, a member
	Charged           int // charged candidates issued; never above MaxRuns

	// The in-flight ring, in issue order: the head commits next.
	buf     []*Candidate[P]
	head, n int

	leaders map[string]*Candidate[P] // charged candidates by point key (Memo)
	issued  int                      // candidates issued, committed or in flight

	// Refill scratch, reused across passes.
	pts  []space.Point
	cfgs []space.Config
	bad  []bool
	work []*Candidate[P]
}

// reserve makes room for k more candidates, so that the cursor helpers
// below — the steady-state bookkeeping of both drivers — are annotated
// and vet-enforced allocation-free: per candidate, never per poll.
func (w *Window[P]) reserve(k int) {
	if w.n+k <= len(w.buf) {
		return
	}
	buf := make([]*Candidate[P], max(w.n+k, 2*len(w.buf)))
	for i := range buf[:w.n] {
		buf[i] = w.At(i)
	}
	w.buf, w.head = buf, 0
}

//harmonyvet:allocfree
func (w *Window[P]) push(c *Candidate[P]) {
	w.buf[(w.head+w.n)%len(w.buf)] = c
	w.n++
}

//harmonyvet:allocfree
func (w *Window[P]) pop() {
	w.buf[w.head] = nil
	w.head = (w.head + 1) % len(w.buf)
	w.n--
}

// Len is the number of candidates awaiting their commit; At returns the
// i-th of them in issue order, and Head the first, nil when there is none.
//
//harmonyvet:allocfree
func (w *Window[P]) Len() int { return w.n }

//harmonyvet:allocfree
func (w *Window[P]) At(i int) *Candidate[P] { return w.buf[(w.head+i)%len(w.buf)] }

//harmonyvet:allocfree
func (w *Window[P]) Head() *Candidate[P] {
	if w.n == 0 {
		return nil
	}
	return w.buf[w.head]
}

// Open reports whether a Refill may still issue candidates: no budget,
// cap or error has ended the search.
func (w *Window[P]) Open() bool {
	return !w.Exhausted && w.Err == nil && w.issued < w.MaxProposals
}

// Memoised reports whether a point with this key has been charged, so
// that a repeat of it would be a Follower.
func (w *Window[P]) Memoised(key string) bool { return w.leaders[key] != nil }

// Refill asks the strategy for groups of up to GroupMax candidates and
// issues them until the window is at its depth, the strategy stalls or
// finishes, or the run budget, the proposal cap or an undecodable point
// ends the search. It returns the newly issued candidates that need
// work from the driver, in a slice the next call reuses.
func (w *Window[P]) Refill() []*Candidate[P] {
	w.work = w.work[:0]
	w.Stalled, w.Finished = false, false
	for w.Open() && !w.Stalled && !w.Finished && w.n < w.Depth {
		w.pts, w.cfgs, w.bad = w.pts[:0], w.cfgs[:0], w.bad[:0]
		for len(w.pts) < w.GroupMax && w.issued+len(w.pts) < w.MaxProposals {
			pt, ok := w.Strategy.Ask()
			if !ok {
				w.Finished = w.Strategy.Done()
				w.Stalled = !w.Finished
				break
			}
			cfg, err := w.Space.Decode(pt)
			if err != nil && !w.ForfeitUndecodable {
				// Candidates asked before it are still issued, and commit.
				w.Err = fmt.Errorf("core: strategy %s proposed undecodable point %v: %w", w.Strategy.Name(), pt, err)
				break
			}
			w.pts, w.cfgs, w.bad = append(w.pts, pt), append(w.cfgs, cfg), append(w.bad, err != nil)
		}
		if len(w.pts) == 0 {
			break
		}
		w.issue()
	}
	w.Stalled = w.Stalled && !w.Exhausted
	return w.work
}

// issue passes the asked group through the surrogate gate and issues
// its candidates in order. The keep quota is a property of the group,
// so the whole group is scored before any member is classified; a
// point the model declines, or the space cannot decode, sends the
// whole group through unscreened. The group is cut before the first
// charged candidate the run budget cannot cover, so in-flight work
// never exceeds MaxRuns; the AsyncStrategy contract allows abandoning
// what is cut.
func (w *Window[P]) issue() {
	var scores []float64
	var keep []bool
	if w.Gate != nil {
		scores = make([]float64, len(w.pts))
		screened := true
		for i, pt := range w.pts {
			if screened = !w.bad[i]; screened {
				scores[i], screened = w.Gate.Score(pt, w.cfgs[i])
			}
			if !screened {
				break
			}
		}
		if screened {
			keep = w.Gate.Keep(scores)
		} else {
			w.Fallbacks++
		}
	}
	w.reserve(len(w.pts))
	for i, pt := range w.pts {
		c := &Candidate[P]{Pt: pt, Cfg: w.cfgs[i]}
		if keep != nil {
			c.Predicted = scores[i] // written beside the Score call, where prunepurity's taint sees it
		}
		if !w.classify(c, i, keep) {
			w.Exhausted = true
			return
		}
		w.issued++
		w.push(c)
		if c.Kind == Work {
			w.work = append(w.work, c)
		}
	}
	if w.Stalled {
		w.At(w.n - 1).ClosesRound = true
	}
}

// classify decides how one asked candidate gets its value, and is the
// only place that does. The order is fixed: memo follower → surrogate
// prune → run budget → cache → work. The gate decides what is charged
// and the cache answers only what is charged, so a session replayed
// against a warm cache consults it for exactly the candidates the cold
// session ran. It reports false when the run budget cannot cover a
// charged candidate. keep is the gate's verdict on the group c is
// member i of, nil when the group was not screened.
func (w *Window[P]) classify(c *Candidate[P], i int, keep []bool) bool {
	var key string
	if w.Memo {
		key = c.Pt.Key()
		if lead := w.leaders[key]; lead != nil {
			c.Kind, c.Leader, c.Done = Follower, lead, true
			return true
		}
	}
	if keep != nil && !keep[i] {
		c.Kind, c.Done = Pruned, true
		return true
	}
	if w.MaxRuns > 0 && w.Charged >= w.MaxRuns {
		return false
	}
	w.Charged++
	if keep != nil {
		w.Gate.Committed(c.Predicted)
		c.Kept = true
	}
	if w.Memo {
		if w.leaders == nil {
			w.leaders = make(map[string]*Candidate[P])
		}
		w.leaders[key] = c
	}
	if w.bad[i] {
		c.Kind, c.Measured, c.Done = Forfeited, math.Inf(1), true
	} else if w.Cache != nil {
		if v, ok := w.Cache.Lookup(c.Pt); ok {
			c.Kind, c.Measured, c.Done = CacheHit, v, true
		}
	}
	return true
}

// CommitHead commits the head candidate to the strategy if its outcome
// is in hand and returns it for the driver's accounting; nil when the
// window is empty or its head is still being worked on. This is the
// only place a result reaches the strategy, and always from the head.
func (w *Window[P]) CommitHead() *Candidate[P] {
	c := w.Head()
	if c == nil || !c.Done {
		return nil
	}
	w.pop()
	c.Committed = true
	v := c.Measured
	switch c.Kind {
	case Pruned:
		v = c.Predicted
	case Follower:
		v = c.Leader.Measured
	}
	w.Strategy.Commit(c.Pt, v)
	return c
}
