package core

import (
	"fmt"
	"math"
	"slices"

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
// chose none: ten proposals per budgeted run, saturating rather than
// overflowing, else 10000.
func DefaultMaxProposals(maxRuns int) int {
	if maxRuns > 0 {
		return 10 * min(maxRuns, math.MaxInt/10)
	}
	return 10000
}

// CandKind says how an issued candidate gets its value.
type CandKind uint8

const (
	Work      CandKind = iota // the driver measures it (Complete); charged
	CacheHit                  // answered by the evaluation cache at issue; charged
	Forfeited                 // undecodable under the forfeit policy: charged, answered at +Inf
	follower                  // duplicates an earlier charged candidate (memo); free
	pruned                    // rejected by the surrogate gate: free, answered at the prediction
)

// Candidate is one sequence-numbered proposal of the window. Measured
// and Predicted are separate fields on purpose: predictions choose what
// to evaluate and must never flow into the measured accounts. They meet
// only in CommitHead's Commit call — the one channel predictions are
// designed to flow through. TestSurrogatePredictionsNeverMeasured pins
// that no prediction reaches an evaluation cache, a measured best, or
// run accounting through this struct.
type Candidate[P any] struct {
	Pt        space.Point
	Cfg       space.Config  // decoded for a Work candidate only
	Measured  float64       // a charged candidate's genuine value: the driver's, the cache's, +Inf for a forfeit
	Predicted float64       // the gate's score, if it screened the group: what a pruned candidate is answered at
	Leader    *Candidate[P] // the charged candidate a follower duplicates; it commits first
	Kept      bool          // charged after the gate scored it and let it through
	// ClosesRound marks the last candidate of a group the strategy's
	// stall closed: the strategy hears of the round when it commits.
	ClosesRound bool
	// Done: the outcome is in hand. Committed: it has left the window,
	// and a driver may Release it. Drivers read both and write neither.
	Done, Committed bool
	// Kind sits with the flags, in their padding word: a candidate
	// then fits 96 bytes.
	Kind    CandKind
	Payload P // the driver's own state, by value: no second allocation
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
	MaxRuns      int        // charged candidates the session may issue; 0 = no budget
	MaxProposals int        // candidates it may issue at all: the runaway guard
	Cache        PointCache // nil = none; the machine only looks up, drivers store

	// Depth bounds the candidates awaiting their commit. Unbounded is a
	// round: the strategy's stall is the barrier, and the whole round is
	// classified — and scored by the gate — as one group. A bounded
	// Depth is a pipeline, asked and classified one candidate at a time.
	Depth int
	// Memo makes a duplicate of a charged point a free follower (off-line:
	// re-running a benchmark run is pure cost). Off, it is measured and
	// charged again (on-line: the running application is re-observed).
	Memo bool
	// ForfeitUndecodable issues a point the space cannot decode as a
	// Forfeited candidate, so a session serving live clients keeps
	// moving. Off, the point ends the search with Err.
	ForfeitUndecodable bool
	// gate screens every group with Tune's surrogate model (off-line
	// only: Options.Surrogate); nil issues every group unscreened.
	gate *surrogateGate

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
	// scored is what the gate made of every point the session has
	// scored, by point key: each point is decoded and put to the model
	// once. Only a gated window makes it.
	scored map[string]gateScore
	issued int             // candidates issued, committed or in flight
	free   []*Candidate[P] // released candidates, reissued before any new one

	// Refill scratch, reused across passes.
	pts    []space.Point
	cfgs   []space.Config // the group's members the gate scored, in order
	bad    []bool
	scores []float64 // the gate's scores of the group, then Keep's sort scratch
	keep   []bool    // the gate's verdicts on the group
	work   []*Candidate[P]
	key    []byte // the point key of the memo and the scored table
}

// reserve makes room for k more candidates, so that the cursor helpers
// below — the steady-state bookkeeping of both drivers — allocate
// nothing: the ring grows per candidate, never per poll, and
// TestWindowSteadyCycleAllocatesNothing pins a warm cycle at zero.
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

func (w *Window[P]) push(c *Candidate[P]) {
	w.buf[(w.head+w.n)%len(w.buf)] = c
	w.n++
}

func (w *Window[P]) pop() {
	w.buf[w.head] = nil
	w.head = (w.head + 1) % len(w.buf)
	w.n--
}

// Len is the number of candidates awaiting their commit; At returns the
// i-th of them in issue order, and Head the first, nil when there is none.
func (w *Window[P]) Len() int { return w.n }

func (w *Window[P]) At(i int) *Candidate[P] { return w.buf[(w.head+i)%len(w.buf)] }

func (w *Window[P]) Head() *Candidate[P] {
	if w.n == 0 {
		return nil
	}
	return w.buf[w.head]
}

// memoised reports whether a point with this key has been charged, so
// that a repeat of it would be a follower.
func (w *Window[P]) memoised(key string) bool { return w.leaders[key] != nil }

// Refill asks the strategy for groups of candidates (a whole round when
// Depth is Unbounded, one candidate otherwise) and issues them until
// the window is at its depth, the strategy stalls or finishes, or the
// run budget, the proposal cap or an undecodable point ends the search. It returns the newly issued candidates that need
// work from the driver, in a slice the next call reuses.
func (w *Window[P]) Refill() []*Candidate[P] {
	w.work = w.work[:0]
	w.Stalled, w.Finished = false, false
	group := 1
	if w.Depth == Unbounded {
		group = Unbounded
	}
	for !w.Exhausted && w.Err == nil && !w.Stalled && !w.Finished && w.n < w.Depth {
		w.pts, w.bad = w.pts[:0], w.bad[:0]
		for len(w.pts) < group && w.issued+len(w.pts) < w.MaxProposals {
			pt, ok := w.Strategy.Ask()
			if !ok {
				w.Finished = w.Strategy.Done()
				w.Stalled = !w.Finished
				break
			}
			err := w.Space.Check(pt)
			if err != nil && !w.ForfeitUndecodable {
				// Candidates asked before it are still issued, and commit.
				w.Err = fmt.Errorf("core: strategy %s proposed undecodable point %v: %w", w.Strategy.Name(), pt, err)
				break
			}
			w.pts, w.bad = append(w.pts, pt), append(w.bad, err != nil)
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
// what is cut. A point is decoded only to be scored or to become Work:
// a gated session scores each point once, and a point it has scored
// becomes Work with the configuration decoded then. A decoded
// configuration shares its point with the candidate, uncopied.
func (w *Window[P]) issue() {
	var scores []float64
	var keep []bool
	w.cfgs = w.cfgs[:0]
	if w.gate != nil {
		n := len(w.pts)
		w.scores = slices.Grow(w.scores[:0], 2*n)[:2*n]
		w.keep = slices.Grow(w.keep[:0], n)[:n]
		scores = w.scores[:n]
		screened := true
		for i, pt := range w.pts {
			if screened = !w.bad[i]; screened {
				scores[i], screened = w.score(pt)
			}
			if !screened {
				break
			}
		}
		if screened {
			keep = w.keep
			w.gate.Keep(scores, keep, w.scores[n:])
		} else {
			w.Fallbacks++
		}
	}
	w.reserve(len(w.pts))
	for i, pt := range w.pts {
		c := w.fresh(pt)
		if keep != nil {
			c.Predicted = scores[i]
		}
		if !w.classify(c, i, keep) {
			w.free = append(w.free, c) // never issued
			w.Exhausted = true
			return
		}
		w.issued++
		w.push(c)
		if c.Kind == Work {
			if i < len(w.cfgs) {
				c.Cfg = w.cfgs[i] // decoded to be scored
			} else {
				c.Cfg = w.decode(pt)
			}
			w.work = append(w.work, c)
		}
	}
	if w.Stalled {
		w.At(w.n - 1).ClosesRound = true
	}
}

// score is the gate's result for a decodable member of the group,
// whose configuration it appends to cfgs. A point the session has
// scored before is answered from the scored table, neither decoded nor
// put to the model again: the Surrogate contract makes a prediction a
// pure function of the point.
func (w *Window[P]) score(pt space.Point) (float64, bool) {
	w.key = pt.AppendKey(w.key[:0])
	r, ok := w.scored[string(w.key)]
	if !ok {
		r.cfg = w.decode(pt)
		r.v, r.ok = w.gate.Score(pt, r.cfg)
		if w.scored == nil {
			w.scored = make(map[string]gateScore)
		}
		w.scored[string(w.key)] = r
	}
	w.cfgs = append(w.cfgs, r.cfg)
	return r.v, r.ok
}

// decode is the configuration of a point Refill has checked, over the
// point itself: the strategy never writes a point it has handed out
// (search.AsyncStrategy), and the candidate's Pt shares it already.
func (w *Window[P]) decode(pt space.Point) space.Config {
	cfg, err := w.Space.DecodeShared(pt)
	if err != nil {
		panic(err)
	}
	return cfg
}

// gateScore is what the gate made of one point, decoded to be scored:
// its score, or ok false when it sends the point's group through
// unscreened.
type gateScore struct {
	v   float64
	ok  bool
	cfg space.Config
}

// fresh returns a candidate for one asked point: a released one, reset
// whole so nothing of its last issue survives, or a new one.
func (w *Window[P]) fresh(pt space.Point) *Candidate[P] {
	var c *Candidate[P]
	if n := len(w.free); n > 0 {
		c, w.free = w.free[n-1], w.free[:n-1]
	} else {
		c = new(Candidate[P])
	}
	*c = Candidate[P]{Pt: pt}
	return c
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
	if w.Memo {
		w.key = c.Pt.AppendKey(w.key[:0])
		if lead := w.leaders[string(w.key)]; lead != nil {
			c.Kind, c.Leader, c.Done = follower, lead, true
			return true
		}
	}
	if keep != nil && !keep[i] {
		c.Kind, c.Done = pruned, true
		return true
	}
	if w.MaxRuns > 0 && w.Charged >= w.MaxRuns {
		return false
	}
	w.Charged++
	if keep != nil {
		w.gate.Committed(c.Predicted)
		c.Kept = true
	}
	if w.Memo {
		if w.leaders == nil {
			w.leaders = make(map[string]*Candidate[P])
		}
		w.leaders[string(w.key)] = c
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
	case pruned:
		v = c.Predicted
	case follower:
		v = c.Leader.Measured
	}
	w.Strategy.Commit(c.Pt, v)
	return c
}

// Release hands a candidate CommitHead returned back to the window, to
// be reissued by a later Refill; the caller must hold no pointer to it
// afterwards. It panics on a candidate that has not committed, or was
// released already, and on a Memo window, whose leaders outlive their
// commit. An on-line driver releases what it has accounted for, so a
// steady session allocates no candidates; Tune keeps every candidate
// until its session ends, for the trial log and the memo, and then
// Recycles the window.
func (w *Window[P]) Release(c *Candidate[P]) {
	if w.Memo {
		panic("core: Release on a Memo window, whose leaders outlive their commit")
	}
	if !c.Committed {
		panic("core: Release of a candidate that has not committed")
	}
	*c = Candidate[P]{}
	w.free = append(w.free, c)
}

// recycle empties the window for another session, settings included.
// The candidates in flight and the committed ones passed in — every
// committed candidate the driver has not released — are reset whole
// and freed, and the memo, the scored table, the ring and the Refill
// scratch are emptied but keep their storage, so a session like the
// last allocates no candidates. The caller must hold no pointer to any
// candidate afterwards.
func (w *Window[P]) recycle(committed []*Candidate[P]) {
	free := w.free
	for i := range w.n {
		free = append(free, w.At(i))
	}
	free = append(free, committed...)
	for _, c := range free {
		*c = Candidate[P]{}
	}
	clear(w.leaders)
	clear(w.scored)
	clear(w.pts[:cap(w.pts)])
	clear(w.cfgs[:cap(w.cfgs)])
	*w = Window[P]{
		buf: w.buf, leaders: w.leaders, scored: w.scored, free: free,
		pts: w.pts[:0], cfgs: w.cfgs[:0], bad: w.bad[:0], scores: w.scores[:0], keep: w.keep[:0],
		work: w.work[:0], key: w.key[:0],
	}
}
