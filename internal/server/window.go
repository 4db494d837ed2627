package server

import (
	"math"
	"sort"
	"time"

	"harmony/internal/proto"
	"harmony/internal/search"
	"harmony/internal/space"
)

// The issue/commit window: the server-side face of core.Tune's engine
// and the only fan-out mechanism a session has. A refill asks the
// strategy for a group of candidates and issues them — each one a
// cache answer, a surrogate-pruned prediction, or work for a client —
// fetches hand distinct incomplete candidates to concurrent clients by
// tag, and completed candidates commit to the strategy strictly in
// issue order, whatever order their reports arrive in. Out-of-order
// completions wait in the window; only commitHeadLocked tells the
// strategy about results, and only at the head.
//
// Three values, set at registration, decide what a refill may issue;
// nothing else knows which kind of session it serves:
//
//   - Registration.Parallel drives the strategy through its round view
//     (search.AsBatch under search.AsAsync), leaves the window
//     unbounded and classifies everything asked until the adapter
//     stalls as one group. That stall lasts until the round's last
//     commit — it is the round barrier.
//   - Registration.Async drives the strategy through its issue/commit
//     view, bounds the window by the session's depth and classifies
//     one candidate at a time, so a fast client is never parked behind
//     the slowest member of a round.
//
// Measured and predicted values stay in separate fields (worst vs
// pred), meeting only in the Commit call at the strategy boundary —
// the one channel predictions are designed to flow through. Keeping
// them apart is what lets prunepurity prove mechanically that no
// surrogate prediction can reach the evaluation cache, the
// measured-best shadow, or run accounting through this struct.

// unbounded is the depth and group size of a round-structured window:
// what is in flight is bounded by the strategy's round, not by a count.
const unbounded = math.MaxInt

// window is the fan-out state of a tagged session.
type window struct {
	strat    search.AsyncStrategy
	depth    int // candidates that may await their commit at once
	groupMax int // candidates one refill classifies together (the surrogate's quota group)

	queue     []*candidate    // issued, uncommitted candidates in issue order
	tags      map[int]handout // outstanding hand-outs by wire tag
	nextTag   int
	exhausted bool          // run budget hit; the window drains, nothing new is issued
	group     []space.Point // refill scratch
}

func newWindow(strat search.AsyncStrategy, depth, groupMax int) *window {
	return &window{strat: strat, depth: depth, groupMax: groupMax, tags: make(map[int]handout)}
}

// candidate is one issued proposal of the window.
type candidate struct {
	pt          space.Point
	assigned    int     // times handed to a client (least-assigned re-issue)
	count       int     // reports received
	worst       float64 // worst measured report (-Inf sentinel: none yet)
	pred        float64 // surrogate prediction, pruned candidates only
	pruned      bool    // answered by the model, never handed to a client
	complete    bool    // all reports in (or preset / forfeited)
	preset      bool    // complete at issue — a cache hit or a prune — no client ever sees it
	expiries    int     // straggler deadlines missed
	closesRound bool    // last candidate of a group the strategy's stall closed
}

// handout records one candidate handed to a client.
type handout struct {
	cand   *candidate
	issued time.Time // straggler deadline base
}

// refillLocked tops the window up: it asks the strategy for groups of
// candidates and issues them until the window is at its depth, the
// strategy has nothing to offer, or the run budget is spent.
func (ss *session) refillLocked() {
	w := ss.win
	stalled := false
	for !ss.converged && !w.exhausted && !stalled && len(w.queue) < w.depth {
		group := w.group[:0]
		for len(group) < w.groupMax {
			pt, ok := w.strat.Ask()
			if !ok {
				if w.strat.Done() {
					ss.converged = true
				} else {
					stalled = true
				}
				break
			}
			group = append(group, pt)
		}
		w.group = group
		if len(group) == 0 {
			break
		}
		// A group the strategy's stall closed is one whole round: the
		// strategy hears about it when its last candidate commits.
		ss.issueLocked(group, stalled)
	}
	if stalled && w.depth != unbounded && len(w.queue) > 0 {
		// A bounded window left short because the strategy needs commits
		// it has not received: starved by in-flight work, not drained. (A
		// round's stall is its barrier, not starvation.)
		ss.stat().queueStarved.Add(1)
	}
}

// issueLocked passes one group of asked candidates through the
// evaluation cache and the surrogate gate and classifies them in issue
// order. The keep quota is a property of the group, so the whole group
// is scored before any member is classified; any point the model
// declines — or cannot even decode — sends the entire group to clients.
// Cache hits (complete at their genuine past measurement) and
// candidates bound for clients are charged, and the group is truncated
// before the first one the budget cannot cover, so runs never exceeds
// maxRuns; the candidates left unissued are abandoned, which the
// AsyncStrategy contract allows. Pruned candidates complete at the
// model's prediction and cost no run.
func (ss *session) issueLocked(group []space.Point, round bool) {
	w := ss.win
	var scores []float64
	var keep []bool
	if ss.surGate != nil {
		sc := make([]float64, len(group))
		ok := true
		for i, pt := range group {
			cfg, err := ss.space.Decode(pt)
			if err != nil {
				ok = false
				break
			}
			if sc[i], ok = ss.surGate.Score(pt, cfg); !ok {
				break
			}
		}
		if ok {
			scores, keep = sc, ss.surGate.Keep(sc)
		} else {
			ss.stat().surrogateFallback.Add(1)
		}
	}
	for i, pt := range group {
		c := &candidate{pt: pt, worst: math.Inf(-1)}
		// Cache before gate: a genuine past measurement beats a prediction.
		cached, hit := 0.0, false
		if ss.cache != nil {
			if cached, hit = ss.cache.Lookup(pt); !hit {
				ss.stat().cacheMisses.Add(1)
			}
		}
		if !hit && keep != nil && !keep[i] && ss.surPrunes < ss.pruneBudget() {
			ss.surPrunes++
			ss.stat().surrogatePruned.Add(1)
			c.pred, c.pruned, c.complete, c.preset = scores[i], true, true, true
			w.queue = append(w.queue, c)
			continue
		}
		if ss.maxRuns > 0 && ss.runs >= ss.maxRuns {
			w.exhausted = true
			return
		}
		ss.runs++
		switch {
		case hit:
			// Charged like any run (the paper's cost model counts it) and
			// complete without a client round trip.
			ss.stat().cacheHits.Add(1)
			ss.noteMeasuredLocked(pt, cached)
			c.worst, c.complete, c.preset = cached, true, true
		case keep != nil:
			ss.surGate.Committed(scores[i])
			ss.stat().surrogateKept.Add(1)
		}
		// An undecodable candidate is charged here and forfeited when a
		// fetch tries to hand it out.
		w.queue = append(w.queue, c)
	}
	if round {
		w.queue[len(w.queue)-1].closesRound = true
	}
}

// commitHeadLocked commits the head candidate to the strategy if it is
// complete, and reports whether it did. This is the only place a
// window talks to the strategy about results. The candidate's
// outstanding hand-outs die with it: duplicates nobody reported must
// neither arm a straggler deadline nor hold the lease for work that is
// already committed, and a late report for one is an unknown tag.
func (ss *session) commitHeadLocked() bool {
	w := ss.win
	if len(w.queue) == 0 || !w.queue[0].complete {
		return false
	}
	c := w.queue[0]
	n := copy(w.queue, w.queue[1:])
	w.queue[n] = nil
	w.queue = w.queue[:n]
	for tag, h := range w.tags {
		if h.cand == c {
			delete(w.tags, tag)
		}
	}
	if c.pruned {
		w.strat.Commit(c.pt, c.pred)
	} else {
		w.strat.Commit(c.pt, c.worst)
	}
	ss.stat().asyncCommitted.Add(1)
	if c.closesRound {
		ss.stat().roundsCompleted.Add(1)
	}
	return true
}

// drainLocked commits, in issue order, what client reports and
// forfeits have completed. It stops at a preset candidate: those commit
// from fetchWindowLocked, one refill after each as in core.Tune, so
// what the strategy is asked between two commits is the same whether a
// value came from a client or from the cache — a session replayed
// against a warm cache proposes what the cold one did.
func (ss *session) drainLocked() {
	w := ss.win
	for len(w.queue) > 0 && !w.queue[0].preset && ss.commitHeadLocked() {
	}
}

// fetchWindowLocked hands out one candidate of the window. Distinct
// clients receive distinct candidates until the window is covered;
// further fetches re-issue the least-assigned incomplete candidate (a
// fetch is never refused — a client that lost its assignment to a
// crash re-fetches and another takes over). A window whose candidates
// were all preset hands nothing out: each commit is followed by a
// refill until the strategy or the budget ends the search.
func (ss *session) fetchWindowLocked(now time.Time) *proto.Message {
	w := ss.win
	for {
		ss.refillLocked()
		if ss.commitHeadLocked() {
			continue
		}
		var pick *candidate
		for _, c := range w.queue {
			if !c.complete && (pick == nil || c.assigned < pick.assigned) {
				pick = c
			}
		}
		if pick == nil {
			// The head would have committed were anything complete: the
			// window is empty. With budget left, the strategy is stalled
			// with nothing in flight — done in every way that matters.
			if !w.exhausted {
				ss.converged = true
			}
			return ss.bestOrCurrentLocked()
		}
		cfg, err := ss.space.Decode(pick.pt)
		if err != nil {
			// An undecodable candidate can never be handed out, so no
			// report and no straggler deadline would ever complete it:
			// forfeit it now so the window keeps moving.
			pick.worst, pick.complete = penaltyValue, true
			ss.stat().proposalsForfeited.Add(1)
			continue
		}
		pick.assigned++
		w.nextTag++
		w.tags[w.nextTag] = handout{cand: pick, issued: now}
		return &proto.Message{Type: proto.TypeConfig, Values: cfg.Map(), Tag: w.nextTag}
	}
}

// reportWindowLocked matches a tagged report to its candidate. Stale
// tags (an expired hand-out, a committed candidate) and surplus reports
// are acknowledged and dropped: a late straggler must not corrupt what
// the window is measuring now.
func (ss *session) reportWindowLocked(msg *proto.Message) *proto.Message {
	w := ss.win
	h, ok := w.tags[msg.Tag]
	delete(w.tags, msg.Tag)
	if !ok || h.cand.complete {
		ss.stat().reportsDroppedStale.Add(1)
		return &proto.Message{Type: proto.TypeOK}
	}
	c := h.cand
	c.count++
	ss.stat().reportsAccepted.Add(1)
	// Sanitize at ingress: NaN compares false with everything, so an
	// unsanitized NaN report would leave worst at its -Inf sentinel and
	// deliver a best-ever value to the strategy when the candidate
	// completes. A client that measured NaN measured nothing: treat it
	// like a forfeit.
	perf := msg.Perf
	if math.IsNaN(perf) {
		perf = penaltyValue
	}
	if perf > c.worst {
		c.worst = perf
	}
	if c.count >= ss.reporters {
		c.complete = true
		// A naturally completed candidate (full reports, finite
		// aggregate) is banked; forfeits never reach this path.
		if ss.cache != nil && !math.IsInf(c.worst, 0) {
			ss.cache.Store(c.pt, c.worst)
		}
		ss.noteMeasuredLocked(c.pt, c.worst)
		ss.drainLocked()
	}
	return &proto.Message{Type: proto.TypeOK}
}

// expireWindowLocked retires overdue hand-outs. An expired candidate's
// assignment count is decremented so the least-assigned pick in
// fetchWindowLocked re-issues it naturally; past the re-issue limit the
// candidate is forfeited — completed with the reports it has, or the
// penalty value if it has none — so the window always drains.
func (ss *session) expireWindowLocked(now time.Time) {
	w := ss.win
	if len(w.tags) == 0 {
		return
	}
	// Visit outstanding tags in issue order, not map order: re-issue
	// and forfeit decisions feed the strategy and the counters, and
	// the schedule they induce must not vary run to run.
	tags := make([]int, 0, len(w.tags))
	for tag := range w.tags {
		tags = append(tags, tag)
	}
	sort.Ints(tags)
	for _, tag := range tags {
		h := w.tags[tag]
		if now.Sub(h.issued) < ss.reportTimeout {
			continue
		}
		delete(w.tags, tag)
		c := h.cand
		if c.complete {
			continue // candidate already complete; nothing to redo
		}
		if c.assigned > 0 {
			c.assigned--
		}
		c.expiries++
		if c.expiries <= ss.reissueLimit() {
			ss.stat().proposalsReissued.Add(1)
			continue
		}
		if c.worst == math.Inf(-1) {
			c.worst = penaltyValue
		} else {
			// Forfeited with partial reports: the surviving ranks'
			// aggregate is still a genuine measurement.
			ss.noteMeasuredLocked(c.pt, c.worst)
		}
		c.complete = true
		ss.stat().proposalsForfeited.Add(1)
	}
	ss.drainLocked()
}
