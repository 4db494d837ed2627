package server

import (
	"math"
	"time"

	"harmony/internal/core"
	"harmony/internal/proto"
	"harmony/internal/search"
)

// A session is the on-line driver of core.Window, the issue/commit
// machine core.Tune drives off-line, and the only dispatch a session
// has. The machine asks the strategy, classifies every candidate and
// commits outcomes in issue order; this file owns what is on-line about
// it, with clients in place of worker goroutines: fetches hand the
// incomplete candidates to concurrent clients by tag — distinct ones
// while there are any, the least-assigned one again after that —
// reports aggregate into the candidate until it completes, and the
// straggler ladder re-issues and then forfeits what nobody reports.
// Registration.Parallel makes the window a round, Registration.Async a
// pipeline, neither a window of one candidate that every client shares
// (openWindow's depth and group); nothing else knows which.
//
// The cadence is lazy: only a fetch refills the window, just in time
// for the client that will run the work. Commit order never depends on
// report arrival; what a pipelined strategy is asked between two
// commits does (DESIGN.md has the measurement that keeps it so).

// cand is one issued proposal of a session, carrying the driver's
// hand-out and report bookkeeping; reports aggregate into worst and
// reach the candidate's measured value only through Complete.
type cand = core.Candidate[handState]

type handState struct {
	assigned int     // times handed to a client (least-assigned re-issue)
	count    int     // reports received
	worst    float64 // worst measured report; meaningful once count > 0
	expiries int     // straggler deadlines missed
}

// handout records one candidate handed to a client. It is live until it
// is reported or expires (cand = nil), or its candidate commits:
// duplicates nobody reported must neither arm a straggler deadline nor
// hold the lease for work that is already committed, and a late report
// for one is a stale tag.
type handout struct {
	cand   *cand
	issued time.Time // straggler deadline base
}

//harmonyvet:allocfree
func (h *handout) live() bool { return h.cand != nil && !h.cand.Committed }

// window is the driver state of a session. hands are the hand-outs in
// tag order, hands[i] under tag first+i: a report finds its hand-out by
// index and the expiry ladder walks issue order without sorting. Dead
// ones are dropped from the front, so the queue spans the oldest live
// hand-out to the newest.
type window struct {
	m     *core.Window[handState]
	hands []handout
	first int
}

// openWindow gives the session its window. It reads the session's
// budget, cache and gate, so those are set first.
func (ss *session) openWindow(strat search.AsyncStrategy, depth, groupMax int) {
	m := &core.Window[handState]{
		Space: ss.space, Strategy: strat,
		MaxRuns: ss.maxRuns, MaxProposals: core.DefaultMaxProposals(ss.maxRuns),
		Gate: ss.surGate, Depth: depth, GroupMax: groupMax, ForfeitUndecodable: true,
	}
	if ss.cache != nil {
		m.Cache = ss.cache
	}
	ss.win = &window{m: m, first: 1}
}

// lookup returns the live hand-out of a tag; nil if it was never
// issued, already answered, expired, or died with its candidate's commit.
//
//harmonyvet:allocfree
func (w *window) lookup(tag int) *handout {
	if i := tag - w.first; i >= 0 && i < len(w.hands) && w.hands[i].live() {
		return &w.hands[i]
	}
	return nil
}

// trim drops dead hand-outs from the front, shifting the survivors down
// so the backing array is reused.
func (w *window) trim() {
	k := 0
	for k < len(w.hands) && !w.hands[k].live() {
		k++
	}
	if k > 0 {
		n := copy(w.hands, w.hands[k:])
		clear(w.hands[n:])
		w.hands, w.first = w.hands[:n], w.first+k
	}
}

// commitHeadLocked commits the head candidate if its outcome is in
// hand, does the session's accounting for it, and reports whether it
// did. The machine's CommitHead is the only place the strategy hears
// of results.
func (ss *session) commitHeadLocked() bool {
	c := ss.win.m.CommitHead()
	if c == nil {
		return false
	}
	st := ss.stat()
	switch c.Kind {
	case core.Pruned:
		st.surrogatePruned.Add(1)
	case core.CacheHit:
		// Charged like any run (the paper's cost model counts it) and
		// complete without a client round trip.
		st.cacheHits.Add(1)
		ss.noteMeasuredLocked(c.Pt, c.Measured)
	case core.Forfeited:
		// An undecodable candidate can never be handed out, so no report
		// and no straggler deadline would ever complete it: the machine
		// answered it at issue so the window keeps moving.
		st.proposalsForfeited.Add(1)
	case core.Work:
		if ss.cache != nil {
			st.cacheMisses.Add(1)
		}
	}
	if c.Kept {
		st.surrogateKept.Add(1)
	}
	st.asyncCommitted.Add(1)
	if c.ClosesRound {
		st.roundsCompleted.Add(1)
	}
	ss.win.trim()
	return true
}

// drainLocked commits, in issue order, what client reports and
// forfeits have completed. It stops at a candidate the machine answered
// itself (a prune, a cache hit, an undecodable point): those commit
// from fetchWindowLocked, one refill after each as in core.Tune, so
// what the strategy is asked between two commits is the same whether a
// value came from a client or from the cache — a session replayed
// against a warm cache proposes what the cold one did.
func (ss *session) drainLocked() {
	m := ss.win.m
	for h := m.Head(); h != nil && h.Kind == core.Work && ss.commitHeadLocked(); h = m.Head() {
	}
}

// fetchWindowLocked hands out one candidate of the window. Distinct
// clients receive distinct candidates until the window is covered;
// further fetches re-issue the least-assigned incomplete candidate (a
// fetch is never refused — a client that lost its assignment to a
// crash re-fetches and another takes over), so at depth 1 every client
// is handed the same one. A window whose candidates were all answered
// at issue hands nothing out: each commit is followed by a refill until
// the strategy, the budget or the proposal cap ends the search.
func (ss *session) fetchWindowLocked(now time.Time) *proto.Message {
	w, m := ss.win, ss.win.m
	for {
		if !ss.converged {
			fallbacks := m.Fallbacks
			m.Refill()
			if m.Fallbacks > fallbacks {
				ss.stat().surrogateFallback.Add(int64(m.Fallbacks - fallbacks))
			}
			ss.converged = m.Finished
			if m.Stalled && m.Depth != core.Unbounded && m.Len() > 0 {
				// A bounded window left short because the strategy needs
				// commits it has not received: starved by in-flight work, not
				// drained. (A round's stall is its barrier, not starvation.)
				ss.stat().queueStarved.Add(1)
			}
		}
		if ss.commitHeadLocked() {
			continue
		}
		var pick *cand
		for i := 0; i < m.Len(); i++ {
			if c := m.At(i); !c.Done && (pick == nil || c.Payload.assigned < pick.Payload.assigned) {
				pick = c
			}
		}
		if pick == nil {
			// The head would have committed were anything complete: the
			// window is empty. If the machine could still issue, the
			// strategy is stalled with nothing in flight — done in every
			// way that matters.
			ss.converged = ss.converged || m.Open()
			return ss.bestOrCurrentLocked()
		}
		pick.Payload.assigned++
		w.hands = append(w.hands, handout{cand: pick, issued: now})
		return &proto.Message{Type: proto.TypeConfig, Values: pick.Cfg.Map(), Tag: w.first + len(w.hands) - 1}
	}
}

// reportWindowLocked matches a report to its candidate by the tag it
// echoes. Stale tags (none at all, an answered or expired hand-out, a
// committed candidate) and surplus reports are acknowledged and
// dropped: a late straggler must not corrupt what the window is
// measuring now.
func (ss *session) reportWindowLocked(msg *proto.Message) *proto.Message {
	h := ss.win.lookup(msg.Tag)
	if h == nil || h.cand.Done {
		if h != nil {
			h.cand = nil
		}
		ss.stat().reportsDroppedStale.Add(1)
		return &proto.Message{Type: proto.TypeOK}
	}
	c, p := h.cand, &h.cand.Payload
	h.cand = nil
	ss.stat().reportsAccepted.Add(1)
	// Sanitize at ingress: NaN compares false with everything, so an
	// unsanitized NaN would never displace the aggregate and could
	// deliver a best-ever value to the strategy when the candidate
	// completes. A client that measured NaN measured nothing: treat it
	// like a forfeit.
	perf := msg.Perf
	if math.IsNaN(perf) {
		perf = penaltyValue
	}
	if p.count == 0 || perf > p.worst {
		p.worst = perf
	}
	p.count++
	if p.count >= ss.reporters {
		c.Complete(p.worst)
		// A naturally completed candidate (full reports, finite
		// aggregate) is banked; forfeits never reach this path.
		if ss.cache != nil && !math.IsInf(p.worst, 0) {
			ss.cache.Store(c.Pt, p.worst)
		}
		ss.noteMeasuredLocked(c.Pt, p.worst)
		ss.drainLocked()
	}
	return &proto.Message{Type: proto.TypeOK}
}

// expireStragglersLocked applies the straggler deadline to whatever the
// session is waiting on: it retires overdue hand-outs, in issue order —
// re-issue and forfeit decisions feed the strategy and the counters,
// and the schedule they induce must not vary run to run. An expired
// candidate's assignment count is decremented so the least-assigned
// pick in fetchWindowLocked re-issues it naturally; past the re-issue
// limit the candidate is forfeited — completed with the reports it
// has, or the penalty value if it has none — so the window always
// drains.
func (ss *session) expireStragglersLocked(now time.Time) {
	if ss.reportTimeout <= 0 {
		return
	}
	w := ss.win
	for i := range w.hands {
		h := &w.hands[i]
		if !h.live() || now.Sub(h.issued) < ss.reportTimeout {
			continue
		}
		c, p := h.cand, &h.cand.Payload
		h.cand = nil
		if c.Done {
			continue // candidate already complete; nothing to redo
		}
		if p.assigned > 0 {
			p.assigned--
		}
		p.expiries++
		if p.expiries <= ss.reissueLimit() {
			ss.stat().proposalsReissued.Add(1)
			continue
		}
		if p.count == 0 {
			c.Complete(penaltyValue)
		} else {
			// Forfeited with partial reports: the surviving ranks'
			// aggregate is still a genuine measurement.
			c.Complete(p.worst)
			ss.noteMeasuredLocked(c.Pt, p.worst)
		}
		ss.stat().proposalsForfeited.Add(1)
	}
	w.trim()
	ss.drainLocked()
}
