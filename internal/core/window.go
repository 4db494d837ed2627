package core

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"harmony/internal/search"
	"harmony/internal/space"
)

// DefaultAsyncDepth is the window bound of an Options.Async session
// when Options.AsyncDepth is unset: up to this many issued candidates
// may be awaiting their commit at once.
const DefaultAsyncDepth = 8

// candKind classifies one issued candidate of the window.
type candKind int

const (
	// candFresh launched an objective evaluation; charged to Runs.
	candFresh candKind = iota
	// candSpecHit consumes a speculative prefetch; charged to Runs.
	candSpecHit
	// candCacheHit was answered by Options.Cache; charged to Runs.
	candCacheHit
	// candFollower duplicates an earlier charged candidate; free.
	candFollower
	// candPruned was skipped by the surrogate model; free.
	candPruned
)

// candidate is one sequence-numbered proposal of the issue/commit
// window. The predicted score of a pruned candidate and the measured
// value of a charged one live in separate fields on purpose:
// predictions choose what to evaluate and must never flow into the
// measured accounts.
type candidate struct {
	kind   candKind
	pt     space.Point
	cfg    space.Config
	job    *evalJob   // evaluation backing a fresh or spec-hit candidate
	leader *candidate // the charged candidate a follower duplicates
	// cacheVal is the Options.Cache answer for a cache-hit candidate.
	cacheVal float64
	// score is the surrogate prediction for a pruned candidate.
	score float64
	// surKept marks a charged candidate the surrogate scored and
	// committed to simulation.
	surKept bool
	// value/err hold the committed outcome, read by later followers.
	value float64
	err   error
}

// evalJob is one objective evaluation on a worker goroutine. The
// coordinator writes the struct before launch and reads it only after
// receiving it back on the results channel, which orders the worker's
// writes before the reads.
type evalJob struct {
	key    string
	cfg    space.Config
	ctx    context.Context
	cancel context.CancelFunc
	value  float64
	err    error
	ran    bool // obj was actually invoked (not skipped by cancellation)
	// done is set by the coordinator when the result has been
	// received; candidates backed by this job are then committable.
	done bool
}

// window is the in-flight candidate FIFO, indexed by issue order, so
// the head is always the next candidate to commit. Capacity is
// reserved before a group of candidates is issued; the cursor helpers
// below are the steady-state bookkeeping of the issue/commit loop and
// are annotated (and vet-enforced) allocation-free — the engine
// allocates per candidate, never per poll.
type window struct {
	buf  []*candidate
	head int
	n    int
}

// reserve makes room for n more candidates.
func (w *window) reserve(n int) {
	if w.n+n <= len(w.buf) {
		return
	}
	buf := make([]*candidate, w.n+n)
	for i := range buf[:w.n] {
		buf[i] = w.at(i)
	}
	w.buf, w.head = buf, 0
}

//harmonyvet:allocfree
func (w *window) push(c *candidate) {
	w.buf[(w.head+w.n)%len(w.buf)] = c
	w.n++
}

// at returns the i-th in-flight candidate in issue order.
//
//harmonyvet:allocfree
func (w *window) at(i int) *candidate { return w.buf[(w.head+i)%len(w.buf)] }

//harmonyvet:allocfree
func (w *window) pop() *candidate {
	c := w.buf[w.head]
	w.buf[w.head] = nil
	w.head = (w.head + 1) % len(w.buf)
	w.n--
	return c
}

// ready reports whether the head candidate's outcome is in hand.
//
//harmonyvet:allocfree
func (w *window) ready() bool {
	if w.n == 0 {
		return false
	}
	c := w.buf[w.head]
	return c.job == nil || c.job.done
}

// applyProposalDefault fills in the MaxProposals guard.
func applyProposalDefault(opt *Options) {
	if opt.MaxProposals == 0 {
		if opt.MaxRuns > 0 {
			opt.MaxProposals = 10 * opt.MaxRuns
		} else {
			opt.MaxProposals = 10000
		}
	}
}

// lookupCache consults the cross-session cache, if configured.
func lookupCache(opt Options, pt space.Point) (float64, bool) {
	if opt.Cache == nil {
		return 0, false
	}
	return opt.Cache.Lookup(pt)
}

// Tune drives the strategy against the objective until the strategy
// converges, a budget is exhausted, StopBelow is reached, or the
// context is cancelled. It memoises evaluations so that a lattice
// point proposed twice (common for the snapped simplex) costs only
// one application run.
//
// There is one loop: an issue/commit window. A refill pass asks the
// strategy for candidates and issues them — each one a memo follower,
// a surrogate-pruned prediction, a cache answer, or an evaluation on a
// worker goroutine — and results are committed to the strategy in
// exactly the order the candidates were issued (out-of-order
// completions wait in the window). The modes differ only in what a
// refill may issue:
//
//   - By default the strategy is driven through its round view
//     (search.AsBatch): a refill issues one whole round, the strategy
//     stalls until the round's last commit — that stall is the
//     barrier — and the next refill issues the next round. A
//     sequential strategy is a round of one.
//   - With Options.Async the strategy is driven through its
//     issue/commit view (search.AsAsync), a refill issues one
//     candidate at a time, and Options.AsyncDepth bounds the window,
//     so a pipelined strategy proposes ahead of its outstanding
//     values instead of waiting at a barrier.
//
// The surrogate gate (Options.Surrogate) scores what one refill
// issues as a group: the round's keep quota by default, the
// committed-best rule per candidate under Async.
//
// Determinism: the issue/commit trace — and therefore every Result
// field except WorkerOccupancy and the speculation and starvation
// diagnostics — is a pure function of the strategy, the seed, Async
// and AsyncDepth. Options.Workers only decides how many issued
// evaluations run concurrently, so campaign fingerprints are
// bit-identical for every worker count: trials in proposal order,
// duplicates memoised, MaxRuns never exceeded by in-flight work
// (a group is truncated at the budget boundary before launch), pruned
// proposals charged to no account, StopBelow ending the session at the
// earliest qualifying measured commit. Objectives must be safe for
// concurrent calls when Workers > 1; each call receives a context that
// is cancelled when its result can no longer matter.
//
// When a refill leaves capacity idle (AsyncDepth under Async, Workers
// otherwise, minus the candidates in flight) because the strategy is
// stalled on in-flight values, the pass is counted in QueueStarved/
// IdleSlots, and a strategy that speculates (the simplex) has its
// possible follow-up proposals prefetched onto the idle capacity;
// prefetches it no longer predicts are discarded. Stalls are
// deterministic commit-sequence points, so the speculation schedule
// is too.
//
// Objectives that launch simmpi worlds scale gracefully here: the
// substrate's cooperative scheduler keeps exactly one rank runnable
// per world, so Workers concurrent evaluations of an n-rank
// application put ~Workers goroutines in front of the Go scheduler,
// not Workers×n.
func Tune(ctx context.Context, sp *space.Space, strat search.Strategy, obj Objective, opt Options) (*Result, error) {
	workers := max(opt.Workers, 1)
	applyProposalDefault(&opt)

	// What a refill may issue: one round of any size, or one candidate
	// at a time into a window of AsyncDepth.
	as := search.AsAsync(search.AsBatch(strat))
	capacity, depth, groupMax := workers, math.MaxInt, math.MaxInt
	ring := &window{}
	if opt.Async {
		as = search.AsAsync(strat)
		depth = opt.AsyncDepth
		if depth <= 0 {
			depth = DefaultAsyncDepth
		}
		capacity, groupMax = depth, 1
		ring.reserve(depth)
	}
	speculator, _ := as.(search.Speculator)
	sur := newSurrogateState(opt.Surrogate)

	res := &Result{Strategy: strat.Name(), BestValue: math.Inf(1), FirstValue: math.NaN()}
	leaders := make(map[string]*candidate) // charged candidates by key
	spec := make(map[string]*evalJob)      // outstanding speculative prefetches

	// One goroutine per evaluation, gated to Workers concurrent
	// objective calls by a semaphore. The coordinator is the only
	// goroutine that touches the strategy, the result, or any map —
	// workers communicate exclusively through the results channel.
	sem := make(chan struct{}, workers)
	resultsCh := make(chan *evalJob)
	sent, received := 0, 0
	var busyNS atomic.Int64
	started := time.Now()
	session, cancelSession := context.WithCancel(ctx)
	launch := func(key string, cfg space.Config) *evalJob {
		j := &evalJob{key: key, cfg: cfg}
		j.ctx, j.cancel = context.WithCancel(session)
		sent++
		go func() {
			sem <- struct{}{}
			if j.ctx.Err() == nil {
				j.ran = true
				t0 := time.Now()
				j.value, j.err = obj(j.ctx, j.cfg)
				busyNS.Add(int64(time.Since(t0)))
			} else {
				j.err = j.ctx.Err()
			}
			<-sem
			resultsCh <- j
		}()
		return j
	}
	recv := func() {
		j := <-resultsCh
		received++
		j.done = true
		j.cancel()
		if !j.ran && spec[j.key] == j {
			// A waiting prefetch that cancellation cut short is
			// dropped; an on-demand proposal of its point must
			// re-evaluate. (A discarded one has already left the map.)
			delete(spec, j.key)
		}
	}

	var (
		issued     int  // candidates issued (committed + in flight)
		issuedRuns int  // charged candidates issued; bounds MaxRuns
		exhausted  bool // run budget hit: the group was truncated before an uncovered candidate
		stopped    bool // StopBelow reached at a commit
		decodeErr  error
	)
	open := func() bool { return !exhausted && !stopped && decodeErr == nil }

	// On exit, cancel everything still outstanding, drain the workers,
	// and settle the wall-clock diagnostics. Charged work that
	// completed but was never committed (candidates past a StopBelow
	// cut) counts as speculative wall-clock.
	defer func() {
		cancelSession()
		for received < sent {
			recv()
		}
		for i := 0; i < ring.n; i++ {
			if c := ring.at(i); c.kind == candFresh && c.job.ran {
				res.SpeculativeRuns++
			}
		}
		if span := time.Since(started); span > 0 {
			res.WorkerOccupancy = float64(busyNS.Load()) / (float64(span.Nanoseconds()) * float64(workers))
		}
	}()

	// issue passes one group of asked candidates through the surrogate
	// gate and classifies them in issue order. The keep quota is a
	// property of the group, so the whole group is scored before any
	// member is classified. Charged candidates consume run budget and
	// the group is truncated before the first one the budget cannot
	// cover, so in-flight work can never exceed MaxRuns; followers and
	// pruned candidates cost no run.
	var prunedHere map[string]float64 // score of each point pruned in this group
	if sur != nil {
		prunedHere = make(map[string]float64)
	}
	issue := func(pts []space.Point, cfgs []space.Config) {
		var scores []float64
		var keep []bool
		if sur != nil {
			if s, ok := sur.scoreBatch(pts, cfgs); ok {
				scores, keep = s, sur.keepMask(s)
			} else {
				// Low-confidence model: evaluate the whole group.
				res.SurrogateFallbacks++
			}
		}
		ring.reserve(len(pts))
		clear(prunedHere)
		for i, pt := range pts {
			key := pt.Key()
			c := &candidate{pt: pt, cfg: cfgs[i]}
			if lead, ok := leaders[key]; ok {
				c.kind, c.leader = candFollower, lead
			} else if score, ok := prunedHere[key]; ok {
				c.kind, c.score = candPruned, score
			} else if keep != nil && !keep[i] {
				c.kind, c.score = candPruned, scores[i]
				prunedHere[key] = scores[i]
			} else {
				if opt.MaxRuns > 0 && issuedRuns >= opt.MaxRuns {
					exhausted = true
					return
				}
				issuedRuns++
				if keep != nil {
					sur.committed(scores[i])
					c.surKept = true
				}
				leaders[key] = c
				if j, ok := spec[key]; ok {
					delete(spec, key)
					c.kind, c.job = candSpecHit, j
				} else if cv, ok := lookupCache(opt, pt); ok {
					c.kind, c.cacheVal = candCacheHit, cv
				} else {
					c.job = launch(key, c.cfg)
				}
			}
			issued++
			ring.push(c)
		}
	}

	// speculate reconciles the outstanding prefetches with what the
	// stalled strategy currently predicts: prefetches it no longer
	// predicts are discarded, new predictions are launched onto the
	// idle capacity — and only when there is more than one worker to
	// ride on.
	speculate := func(idle int) {
		if speculator == nil || workers <= 1 {
			return
		}
		desired := make(map[string]bool)
		var wanted []space.Point // desired and not yet prefetched, likeliest first
		for _, pt := range speculator.Speculate(idle) {
			key := pt.Key()
			if desired[key] {
				continue
			}
			if _, ok := leaders[key]; ok {
				continue
			}
			if _, ok := lookupCache(opt, pt); ok {
				continue // the cache will answer it when proposed
			}
			desired[key] = true
			if _, ok := spec[key]; !ok {
				wanted = append(wanted, pt)
			}
		}
		for key, j := range spec {
			if !desired[key] {
				j.cancel()
				delete(spec, key)
			}
		}
		for _, pt := range wanted {
			if len(spec) >= idle {
				break
			}
			cfg, err := sp.Decode(pt)
			if err != nil {
				continue // never fail the session on a speculative point
			}
			key := pt.Key()
			spec[key] = launch(key, cfg)
			res.SpeculativeRuns++
		}
	}

	// refill issues candidates until the window is at its bound, the
	// strategy has nothing to offer, or a budget boundary is reached.
	var pts []space.Point
	var cfgs []space.Config
	refill := func() {
		stalled := false
		for open() && issued < opt.MaxProposals && ring.n < depth {
			pts, cfgs = pts[:0], cfgs[:0]
			for len(pts) < groupMax && issued+len(pts) < opt.MaxProposals {
				pt, ok := as.Ask()
				if !ok {
					stalled = !as.Done()
					break
				}
				cfg, err := sp.Decode(pt)
				if err != nil {
					// Candidates asked before it still commit first.
					decodeErr = fmt.Errorf("core: strategy %s proposed undecodable point %v: %w", strat.Name(), pt, err)
					break
				}
				pts, cfgs = append(pts, pt), append(cfgs, cfg)
			}
			if len(pts) == 0 {
				break
			}
			issue(pts, cfgs)
		}
		if idle := capacity - ring.n; stalled && open() && ring.n > 0 && idle > 0 {
			res.QueueStarved++
			res.IdleSlots += idle
			speculate(idle)
		}
	}

	// commit blocks until the head candidate's outcome is in hand and
	// commits it: trial recorded, accounts charged, value delivered to
	// the strategy.
	commit := func() error {
		for !ring.ready() {
			recv()
		}
		c := ring.pop()
		if c.job != nil && c.job.err != nil && ctx.Err() != nil {
			return ctx.Err()
		}
		res.Proposals++
		trial := Trial{Proposal: res.Proposals, Point: c.pt.Clone(), Config: c.cfg}
		switch c.kind {
		case candPruned:
			// Answered with the model's prediction: logged, reported to
			// the strategy so the search can move on, charged to no
			// account, never eligible for Best, FirstValue, StopBelow
			// or any cache.
			res.SurrogatePruned++
			trial.Value, trial.Pruned = c.score, true
			res.Trials = append(res.Trials, trial)
			as.Commit(c.pt, c.score)
			return nil
		case candFollower:
			lead := c.leader
			trial.Cached, trial.Value, trial.Err = true, lead.value, lead.err
			res.Trials = append(res.Trials, trial)
			as.Commit(c.pt, lead.value)
			return nil
		}
		var v float64
		var verr error
		switch c.kind {
		case candCacheHit:
			v = c.cacheVal
			res.CacheHits++
		case candSpecHit:
			res.SpeculativeHits++
			v, verr = c.job.value, c.job.err
		case candFresh:
			v, verr = c.job.value, c.job.err
		}
		res.Runs++
		trial.Run = res.Runs
		if c.surKept {
			res.SurrogateKept++
		}
		if opt.Cache != nil && c.kind != candCacheHit {
			res.CacheMisses++
		}
		if verr != nil {
			res.Failures++
			v = math.Inf(1)
			trial.Err = verr
			// A failed run still paid its launch and teardown.
			res.TuningCost += opt.RunOverhead
		} else {
			res.TuningCost += v + opt.RunOverhead
			if opt.Cache != nil && c.kind != candCacheHit {
				opt.Cache.Store(c.pt, v)
			}
		}
		trial.Value = v
		c.value, c.err = v, trial.Err
		if math.IsNaN(res.FirstValue) {
			res.FirstValue = v
		}
		if v < res.BestValue {
			res.Best = c.pt.Clone()
			res.BestConfig = c.cfg
			res.BestValue = v
			res.BestAtRun = res.Runs
		}
		if opt.Logf != nil {
			opt.Logf("run %3d (proposal %3d): %s -> %.6g", res.Runs, res.Proposals, c.cfg.Format(), v)
		}
		res.Trials = append(res.Trials, trial)
		as.Commit(c.pt, v)
		if opt.StopBelow != 0 && res.BestValue <= opt.StopBelow {
			stopped = true
		}
		return nil
	}

	// One refill pass after every commit, so the starvation accounting
	// and the speculation schedule are pure functions of the commit
	// sequence.
	for refill(); ring.n > 0 && !stopped; refill() {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		if err := commit(); err != nil {
			return res, err
		}
	}
	// How the session ended; a proposal that ended it without being
	// committed (over budget, undecodable) is still counted.
	switch {
	case stopped:
	case exhausted:
		res.Proposals++
	case decodeErr != nil:
		res.Proposals++
		return res, decodeErr
	case as.Done():
		res.Converged = true
	}
	if res.Runs == 0 {
		return res, ErrNoEvaluations
	}
	return res, nil
}
