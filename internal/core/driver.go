package core

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"harmony/internal/search"
	"harmony/internal/space"
)

// evalJob is one objective evaluation on a worker goroutine — the
// payload Tune hangs on a Work candidate. The coordinator writes the
// struct before launch and reads the outcome only after receiving the
// job back on the results channel, which orders the worker's writes
// before the reads.
type evalJob struct {
	key    string // point key of a speculative prefetch ("" otherwise)
	cfg    space.Config
	ctx    context.Context
	cancel context.CancelFunc // a prefetch's own; nil for work, which runs on the session's context
	value  float64
	err    error
	ran    bool                 // obj was actually invoked (not skipped by cancellation)
	done   bool                 // the coordinator has received the result
	cand   *Candidate[*evalJob] // who waits for it: set at launch, or when a proposal claims a prefetch
}

// settle completes the job's candidate once both exist: with the
// measured value, or +Inf for a failed run so the search moves away.
func (j *evalJob) settle() {
	if j.cand == nil || !j.done {
		return
	}
	v := j.value
	if j.err != nil {
		v = math.Inf(1)
	}
	j.cand.Complete(v)
}

// failure is the error of the evaluation behind a candidate, nil for a
// candidate no evaluation backs (a cache hit).
func (j *evalJob) failure() error {
	if j == nil {
		return nil
	}
	return j.err
}

// tuneScratch is what Tune needs only while it runs: the window, with
// its ring, Refill scratch, memo, scored table and every candidate it
// has made; the commit log; the evaluation jobs; the speculation maps;
// and the worker channels. Tune takes one from tuneScratchPool and puts
// it back reset once its workers have drained and the trial log is
// rendered.
type tuneScratch struct {
	win       Window[*evalJob]
	committed []*Candidate[*evalJob] // the candidates committed so far, in order: the trial log's rows
	jobs      []*evalJob             // every job made; the first used belong to the running campaign
	used      int
	spec      map[string]*evalJob // outstanding speculative prefetches
	desired   map[string]bool     // speculate's scratch: what the stalled strategy predicts
	sem       chan struct{}       // the Workers semaphore
	results   chan *evalJob       // finished evaluations, back to the coordinator
}

var tuneScratchPool = sync.Pool{New: func() any {
	return &tuneScratch{spec: make(map[string]*evalJob), desired: make(map[string]bool), results: make(chan *evalJob)}
}}

// job returns an evaluation of cfg — a speculative prefetch of the
// point with that key, or work when key is "" — in a job an earlier
// campaign may have made.
func (s *tuneScratch) job(key string, cfg space.Config) *evalJob {
	if s.used == len(s.jobs) {
		s.jobs = append(s.jobs, new(evalJob))
	}
	j := s.jobs[s.used]
	s.used++
	j.key, j.cfg = key, cfg
	return j
}

// reset empties the scratch for the next campaign, keeping its storage:
// nothing of the last campaign survives in it.
func (s *tuneScratch) reset() {
	s.win.recycle(s.committed)
	s.committed = s.committed[:0]
	for _, j := range s.jobs[:s.used] {
		*j = evalJob{}
	}
	s.used = 0
	clear(s.spec)
}

// Tune drives the strategy against the objective until the strategy
// converges, a budget is exhausted, or the context is cancelled. It
// memoises evaluations so that a lattice point proposed twice (common
// for the snapped simplex) costs only one application run.
//
// Tune is the off-line driver of the issue/commit Window: the machine
// asks, classifies and commits in issue order; Tune runs the work on
// worker goroutines, keeps the Trial/Result accounts, and refills once
// after every commit. By default a refill issues — and the surrogate
// gate screens — one whole round of the strategy's round view, whose
// stall until the round's last commit is the barrier (the simplex's
// round is one candidate); Options.Async issues one candidate at a
// time into a window of Options.AsyncDepth instead.
//
// A commit only charges the accounts and logs the candidate; the trial
// log, Result.Trials, is rendered once when Tune returns — on every
// path, cancelled and failed ones included — after the workers have
// drained, at its final length (cap equals len). Everything else Tune
// needs while it runs — the window and its candidates, the memo, the
// commit log, the evaluation jobs — is pooled scratch, reset and put
// back when it returns. Per proposal, a campaign allocates only its
// trial row, which keeps the point the strategy handed out, and what
// the strategy allocates; a charged proposal adds its memo key, one
// that runs adds one goroutine, and a point the surrogate gate scores
// the first time adds its entry in the scored table. A decoded
// configuration, a run's or one the gate scores, shares the strategy's
// point and costs no copy (search.AsyncStrategy: a strategy never
// writes a point it handed out).
// Result.BestConfig is decoded once, when Tune returns.
//
// Determinism: the issue/commit trace — and therefore every Result
// field except WorkerOccupancy and the speculation and starvation
// diagnostics — is a pure function of the strategy, the seed, Async
// and AsyncDepth. Options.Workers only decides how many issued
// evaluations run concurrently, so campaign fingerprints are
// bit-identical for every worker count. Objectives must be safe for
// concurrent calls when Workers > 1; each call receives a context that
// is cancelled when its result can no longer matter: a speculative
// prefetch's when the strategy stops predicting its point, any other
// call's when the session ends. (Simulated objectives scale
// gracefully: simmpi keeps one rank runnable per world, so Workers
// evaluations of an n-rank application are ~Workers runnable
// goroutines, not Workers×n.)
//
// A refill that leaves capacity idle because the strategy is stalled on
// in-flight values is a starved pass (Result.QueueStarved), and is
// where a strategy that speculates (the simplex) has its possible
// follow-ups prefetched; stalls are deterministic commit-sequence
// points, so the speculation schedule is too.
func Tune(ctx context.Context, sp *space.Space, strat search.Strategy, obj Objective, opt Options) (*Result, error) {
	s := tuneScratchPool.Get().(*tuneScratch)
	defer tuneScratchPool.Put(s)
	return s.tune(ctx, sp, strat, obj, opt)
}

// tune is Tune on this scratch, which it leaves reset.
func (s *tuneScratch) tune(ctx context.Context, sp *space.Space, strat search.Strategy, obj Objective, opt Options) (*Result, error) {
	workers := max(opt.Workers, 1)
	if opt.MaxProposals == 0 {
		opt.MaxProposals = DefaultMaxProposals(opt.MaxRuns)
	}
	spec := s.spec

	// What a refill may issue: one round of any size, or one candidate
	// at a time into a window of AsyncDepth.
	win := &s.win
	win.Space, win.Strategy = sp, search.Rounds(strat)
	win.MaxRuns, win.MaxProposals = opt.MaxRuns, opt.MaxProposals
	win.gate, win.Cache = newSurrogateGate(opt.Surrogate), opt.Cache
	win.Depth, win.Memo = Unbounded, true
	capacity := workers
	if opt.Async {
		win.Strategy = search.AsAsync(strat)
		win.Depth = opt.AsyncDepth
		if win.Depth <= 0 {
			win.Depth = DefaultAsyncDepth
		}
		capacity = win.Depth
	}
	as := win.Strategy
	speculator, _ := strat.(search.Speculator)

	res := &Result{Strategy: strat.Name(), BestValue: math.Inf(1), FirstValue: math.NaN()}

	// One goroutine per evaluation, gated to Workers concurrent
	// objective calls by a semaphore. The coordinator is the only
	// goroutine that touches the window, the result, or any map —
	// workers communicate exclusively through the results channel.
	// Both channels are empty again once the workers have drained.
	if cap(s.sem) != workers {
		s.sem = make(chan struct{}, workers)
	}
	sem, resultsCh := s.sem, s.results
	sent, received := 0, 0
	var busyNS atomic.Int64
	started := time.Now()
	session, cancelSession := context.WithCancel(ctx)
	launch := func(j *evalJob) {
		j.ctx = session
		if j.key != "" {
			// Only a prefetch stops mattering before the session ends.
			j.ctx, j.cancel = context.WithCancel(session)
		}
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
	}
	recv := func() {
		j := <-resultsCh
		received++
		j.done = true
		if j.cancel != nil {
			j.cancel()
		}
		j.settle()
		if !j.ran && spec[j.key] == j {
			// A waiting prefetch that cancellation cut short is
			// dropped; an on-demand proposal of its point must
			// re-evaluate. (A discarded one has already left the map.)
			delete(spec, j.key)
		}
	}

	// On exit, cancel everything still outstanding, drain the workers,
	// settle the diagnostics, render the trial log and reset the
	// scratch. Charged work that completed but was never committed (a
	// cancelled or failed session's in-flight candidates) counts as
	// speculative wall-clock.
	defer func() {
		cancelSession()
		for received < sent {
			recv()
		}
		for i := 0; i < win.Len(); i++ {
			if j := win.At(i).Payload; j != nil && j.key == "" && j.ran {
				res.SpeculativeRuns++
			}
		}
		res.SurrogateFallbacks = win.Fallbacks
		if span := time.Since(started); span > 0 {
			res.WorkerOccupancy = float64(busyNS.Load()) / (float64(span.Nanoseconds()) * float64(workers))
		}
		if res.Best != nil {
			res.BestConfig = sp.MustDecode(res.Best)
		}
		logTrials(res, s.committed)
		s.reset()
	}()

	// speculate reconciles the outstanding prefetches with what the
	// stalled strategy currently predicts: prefetches it no longer
	// predicts are discarded, new predictions are launched onto the
	// idle capacity — and only when there is more than one worker to
	// ride on.
	speculate := func(idle int) {
		if speculator == nil || workers <= 1 {
			return
		}
		desired := s.desired     // empty between passes
		var wanted []space.Point // desired and not yet prefetched, likeliest first
		for _, pt := range speculator.Speculate(idle) {
			key := pt.Key()
			if desired[key] || win.memoised(key) {
				continue
			}
			if opt.Cache != nil {
				if _, ok := opt.Cache.Lookup(pt); ok {
					continue // the cache will answer it when proposed
				}
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
		clear(desired)
		for _, pt := range wanted {
			if len(spec) >= idle {
				break
			}
			cfg, err := sp.Decode(pt)
			if err != nil {
				continue // never fail the session on a speculative point
			}
			j := s.job(pt.Key(), cfg)
			spec[j.key] = j
			launch(j)
			res.SpeculativeRuns++
		}
	}

	// refill tops the window up and puts its new work on the workers: a
	// waiting prefetch of the point if there is one, a fresh evaluation
	// otherwise. A pass the strategy's stall left short of capacity is
	// starved, and is where speculation happens.
	refill := func() {
		for _, c := range win.Refill() {
			if len(spec) > 0 {
				if j, ok := spec[c.Pt.Key()]; ok {
					delete(spec, j.key)
					c.Payload, j.cand = j, c
					j.settle()
					continue
				}
			}
			c.Payload = s.job("", c.Cfg)
			c.Payload.cand = c
			launch(c.Payload)
		}
		if idle := capacity - win.Len(); win.Stalled && win.Len() > 0 && idle > 0 {
			res.QueueStarved++
			res.IdleSlots += idle
			speculate(idle)
		}
	}

	// commit blocks until the head candidate's outcome is in hand,
	// commits it, and does the accounting: candidate logged, accounts
	// charged.
	commit := func() error {
		for !win.Head().Done {
			recv()
		}
		if win.Head().Payload.failure() != nil && ctx.Err() != nil {
			return ctx.Err()
		}
		c := win.CommitHead()
		res.Proposals++
		s.committed = append(s.committed, c)
		switch c.Kind {
		case pruned:
			// Answered with the model's prediction: logged, reported to
			// the strategy so the search can move on, charged to no
			// account, never eligible for Best, FirstValue or any cache.
			res.SurrogatePruned++
			return nil
		case follower:
			return nil
		}
		v, verr := c.Measured, c.Payload.failure()
		switch {
		case c.Kind == CacheHit:
			res.CacheHits++
		case c.Payload.key != "":
			res.SpeculativeHits++
		}
		res.Runs++
		if c.Kept {
			res.SurrogateKept++
		}
		if opt.Cache != nil && c.Kind != CacheHit {
			res.CacheMisses++
		}
		if verr != nil {
			res.Failures++
			// A failed run still paid its launch and teardown.
			res.TuningCost += opt.RunOverhead
		} else {
			res.TuningCost += v + opt.RunOverhead
			if opt.Cache != nil && c.Kind != CacheHit {
				opt.Cache.Store(c.Pt, v)
			}
		}
		if math.IsNaN(res.FirstValue) {
			res.FirstValue = v
		}
		if v < res.BestValue {
			res.Best = c.Pt.Clone()
			res.BestValue = v
			res.BestAtRun = res.Runs
		}
		if opt.Logf != nil {
			opt.Logf("run %3d (proposal %3d): %s -> %.6g", res.Runs, res.Proposals, sp.MustDecode(c.Pt).Format(), v)
		}
		return nil
	}

	// One refill pass after every commit, so the starvation accounting
	// and the speculation schedule are pure functions of the commit
	// sequence.
	for refill(); win.Len() > 0; refill() {
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
	case win.Exhausted:
		res.Proposals++
	case win.Err != nil:
		res.Proposals++
		return res, win.Err
	case as.Done():
		res.Converged = true
	}
	if res.Runs == 0 {
		return res, errNoEvaluations
	}
	return res, nil
}

// logTrials renders the committed candidates, in commit order, as
// res.Trials: allocated once at its final length, after the workers
// have drained, so every payload it reads is final. A row keeps its
// candidate's point, which the strategy handed out and no one else
// holds. Runs are numbered over the charged candidates; a Pruned trial
// carries the model's prediction, a follower its leader's outcome.
func logTrials(res *Result, committed []*Candidate[*evalJob]) {
	res.Trials = make([]Trial, len(committed))
	runs := 0
	for i, c := range committed {
		t := &res.Trials[i]
		t.Proposal, t.Point = i+1, c.Pt
		switch c.Kind {
		case pruned:
			t.Value, t.Pruned = c.Predicted, true
		case follower:
			t.Cached, t.Value, t.Err = true, c.Leader.Measured, c.Leader.Payload.failure()
		default:
			runs++
			t.Run, t.Value, t.Err = runs, c.Measured, c.Payload.failure()
		}
	}
}
