package core

import (
	"context"
	"math"
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
	cancel context.CancelFunc
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

// Tune drives the strategy against the objective until the strategy
// converges, a budget is exhausted, StopBelow is reached, or the
// context is cancelled. It memoises evaluations so that a lattice
// point proposed twice (common for the snapped simplex) costs only
// one application run.
//
// Tune is the off-line driver of the issue/commit Window: the machine
// asks, classifies and commits in issue order; Tune runs the work on
// worker goroutines, keeps the Trial/Result accounts, and refills once
// after every commit. By default a refill issues — and the surrogate
// gate screens — one whole round of the strategy's round view, whose
// stall until the round's last commit is the barrier (a sequential
// strategy is a round of one); Options.Async issues one candidate at a
// time into a window of Options.AsyncDepth instead.
//
// Determinism: the issue/commit trace — and therefore every Result
// field except WorkerOccupancy and the speculation and starvation
// diagnostics — is a pure function of the strategy, the seed, Async
// and AsyncDepth. Options.Workers only decides how many issued
// evaluations run concurrently, so campaign fingerprints are
// bit-identical for every worker count. Objectives must be safe for
// concurrent calls when Workers > 1; each call receives a context that
// is cancelled when its result can no longer matter. (Simulated
// objectives scale gracefully: simmpi keeps one rank runnable per
// world, so Workers evaluations of an n-rank application are ~Workers
// runnable goroutines, not Workers×n.)
//
// A refill that leaves capacity idle because the strategy is stalled on
// in-flight values is a starved pass (Result.QueueStarved), and is
// where a strategy that speculates (the simplex) has its possible
// follow-ups prefetched; stalls are deterministic commit-sequence
// points, so the speculation schedule is too.
func Tune(ctx context.Context, sp *space.Space, strat search.Strategy, obj Objective, opt Options) (*Result, error) {
	workers := max(opt.Workers, 1)
	if opt.MaxProposals == 0 {
		opt.MaxProposals = DefaultMaxProposals(opt.MaxRuns)
	}

	// What a refill may issue: one round of any size, or one candidate
	// at a time into a window of AsyncDepth.
	win := &Window[*evalJob]{
		Space: sp, Strategy: search.AsAsync(search.AsBatch(strat)),
		MaxRuns: opt.MaxRuns, MaxProposals: opt.MaxProposals,
		Gate: NewSurrogateGate(opt.Surrogate), Cache: opt.Cache,
		Depth: Unbounded, GroupMax: Unbounded, Memo: true,
	}
	capacity := workers
	if opt.Async {
		win.Strategy = search.AsAsync(strat)
		win.Depth, win.GroupMax = opt.AsyncDepth, 1
		if win.Depth <= 0 {
			win.Depth = DefaultAsyncDepth
		}
		capacity = win.Depth
	}
	as := win.Strategy
	speculator, _ := as.(search.Speculator)

	res := &Result{Strategy: strat.Name(), BestValue: math.Inf(1), FirstValue: math.NaN()}
	spec := make(map[string]*evalJob) // outstanding speculative prefetches

	// One goroutine per evaluation, gated to Workers concurrent
	// objective calls by a semaphore. The coordinator is the only
	// goroutine that touches the window, the result, or any map —
	// workers communicate exclusively through the results channel.
	sem := make(chan struct{}, workers)
	resultsCh := make(chan *evalJob)
	sent, received := 0, 0
	var busyNS atomic.Int64
	started := time.Now()
	session, cancelSession := context.WithCancel(ctx)
	launch := func(j *evalJob) {
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
	}
	recv := func() {
		j := <-resultsCh
		received++
		j.done = true
		j.cancel()
		j.settle()
		if !j.ran && spec[j.key] == j {
			// A waiting prefetch that cancellation cut short is
			// dropped; an on-demand proposal of its point must
			// re-evaluate. (A discarded one has already left the map.)
			delete(spec, j.key)
		}
	}

	stopped := false // StopBelow reached at a commit: nothing more is issued

	// On exit, cancel everything still outstanding, drain the workers,
	// and settle the diagnostics. Charged work that completed but was
	// never committed (candidates past a StopBelow cut) counts as
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
		desired := make(map[string]bool)
		var wanted []space.Point // desired and not yet prefetched, likeliest first
		for _, pt := range speculator.Speculate(idle) {
			key := pt.Key()
			if desired[key] || win.Memoised(key) {
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
		for _, pt := range wanted {
			if len(spec) >= idle {
				break
			}
			cfg, err := sp.Decode(pt)
			if err != nil {
				continue // never fail the session on a speculative point
			}
			j := &evalJob{key: pt.Key(), cfg: cfg}
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
		if stopped {
			return
		}
		for _, c := range win.Refill() {
			if len(spec) > 0 {
				if j, ok := spec[c.Pt.Key()]; ok {
					delete(spec, j.key)
					c.Payload, j.cand = j, c
					j.settle()
					continue
				}
			}
			c.Payload = &evalJob{cfg: c.Cfg, cand: c}
			launch(c.Payload)
		}
		if idle := capacity - win.Len(); win.Stalled && win.Len() > 0 && idle > 0 {
			res.QueueStarved++
			res.IdleSlots += idle
			speculate(idle)
		}
	}

	// commit blocks until the head candidate's outcome is in hand,
	// commits it, and does the accounting: trial recorded, accounts
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
		trial := Trial{Proposal: res.Proposals, Point: c.Pt.Clone(), Config: c.Cfg}
		switch c.Kind {
		case Pruned:
			// Answered with the model's prediction: logged, reported to
			// the strategy so the search can move on, charged to no
			// account, never eligible for Best, FirstValue, StopBelow
			// or any cache.
			res.SurrogatePruned++
			trial.Value, trial.Pruned = c.Predicted, true
			res.Trials = append(res.Trials, trial)
			return nil
		case Follower:
			trial.Cached, trial.Value, trial.Err = true, c.Leader.Measured, c.Leader.Payload.failure()
			res.Trials = append(res.Trials, trial)
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
		trial.Run = res.Runs
		if c.Kept {
			res.SurrogateKept++
		}
		if opt.Cache != nil && c.Kind != CacheHit {
			res.CacheMisses++
		}
		if verr != nil {
			res.Failures++
			trial.Err = verr
			// A failed run still paid its launch and teardown.
			res.TuningCost += opt.RunOverhead
		} else {
			res.TuningCost += v + opt.RunOverhead
			if opt.Cache != nil && c.Kind != CacheHit {
				opt.Cache.Store(c.Pt, v)
			}
		}
		trial.Value = v
		if math.IsNaN(res.FirstValue) {
			res.FirstValue = v
		}
		if v < res.BestValue {
			res.Best = c.Pt.Clone()
			res.BestConfig = c.Cfg
			res.BestValue = v
			res.BestAtRun = res.Runs
		}
		if opt.Logf != nil {
			opt.Logf("run %3d (proposal %3d): %s -> %.6g", res.Runs, res.Proposals, c.Cfg.Format(), v)
		}
		res.Trials = append(res.Trials, trial)
		if opt.StopBelow != 0 && res.BestValue <= opt.StopBelow {
			stopped = true
		}
		return nil
	}

	// One refill pass after every commit, so the starvation accounting
	// and the speculation schedule are pure functions of the commit
	// sequence.
	for refill(); win.Len() > 0 && !stopped; refill() {
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
	case win.Exhausted:
		res.Proposals++
	case win.Err != nil:
		res.Proposals++
		return res, win.Err
	case as.Done():
		res.Converged = true
	}
	if res.Runs == 0 {
		return res, ErrNoEvaluations
	}
	return res, nil
}
