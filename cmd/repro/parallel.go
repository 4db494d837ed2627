package main

import (
	"context"
	"fmt"
	"time"

	"harmony/internal/core"
	"harmony/internal/paper"
	"harmony/internal/petscsim"
	"harmony/internal/search"
	"harmony/internal/space"
)

// runParallel demonstrates evaluations in flight: the PRO algorithm
// was designed for many simultaneous tuning clients, so every
// independent trial of a round can be a concurrently running job. The
// experiment tunes the Fig. 2 PETSc matrix decomposition with PRO at
// one worker and at several, checks the two sessions produce the
// identical search (same runs, same best — the engine's determinism
// guarantee), and compares wall-clock time.
//
// Each evaluation is charged a real-time job-launch latency on top of
// the simulated execution, modelling the costs the paper insists on
// counting ("applications needed to be re-run and their warm up
// time"); overlapping those launches is exactly the win parallel
// tuning clients buy.
func runParallel(o options) error {
	if o.workers < 2 {
		return fmt.Errorf("-workers %d: the experiment compares 1 worker against N, so N must be at least 2", o.workers)
	}
	app := petscsim.NewSLESApp(600, 4, 3, 60, o.seed)
	c := paper.SLES(app)
	launch := 20 * time.Millisecond
	if o.quick {
		c.Options.MaxRuns, launch = 24, 5*time.Millisecond
	}

	base := c.Objective
	c.Objective = func(ctx context.Context, cfg space.Config) (float64, error) {
		// Real-time launch/warm-up latency; the simulated seconds the
		// objective returns are unaffected, so accounting is identical.
		select {
		case <-ctx.Done():
			return 0, ctx.Err()
		case <-time.After(launch):
		}
		return base(ctx, cfg)
	}

	fmt.Printf("PRO on the %d-rank PETSc decomposition, %d runs, %v launch latency per run\n",
		app.P, c.Options.MaxRuns, launch)

	type outcome struct {
		res  *core.Result
		wall time.Duration
	}
	run := func(w int, strategy func(*space.Space, space.Point) search.Strategy) (outcome, error) {
		c.Strategy, c.Options.Workers = strategy, w
		start := time.Now()
		res, err := c.Tune(context.Background())
		return outcome{res: res, wall: time.Since(start)}, err
	}
	pro := func(sp *space.Space, _ space.Point) search.Strategy {
		return search.NewPRO(sp, search.PROOptions{Seed: o.seed})
	}

	seq, err := run(1, pro)
	if err != nil {
		return err
	}
	par, err := run(o.workers, pro)
	if err != nil {
		return err
	}

	fmt.Printf("sequential (1 worker):  %3d runs, best %.4f s at run %d, wall %.2fs\n",
		seq.res.Runs, seq.res.BestValue, seq.res.BestAtRun, seq.wall.Seconds())
	fmt.Printf("parallel  (%d workers): %3d runs, best %.4f s at run %d, wall %.2fs\n",
		o.workers, par.res.Runs, par.res.BestValue, par.res.BestAtRun, par.wall.Seconds())
	if seq.res.Runs != par.res.Runs || seq.res.BestValue != par.res.BestValue {
		return fmt.Errorf("parallel session diverged from sequential: runs %d vs %d, best %v vs %v",
			seq.res.Runs, par.res.Runs, seq.res.BestValue, par.res.BestValue)
	}
	fmt.Printf("identical search, %.2fx wall-clock speedup from overlapping job launches\n",
		seq.wall.Seconds()/par.wall.Seconds())

	// The sequential simplex cannot batch, but it can speculate: while
	// a reflection runs, idle workers prefetch the expansion and
	// contraction candidates that may be proposed next.
	simplex := paper.Simplex(search.SimplexOptions{Restarts: 2})
	sseq, err := run(1, simplex)
	if err != nil {
		return err
	}
	spar, err := run(o.workers, simplex)
	if err != nil {
		return err
	}
	fmt.Printf("\nspeculative simplex: sequential wall %.2fs; with %d workers wall %.2fs "+
		"(%d prefetches launched, %d used; charged runs %d vs %d)\n",
		sseq.wall.Seconds(), o.workers, spar.wall.Seconds(),
		spar.res.SpeculativeRuns, spar.res.SpeculativeHits, sseq.res.Runs, spar.res.Runs)
	if sseq.res.BestValue != spar.res.BestValue {
		return fmt.Errorf("speculation changed the simplex result: %v vs %v",
			sseq.res.BestValue, spar.res.BestValue)
	}
	return nil
}
