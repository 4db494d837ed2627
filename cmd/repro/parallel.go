package main

import (
	"context"
	"fmt"
	"time"

	"harmony/internal/cluster"
	"harmony/internal/core"
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
	app := petscsim.NewSLESApp(600, 4, 3, 60, o.seed)
	m := cluster.Seaborg(app.P, 1)
	sp := app.Space()

	maxRuns := 60
	launch := 20 * time.Millisecond
	if o.quick {
		maxRuns = 24
		launch = 5 * time.Millisecond
	}
	workers := o.workers
	if workers < 2 {
		workers = 4
	}

	base := app.Objective(m)
	obj := func(ctx context.Context, cfg space.Config) (float64, error) {
		// Real-time launch/warm-up latency; the simulated seconds the
		// objective returns are unaffected, so accounting is identical.
		select {
		case <-ctx.Done():
			return 0, ctx.Err()
		case <-time.After(launch):
		}
		return base(ctx, cfg)
	}
	mkStrat := func() search.Strategy {
		return search.NewPRO(sp, search.PROOptions{Seed: o.seed})
	}

	fmt.Printf("PRO on the %d-rank PETSc decomposition, %d runs, %v launch latency per run\n",
		app.P, maxRuns, launch)

	type outcome struct {
		res  *core.Result
		wall time.Duration
	}
	run := func(w int) (outcome, error) {
		start := time.Now()
		res, err := core.Tune(context.Background(), sp, mkStrat(), obj,
			core.Options{MaxRuns: maxRuns, Workers: w})
		return outcome{res: res, wall: time.Since(start)}, err
	}

	seq, err := run(1)
	if err != nil {
		return err
	}
	par, err := run(workers)
	if err != nil {
		return err
	}

	fmt.Printf("sequential (1 worker):  %3d runs, best %.4f s at run %d, wall %.2fs\n",
		seq.res.Runs, seq.res.BestValue, seq.res.BestAtRun, seq.wall.Seconds())
	fmt.Printf("parallel  (%d workers): %3d runs, best %.4f s at run %d, wall %.2fs\n",
		workers, par.res.Runs, par.res.BestValue, par.res.BestAtRun, par.wall.Seconds())
	if seq.res.Runs != par.res.Runs || seq.res.BestValue != par.res.BestValue {
		return fmt.Errorf("parallel session diverged from sequential: runs %d vs %d, best %v vs %v",
			seq.res.Runs, par.res.Runs, seq.res.BestValue, par.res.BestValue)
	}
	fmt.Printf("identical search, %.2fx wall-clock speedup from overlapping job launches\n",
		seq.wall.Seconds()/par.wall.Seconds())

	// The sequential simplex cannot batch, but it can speculate: while
	// a reflection runs, idle workers prefetch the expansion and
	// contraction candidates that may be proposed next.
	simplexRun := func(w int) (outcome, error) {
		start := time.Now()
		res, err := core.Tune(context.Background(), sp,
			search.NewSimplex(sp, search.SimplexOptions{Start: app.EvenPoint(), Restarts: 2}),
			obj, core.Options{MaxRuns: maxRuns, Workers: w})
		return outcome{res: res, wall: time.Since(start)}, err
	}
	sseq, err := simplexRun(1)
	if err != nil {
		return err
	}
	spar, err := simplexRun(workers)
	if err != nil {
		return err
	}
	fmt.Printf("\nspeculative simplex: sequential wall %.2fs; with %d workers wall %.2fs "+
		"(%d prefetches launched, %d used; charged runs %d vs %d)\n",
		sseq.wall.Seconds(), workers, spar.wall.Seconds(),
		spar.res.SpeculativeRuns, spar.res.SpeculativeHits, sseq.res.Runs, spar.res.Runs)
	if sseq.res.BestValue != spar.res.BestValue {
		return fmt.Errorf("speculation changed the simplex result: %v vs %v",
			sseq.res.BestValue, spar.res.BestValue)
	}
	return nil
}
