package main

import (
	"context"
	"fmt"

	"harmony/internal/cluster"
	"harmony/internal/core"
	"harmony/internal/petscsim"
	"harmony/internal/search"
	"harmony/internal/space"
	"harmony/internal/sparse"
)

// fig2Case is one matrix-decomposition experiment.
type fig2Case struct {
	label    string
	app      *petscsim.SLESApp
	maxRuns  int
	stepFrac float64
	restarts int
	seeds    []space.Point // prior-run seeds, for the huge case
	wantNote string
}

// runFig2 reproduces Fig. 2(b) and the Section IV text results: the
// SLES matrix-decomposition tuning at three problem sizes. The large
// matrices use the smooth variable-density generator; the tuned
// weight vector of the 21,025 case seeds the 90,601 case, the paper's
// "information from prior runs" technique.
func runFig2(o options) error {
	small := fig2Case{
		label:   "small sample (Fig. 2b): 4 partitions",
		app:     petscsim.NewSLESApp(600, 4, 3, 60, o.seed),
		maxRuns: 60, restarts: 4,
		wantNote: "paper: tuned boundaries move off the even split toward dense-block alignment",
	}
	largeN, hugeN := 21025, 90601
	largeRuns, hugeRuns := 600, 120
	if o.quick {
		largeN, hugeN = 4000, 8000
		largeRuns, hugeRuns = 120, 60
	}
	large := fig2Case{
		label:   fmt.Sprintf("%d x %d on 32 ranks", largeN, largeN),
		app:     petscsim.NewBandSLESApp(largeN, 32, 4, 120, 2),
		maxRuns: largeRuns, stepFrac: 0.35, restarts: 20,
		wantNote: "paper: 18% execution-time improvement",
	}
	huge := fig2Case{
		label:   fmt.Sprintf("%d x %d on 32 ranks (seeded from the previous run)", hugeN, hugeN),
		app:     petscsim.NewBandSLESApp(hugeN, 32, 4, 120, 2),
		maxRuns: hugeRuns, stepFrac: 0.2, restarts: 8,
		wantNote: "paper: 15-20% in ~120 iterations using prior-run information",
	}

	if _, err := fig2Run(small); err != nil {
		return err
	}
	if !o.large && !o.quick {
		fmt.Println("(run with -large for the 21,025 and 90,601 matrices)")
		return nil
	}
	bestLarge, err := fig2Run(large)
	if err != nil {
		return err
	}
	// The weight parameterisation is size-independent: the tuned
	// relative weights of the 21,025 matrix seed the 90,601 search
	// directly.
	if bestLarge != nil {
		huge.seeds = []space.Point{bestLarge}
	}
	_, err = fig2Run(huge)
	return err
}

// fig2Run tunes one case and prints the before/after comparison.
// It returns the tuned point for history seeding.
func fig2Run(c fig2Case) (space.Point, error) {
	fmt.Printf("\n--- %s ---\n", c.label)
	app := c.app
	m := cluster.Seaborg(app.P, 1)
	sp := app.Space()
	fmt.Printf("matrix: n=%d nnz=%d; %d partition-weight parameters, O(10^%.0f) points\n",
		app.A.N, app.A.NNZ(), sp.Dims(), sp.LogSize())

	defPart := app.DefaultPartition()
	defTime, err := app.Run(m, defPart)
	if err != nil {
		return nil, err
	}
	res, err := core.Tune(context.Background(), sp,
		search.NewSimplex(sp, search.SimplexOptions{
			Start: app.EvenPoint(), Seeds: c.seeds,
			StepFraction: c.stepFrac, Adaptive: true, Restarts: c.restarts,
		}),
		app.Objective(m), core.Options{MaxRuns: c.maxRuns})
	if err != nil {
		return nil, err
	}
	tunedPart := app.PartitionFor(res.BestConfig)

	fmt.Printf("default (even) decomposition: %.4f s\n", defTime)
	fmt.Printf("tuned decomposition:          %.4f s\n", res.BestValue)
	fmt.Printf("improvement: %.1f%% after %d runs (%d proposals, best at run %d)\n",
		pct(defTime, res.BestValue), res.Runs, res.Proposals, res.BestAtRun)
	fmt.Printf("note: %s\n", c.wantNote)
	printPartitionLoad(app, defPart, tunedPart)
	return res.Best, nil
}

// printPartitionLoad shows per-rank nonzero counts before and after:
// the load-balance mechanism of the improvement.
func printPartitionLoad(app *petscsim.SLESApp, def, tuned sparse.Partition) {
	// Both plans are already in the app's cache: the campaign ran them.
	hpDef, err := app.HaloPlan(def)
	if err != nil {
		return
	}
	hpTuned, err := app.HaloPlan(tuned)
	if err != nil {
		return
	}
	if app.P > 8 {
		fmt.Printf("per-rank nnz: default max %d, tuned max %d (mean %d)\n",
			hpDef.MaxLocalNNZ(), hpTuned.MaxLocalNNZ(), app.A.NNZ()/app.P)
		return
	}
	fmt.Println("rank  default boundaries/nnz   tuned boundaries/nnz")
	for r := 0; r < app.P; r++ {
		dl, dh := def.Range(r)
		tl, th := tuned.Range(r)
		fmt.Printf("%4d  [%4d,%4d) %8d     [%4d,%4d) %8d\n",
			r, dl, dh, hpDef.LocalNNZ(r), tl, th, hpTuned.LocalNNZ(r))
	}
}
