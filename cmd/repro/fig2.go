package main

import (
	"context"
	"fmt"

	"harmony/internal/paper"
	"harmony/internal/petscsim"
	"harmony/internal/search"
	"harmony/internal/space"
	"harmony/internal/sparse"
)

// runFig2 reproduces Fig. 2(b) and the Section IV text results: the
// SLES matrix-decomposition tuning at three problem sizes. The large
// matrices use the smooth variable-density generator; the tuned
// weight vector of the 21,025 case seeds the 90,601 case, the paper's
// "information from prior runs" technique.
func runFig2(o options) error {
	app := petscsim.NewSLESApp(600, 4, 3, 60, o.seed)
	if _, err := fig2Run("small sample (Fig. 2b): 4 partitions", app, paper.SLES(app),
		"paper: tuned boundaries move off the even split toward dense-block alignment"); err != nil {
		return err
	}
	if !o.large && !o.quick {
		fmt.Println("(run with -large for the 21,025 and 90,601 matrices)")
		return nil
	}
	largeN, hugeN := 21025, 90601
	largeRuns, hugeRuns := 600, 120
	if o.quick {
		largeN, hugeN = 4000, 8000
		largeRuns, hugeRuns = 120, 60
	}
	app = petscsim.NewBandSLESApp(largeN, 32, 4, 120, 2)
	large := paper.SLES(app)
	large.Strategy = paper.Simplex(search.SimplexOptions{StepFraction: 0.35, Adaptive: true, Restarts: 20})
	large.Options.MaxRuns = largeRuns
	bestLarge, err := fig2Run(fmt.Sprintf("%d x %d on 32 ranks", largeN, largeN), app, large,
		"paper: 18% execution-time improvement")
	if err != nil {
		return err
	}
	// The weight parameterisation is size-independent: the tuned
	// relative weights of the 21,025 matrix seed the 90,601 search
	// directly.
	var seeds []space.Point
	if bestLarge != nil {
		seeds = []space.Point{bestLarge}
	}
	app = petscsim.NewBandSLESApp(hugeN, 32, 4, 120, 2)
	huge := paper.SLES(app)
	huge.Strategy = paper.Simplex(search.SimplexOptions{Seeds: seeds, StepFraction: 0.2, Adaptive: true, Restarts: 8})
	huge.Options.MaxRuns = hugeRuns
	_, err = fig2Run(fmt.Sprintf("%d x %d on 32 ranks (seeded from the previous run)", hugeN, hugeN), app, huge,
		"paper: 15-20% in ~120 iterations using prior-run information")
	return err
}

// fig2Run tunes one case and prints the before/after comparison.
// It returns the tuned point for history seeding.
func fig2Run(label string, app *petscsim.SLESApp, c paper.Campaign, note string) (space.Point, error) {
	fmt.Printf("\n--- %s ---\n", label)
	fmt.Printf("matrix: n=%d nnz=%d; %d partition-weight parameters, O(10^%.0f) points\n",
		app.A.N, app.A.NNZ(), c.Space.Dims(), c.Space.LogSize())

	defTime, err := c.Default(context.Background())
	if err != nil {
		return nil, err
	}
	res, err := c.Tune(context.Background())
	if err != nil {
		return nil, err
	}
	tunedPart := app.PartitionFor(res.BestConfig)

	fmt.Printf("default (even) decomposition: %.4f s\n", defTime)
	fmt.Printf("tuned decomposition:          %.4f s\n", res.BestValue)
	fmt.Printf("improvement: %.1f%% after %d runs (%d proposals, best at run %d)\n",
		pct(defTime, res.BestValue), res.Runs, res.Proposals, res.BestAtRun)
	fmt.Printf("note: %s\n", note)
	printPartitionLoad(app, app.DefaultPartition(), tunedPart)
	return res.Best, nil
}

// printPartitionLoad shows per-rank nonzero counts before and after:
// the load-balance mechanism of the improvement.
func printPartitionLoad(app *petscsim.SLESApp, def, tuned sparse.Partition) {
	// Plans the caller keeps, built fresh from the band's reaches.
	hpDef, err := app.A.HaloPlan(def)
	if err != nil {
		return
	}
	hpTuned, err := app.A.HaloPlan(tuned)
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
