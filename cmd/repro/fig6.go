package main

import (
	"context"
	"fmt"

	"harmony/internal/core"
	"harmony/internal/gs2"
	"harmony/internal/paper"
	"harmony/internal/search"
	"harmony/internal/trace"
)

// runTable3 reproduces Table III: GS2 benchmarking-run tuning of
// (negrid, ntheta, nodes) for the lxyes and yxles layouts.
func runTable3(o options) error {
	return gs2Table(o, 10, "benchmarking run (10 steps)", map[gs2.Layout]string{
		"lxyes": "paper: 43.7s -> 18.4s at (8,22,8), 57.9% in 8 iterations",
		"yxles": "paper: 16.4s -> 14.8s at (8,22,8), 9.8% in 9 iterations",
	})
}

// runTable4 reproduces Table IV: the same tuning for production runs
// (1,000 steps).
func runTable4(o options) error {
	return gs2Table(o, 1000, "production run (1,000 steps)", map[gs2.Layout]string{
		"lxyes": "paper: 1480.3s -> 244.2s at (10,20,28), 83.5% in 9 iterations",
		"yxles": "paper: 384.9s -> ~290s (5.1x combined with the layout change)",
	})
}

func gs2Table(o options, steps int, label string, notes map[gs2.Layout]string) error {
	fmt.Printf("%s; tuning (negrid, ntheta, nodes) from default (16, 26, 32)\n", label)
	for _, layout := range []gs2.Layout{"lxyes", "yxles"} {
		base := gs2.DefaultConfig()
		base.Layout = layout
		base.Steps = steps
		c := paper.Resolution(base)
		if o.quick {
			c.Options.MaxRuns = 15
		}
		defTime, err := c.Default(context.Background())
		if err != nil {
			return err
		}
		res, err := c.Tune(context.Background())
		if err != nil {
			return err
		}
		fmt.Printf("\n%q layout:\n", layout)
		fmt.Printf("  default - no tuning (16,26,32):  %.1f s\n", defTime)
		fmt.Printf("  tuned version (%d,%d,%d):        %.1f s (%.1f%%) after %d runs, best at run %d\n",
			res.BestConfig.Int("negrid"), res.BestConfig.Int("ntheta"), res.BestConfig.Int("nodes"),
			res.BestValue, pct(defTime, res.BestValue), res.Runs, res.BestAtRun)
		fmt.Printf("  %s\n", notes[layout])
	}
	return nil
}

// runFig6 reproduces Fig. 6: the performance distribution of the GS2
// configuration space under systematic sampling, and where the
// Harmony-tuned configuration falls in it.
func runFig6(o options) error {
	base := gs2.DefaultConfig()
	base.Steps = 1000 // production runs, as in the paper
	c := paper.Resolution(base)
	budget := 4000
	if o.quick {
		budget, c.Options.MaxRuns = 300, 15
	}
	fmt.Printf("search space: O(10^%.0f) configurations; systematic sampling of up to %d\n",
		c.Space.LogSize(), budget)

	sys := search.NewSystematic(c.Space, budget)
	sysRes, err := core.Tune(context.Background(), c.Space, sys, c.Objective, core.Options{})
	if err != nil {
		return err
	}
	values := sys.Values
	sum := trace.Summarize(values)
	fmt.Printf("sampled %d configurations: min %.1f s, median %.1f s, p95 %.1f s, max %.1f s\n",
		sum.Count, sum.Min, sum.P50, sum.P95, sum.Max)
	bestCfg := sysRes.BestConfig
	fmt.Printf("best sampled configuration: (negrid,ntheta,nodes) = (%d,%d,%d) at %.1f s\n",
		bestCfg.Int("negrid"), bestCfg.Int("ntheta"), bestCfg.Int("nodes"), sysRes.BestValue)
	fmt.Printf("paper: best sampled (8,16,32) at 125.8 s\n")

	threshold := sum.Min * 1.6
	fmt.Printf("fraction of configurations within 1.6x of the best: %.1f%% (paper: <2%% under 200 s)\n",
		100*trace.FractionBelow(values, threshold))

	// Where does the Harmony simplex land in this distribution?
	res, err := c.Tune(context.Background())
	if err != nil {
		return err
	}
	rank := trace.RankOf(values, res.BestValue)
	fmt.Printf("Harmony simplex found %.1f s in %d runs: better than %.1f%% of sampled configurations (paper: top 5%%)\n",
		res.BestValue, res.Runs, 100*float64(len(values)-rank)/float64(len(values)))

	fmt.Println("\nperformance distribution (execution time, s):")
	fmt.Print(trace.NewHistogram(values, 16).Render(48))
	return nil
}
