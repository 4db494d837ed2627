package main

import (
	"context"
	"fmt"

	"harmony/internal/cluster"
	"harmony/internal/core"
	"harmony/internal/paper"
	"harmony/internal/pop"
	"harmony/internal/space"
)

// popParamConfig builds the POP configuration for the Tables I/II
// parameter study: 32 processors on Hockney (8 nodes x 4 ppn).
func popParamConfig(o options) (*cluster.Machine, pop.Config) {
	m := cluster.Hockney(8, 4)
	cfg := pop.DefaultConfig(720, 480)
	cfg.BX, cfg.BY = 90, 120 // 8x4 blocks, one per processor
	cfg.Steps = 3
	cfg.BarotropicIters = 8
	if o.quick {
		cfg = pop.DefaultConfig(360, 240)
		cfg.BX, cfg.BY = 45, 60
		cfg.Steps = 2
		cfg.BarotropicIters = 4
	}
	return m, cfg
}

// popParamTune runs the coordinate-descent parameter sweep the paper
// uses for Tables I and II and returns the tuning result plus the
// default time.
func popParamTune(o options) (*core.Result, float64, *space.Space, error) {
	c := paper.Namelist(popParamConfig(o))
	defTime, err := c.Default(context.Background())
	if err != nil {
		return nil, 0, nil, err
	}
	res, err := c.Tune(context.Background())
	return res, defTime, c.Space, err
}

// runTable1 reproduces Table I: the parameter that changes at each
// tuning iteration (one simulation run per iteration).
func runTable1(o options) error {
	res, defTime, sp, err := popParamTune(o)
	if err != nil {
		return err
	}
	fmt.Println("iteration  parameter               change from -> to")
	fmt.Println("        0  (use default configuration)")
	incumbent := pop.DefaultNamelist()
	incumbentVal := defTime
	rows := 0
	for _, tr := range res.Trials {
		if tr.Run == 0 || tr.Err != nil {
			continue
		}
		if tr.Value >= incumbentVal {
			continue
		}
		cfg := sp.MustDecode(tr.Point).Map()
		for _, name := range pop.NamelistNames() {
			if cfg[name] != incumbent[name] {
				fmt.Printf("%9d  %-22s  %s -> %s\n", tr.Run, name, incumbent[name], cfg[name])
				rows++
			}
		}
		incumbent = cfg
		incumbentVal = tr.Value
	}
	fmt.Printf("\n%d improving iterations out of %d runs\n", rows, res.Runs)
	at12 := improvementAtRun(res, defTime, 12)
	at27 := improvementAtRun(res, defTime, 27)
	fmt.Printf("improvement after 12 configurations: %.1f%% (paper: 12.1%%)\n", at12)
	fmt.Printf("improvement after 27 iterations:     %.1f%% (paper: 16.7%%)\n", at27)
	fmt.Printf("final improvement: %.1f%% after %d runs\n", pct(defTime, res.BestValue), res.Runs)
	return nil
}

// improvementAtRun reports the percentage improvement of the best
// value seen within the first n application runs.
func improvementAtRun(res *core.Result, base float64, n int) float64 {
	best := base
	for _, tr := range res.Trials {
		if tr.Run == 0 || tr.Err != nil || tr.Run > n {
			continue
		}
		if tr.Value < best {
			best = tr.Value
		}
	}
	return pct(base, best)
}

// runTable2 reproduces Table II: parameter values before and after
// tuning, plus the per-parameter sensitivity report extracted from
// the same runs (Section VII's "contribution of each individual
// component", computed rather than guessed).
func runTable2(o options) error {
	res, defTime, sp, err := popParamTune(o)
	if err != nil {
		return err
	}
	def := pop.DefaultNamelist()
	tuned := res.BestConfig.Map()
	fmt.Printf("%-24s %-10s %s\n", "parameter", "default", "after tuning")
	changed := 0
	for _, name := range pop.NamelistNames() {
		if tuned[name] != def[name] {
			fmt.Printf("%-24s %-10s %s\n", name, def[name], tuned[name])
			changed++
		}
	}
	fmt.Printf("\n%d of %d parameters changed; execution time %.4f -> %.4f s (%.1f%%)\n",
		changed, len(def), defTime, res.BestValue, pct(defTime, res.BestValue))
	fmt.Println("paper: 12 parameters changed (Table II), 16.7% improvement")

	fmt.Println("\nper-parameter sensitivity (spread of per-level mean time, top 8):")
	sens := core.Sensitivity(sp, res.Trials)
	for i, s := range sens {
		if i == 8 || s.Spread == 0 {
			break
		}
		fmt.Printf("  %-24s %5.1f%%  best=%s\n", s.Name, 100*s.Spread, s.BestValue)
	}
	return nil
}
