package main

import (
	"context"
	"fmt"

	"harmony/internal/cluster"
	"harmony/internal/paper"
	"harmony/internal/pop"
)

// runFig4 reproduces Fig. 4: POP block-size tuning on 480 processors
// under six node topologies. For each topology the driver reports the
// default 180x100 block time and the tuned block size and time.
func runFig4(o options) error {
	cfg := pop.DefaultConfig(3600, 2400)
	cfg.Land = true // continental mask with land-block elimination
	topos := []struct{ nodes, ppn int }{
		{30, 16}, {48, 10}, {60, 8}, {80, 6}, {120, 4}, {240, 2},
	}
	if o.quick {
		cfg = pop.DefaultConfig(720, 480)
		cfg.Land = true
		cfg.BX, cfg.BY = 180, 100
		topos = []struct{ nodes, ppn int }{{4, 8}, {8, 4}, {16, 2}}
	}
	fmt.Printf("grid %dx%d, %d steps, %d barotropic iterations per step, land mask on\n",
		cfg.NX, cfg.NY, cfg.Steps, cfg.BarotropicIters)
	fmt.Printf("%-10s %-12s %-12s %-14s %-12s %s\n",
		"topology", "default(s)", "tuned(s)", "best block", "improvement", "runs")

	paperBest := map[string]string{
		"30x16": "120x150", "48x10": "150x120", "60x8": "120x150",
		"80x6": "45x400", "120x4": "150x120", "240x2": "150x120",
	}
	for _, t := range topos {
		c := paper.Blocks(cluster.Seaborg(t.nodes, t.ppn), cfg)
		if o.quick {
			c.Options.MaxRuns = 25
		}
		defTime, err := c.Default(context.Background())
		if err != nil {
			return err
		}
		res, err := c.Tune(context.Background())
		if err != nil {
			return err
		}
		topo := fmt.Sprintf("%dx%d", t.nodes, t.ppn)
		block := fmt.Sprintf("%dx%d", res.BestConfig.Int("bx"), res.BestConfig.Int("by"))
		note := ""
		if want, ok := paperBest[topo]; ok {
			note = fmt.Sprintf("(paper: %s)", want)
		}
		fmt.Printf("%-10s %-12.3f %-12.3f %-14s %-12s %d %s\n",
			topo, defTime, res.BestValue, block,
			fmt.Sprintf("%.1f%%", pct(defTime, res.BestValue)), res.Runs, note)
	}
	fmt.Println("paper: no single block size is best for all topologies; tuned beats the 180x100 default by up to 15%")
	return nil
}
