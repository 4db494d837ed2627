// POP block-size tuning (the paper's Section V, Fig. 4) at laptop
// scale: find the best ocean-model block decomposition for two
// different node topologies of the same 32-processor machine, and see
// that the answers differ.
//
//	go run ./examples/pop-blocksize
package main

import (
	"context"
	"fmt"
	"log"

	"harmony/internal/cluster"
	"harmony/internal/paper"
	"harmony/internal/pop"
)

func main() {
	cfg := pop.DefaultConfig(720, 480)
	cfg.Steps = 3
	cfg.BarotropicIters = 8
	fmt.Printf("ocean grid %dx%d, default block size %dx%d\n\n", cfg.NX, cfg.NY, cfg.BX, cfg.BY)

	ctx := context.Background()
	for _, topo := range []struct{ nodes, ppn int }{{4, 8}, {16, 2}} {
		campaign := paper.Blocks(cluster.Seaborg(topo.nodes, topo.ppn), cfg)
		defTime, err := campaign.Default(ctx)
		if err != nil {
			log.Fatal(err)
		}
		res, err := campaign.Tune(ctx)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("topology %2dx%-2d: default %.3f s, tuned %.3f s with blocks %dx%d (%.1f%% better, %d runs)\n",
			topo.nodes, topo.ppn, defTime, res.BestValue,
			res.BestConfig.Int("bx"), res.BestConfig.Int("by"),
			100*(defTime-res.BestValue)/defTime, res.Runs)
	}
	fmt.Println("\nas in the paper: there is no single block size good for all topologies —")
	fmt.Println("the decomposition must be re-tuned when the machine layout changes.")
}
