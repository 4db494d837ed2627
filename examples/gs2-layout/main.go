// GS2 data-layout tuning (the paper's Section VI): compare the
// historical default layout against the alternatives on a simulated
// cluster, then let Harmony tune the resolution/nodes parameters the
// application developer identified — reproducing, at laptop scale,
// the campaign that made the GS2 team change their default layout.
//
//	go run ./examples/gs2-layout
package main

import (
	"context"
	"fmt"
	"log"

	"harmony/internal/gs2"
	"harmony/internal/paper"
)

func main() {
	fmt.Println("step 1: layout comparison (benchmarking runs, 10 time steps)")
	m := gs2.LinuxCluster(32)
	var bestLayout gs2.Layout
	var bestTime float64
	for _, layout := range gs2.Layouts() {
		cfg := gs2.DefaultConfig()
		cfg.Layout = layout
		secs, err := gs2.Run(m, cfg)
		if err != nil {
			log.Fatal(err)
		}
		marker := ""
		if layout == gs2.DefaultLayout {
			marker = "  <- GS2's historical default"
		}
		if bestLayout == "" || secs < bestTime {
			bestLayout, bestTime = layout, secs
		}
		fmt.Printf("  layout %s: %7.2f s%s\n", layout, secs, marker)
	}
	fmt.Printf("best layout: %s\n\n", bestLayout)

	fmt.Println("step 2: tune (negrid, ntheta, nodes) on top of the best layout")
	base := gs2.DefaultConfig()
	base.Layout = bestLayout
	res, err := paper.Resolution(base).Tune(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  tuned: negrid=%d ntheta=%d nodes=%d -> %.2f s (%.1f%% better than %s default)\n",
		res.BestConfig.Int("negrid"), res.BestConfig.Int("ntheta"), res.BestConfig.Int("nodes"),
		res.BestValue, 100*(bestTime-res.BestValue)/bestTime, bestLayout)

	def := gs2.DefaultConfig()
	defTime, err := gs2.Run(m, def)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncombined speedup over the historical default (%s, untuned): %.1fx\n",
		gs2.DefaultLayout, defTime/res.BestValue)
	fmt.Println("(the paper reports 5.1x from the same two-step campaign)")
}
