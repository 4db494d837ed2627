// Benchmarks regenerating the paper's experiments at reduced scale
// (the full-scale regeneration is cmd/repro; per-layer probes are in
// bench/). BenchmarkPaperCampaigns runs the campaigns of
// internal/paper, Fig5GS2Layout the layout comparison and
// Fig6GS2Distribution the sampling pass: one iteration is one
// complete campaign or pass, so ns/op measures the cost of
// reproducing the experiment, and the custom metrics carry its
// headline result.
package harmony_test

import (
	"context"
	"maps"
	"slices"
	"testing"

	"harmony/internal/cluster"
	"harmony/internal/core"
	"harmony/internal/gs2"
	"harmony/internal/paper"
	"harmony/internal/pop"
	"harmony/internal/search"
	"harmony/internal/trace"
)

// BenchmarkPaperCampaigns runs each campaign that
// campaign_regress_test.go pins, under the pin's name, plus Table I's
// namelist sweep and Table IV's production-run tuning. The
// %improvement metric is the tuned time against the campaign's
// Default.
func BenchmarkPaperCampaigns(b *testing.B) {
	builds := campaigns()
	builds["table1-pop-namelist"] = func() paper.Campaign {
		cfg := pop.DefaultConfig(360, 240)
		cfg.BX, cfg.BY = 45, 60
		cfg.Steps, cfg.BarotropicIters = 2, 4
		return paper.Namelist(cluster.Hockney(4, 4), cfg)
	}
	builds["table4-gs2-production"] = func() paper.Campaign {
		base := gs2.DefaultConfig()
		base.Steps = 1000
		return paper.Resolution(base)
	}
	for _, name := range slices.Sorted(maps.Keys(builds)) {
		b.Run(name, func(b *testing.B) {
			c := builds[name]()
			def, err := c.Default(context.Background())
			if err != nil {
				b.Fatal(err)
			}
			var tuned float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := c.Tune(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				tuned = res.BestValue
			}
			b.ReportMetric(100*(def-tuned)/def, "%improvement")
		})
	}
}

// BenchmarkFig5GS2Layout measures the layout comparison of Fig. 5 on
// one environment.
func BenchmarkFig5GS2Layout(b *testing.B) {
	m := cluster.Seaborg(8, 16)
	var lx, yx float64
	for i := 0; i < b.N; i++ {
		for _, l := range []gs2.Layout{"lxyes", "yxles"} {
			cfg := gs2.DefaultConfig()
			cfg.Layout = l
			secs, err := gs2.Run(m, cfg)
			if err != nil {
				b.Fatal(err)
			}
			if l == "lxyes" {
				lx = secs
			} else {
				yx = secs
			}
		}
	}
	if yx > 0 {
		b.ReportMetric(lx/yx, "layout-speedup")
	}
}

// BenchmarkFig6GS2Distribution samples the GS2 configuration space
// systematically, as in Fig. 6.
func BenchmarkFig6GS2Distribution(b *testing.B) {
	base := gs2.DefaultConfig()
	base.Steps = 1000
	var frac float64
	for i := 0; i < b.N; i++ {
		sp := gs2.ResolutionSpace(32)
		sys := search.NewSystematic(sp, 100)
		_, err := core.Tune(context.Background(), sp, sys,
			gs2.ResolutionObjective(gs2.LinuxCluster, base), core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		sum := trace.Summarize(sys.Values)
		frac = trace.FractionBelow(sys.Values, sum.Min*1.6)
	}
	b.ReportMetric(100*frac, "%within-1.6x-of-best")
}
