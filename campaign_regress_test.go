// Campaign regression pins: every tuning campaign below is fixed by a
// fingerprint (run/proposal counts, best point, and a hash over the
// full trial log with exact float64 bits) captured from the engine
// before the evaluation hot-path overhaul. The optimised plan caches,
// allocation-free simulator stepping, and evaluation cache must leave
// every fingerprint bit-identical: same seed, same worker count, same
// Result.
//
// Regenerate (only when a change is *meant* to alter results) with:
//
//	HARMONY_PRINT_FINGERPRINTS=1 go test -run TestCampaignFingerprints -v .
package harmony_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"testing"

	"harmony/internal/cluster"
	"harmony/internal/core"
	"harmony/internal/gs2"
	"harmony/internal/paper"
	"harmony/internal/petscsim"
	"harmony/internal/pop"
	"harmony/internal/search"
	"harmony/internal/space"
)

// fingerprint compresses a Result into a stable string: the headline
// accounting fields plus a SHA-256 over the exact bits of every trial.
func fingerprint(res *core.Result) string {
	h := sha256.New()
	var buf [8]byte
	addInt := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	addFloat := func(v float64) { addInt(int64(math.Float64bits(v))) }
	for _, t := range res.Trials {
		addInt(int64(t.Proposal))
		addInt(int64(t.Run))
		for _, c := range t.Point {
			addInt(c)
		}
		addFloat(t.Value)
		if t.Cached {
			addInt(1)
		} else {
			addInt(0)
		}
		if t.Err != nil {
			addInt(1)
		} else {
			addInt(0)
		}
	}
	bestKey := ""
	if res.Best != nil {
		bestKey = res.Best.Key()
	}
	return fmt.Sprintf("runs=%d proposals=%d failures=%d best=%s bestValue=%x bestAtRun=%d cost=%x trials=%x",
		res.Runs, res.Proposals, res.Failures, bestKey,
		math.Float64bits(res.BestValue), res.BestAtRun,
		math.Float64bits(res.TuningCost), h.Sum(nil)[:8])
}

// campaignGoldens holds the pre-overhaul fingerprints.
var campaignGoldens = map[string]string{
	"fig2-small-simplex":    "runs=50 proposals=51 failures=0 best=625,436,998,215 bestValue=3f7c19e09cbf0ea8 bestAtRun=28 cost=3fd70bb436667e21 trials=b6ce0f6b5c33bd94",
	"fig2-small-pro-seq":    "runs=40 proposals=49 failures=0 best=570,494,499,323 bestValue=3f7d06096fbfc88b bestAtRun=29 cost=3fd35e142e7f7725 trials=434be8127b2d2b54",
	"fig2-small-pro-par4":   "runs=40 proposals=49 failures=0 best=570,494,499,323 bestValue=3f7d06096fbfc88b bestAtRun=29 cost=3fd35e142e7f7725 trials=434be8127b2d2b54",
	"fig3-cavity-simplex":   "runs=30 proposals=31 failures=0 best=639,601,98,695 bestValue=3fbc7fb4c1125960 bestAtRun=28 cost=400b8f5ad82f73c8 trials=c4f61eea47a5f7a5",
	"fig4-pop-blocks":       "runs=14 proposals=26 failures=0 best=5,0 bestValue=3fa008f227c500be bestAtRun=13 cost=3fe53ad427b46c00 trials=3f0685d8c944a92c",
	"table3-gs2-resolution": "runs=35 proposals=47 failures=0 best=0,0,62 bestValue=403be612cdd61694 bestAtRun=6 cost=40990b215d8b66ce trials=467f90967b61023f",
}

// campaigns builds each pinned campaign from the catalogue, stating
// only what the pin changes: a smaller budget, PRO or the default
// simplex in place of the campaign's own, four workers.
func campaigns() map[string]func() paper.Campaign {
	fig2 := func() paper.Campaign { return paper.SLES(petscsim.NewSLESApp(600, 4, 3, 60, 11)) }
	fig2PRO := func(workers int) func() paper.Campaign {
		return func() paper.Campaign {
			c := fig2()
			c.Strategy = func(sp *space.Space, _ space.Point) search.Strategy {
				return search.NewPRO(sp, search.PROOptions{Seed: 11})
			}
			c.Options = core.Options{MaxRuns: 40, Workers: workers}
			return c
		}
	}
	return map[string]func() paper.Campaign{
		"fig2-small-simplex": func() paper.Campaign {
			c := fig2()
			c.Options.MaxRuns = 50
			return c
		},
		"fig2-small-pro-seq":  fig2PRO(0),
		"fig2-small-pro-par4": fig2PRO(4),
		"fig3-cavity-simplex": func() paper.Campaign {
			c := paper.Cavity(petscsim.NewCavityApp(40, 40, 2, 2), cluster.HeterogeneousLab())
			c.Strategy = func(sp *space.Space, _ space.Point) search.Strategy {
				return search.NewSimplex(sp, search.SimplexOptions{})
			}
			c.Options.MaxRuns = 30
			return c
		},
		"fig4-pop-blocks": func() paper.Campaign {
			cfg := pop.DefaultConfig(720, 480)
			cfg.Steps, cfg.BarotropicIters = 2, 4
			c := paper.Blocks(cluster.Seaborg(8, 4), cfg)
			c.Strategy = paper.Simplex(search.SimplexOptions{})
			c.Options.MaxRuns = 20
			return c
		},
		"table3-gs2-resolution": func() paper.Campaign { return paper.Resolution(gs2.DefaultConfig()) },
	}
}

func TestCampaignFingerprints(t *testing.T) {
	printMode := os.Getenv("HARMONY_PRINT_FINGERPRINTS") != ""
	for name, build := range campaigns() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			res, err := build().Tune(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			got := fingerprint(res)
			if printMode {
				fmt.Printf("GOLDEN\t%q: %q,\n", name, got)
				return
			}
			want, ok := campaignGoldens[name]
			if !ok {
				t.Fatalf("no golden fingerprint recorded for %s; got %s", name, got)
			}
			if got != want {
				t.Errorf("campaign %s diverged from the pre-overhaul engine:\n got %s\nwant %s", name, got, want)
			}
		})
	}
}
