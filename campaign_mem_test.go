package harmony_test

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"testing"

	"harmony/internal/cluster"
	"harmony/internal/core"
	"harmony/internal/history"
	"harmony/internal/paper"
	"harmony/internal/petscsim"
	"harmony/internal/search"
	"harmony/internal/space"
)

// TestCampaignSteadyStateHeapCeiling pins the memory behaviour of a
// warmed-up parallel campaign. An SLES run is a cost program on a
// lockstep job: jobs with their pricing slots and halo plans are
// pooled (the numeric solve pools its MatVec workspaces per
// DistMatrix rank), so a steady-state run allocates next to nothing.
// Each campaign, with its app's matrix, is built before the first
// reading, so only its runs are measured: ~315 B per run. A campaign
// after a collection emptied the job pools reads ~750 B, so the pin
// takes the least of four, and the race detector, which drops pooled
// items at random, skips it. The ceiling is ~2x the reading, so a
// regression that reintroduces per-iteration allocation (each run is
// 40 CG iterations) trips it. Both fan-out widths are pinned: more
// workers mean more jobs and plans in flight, but all of them pool,
// so the per-run cost must stay flat.
func TestCampaignSteadyStateHeapCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items, so pooled jobs are reallocated")
	}
	for _, workers := range []int{4, 8} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			build := func() paper.Campaign {
				c := campaigns()["fig2-small-pro-seq"]()
				c.Options.Workers = workers
				return c
			}
			tune := func(c paper.Campaign) int {
				res, err := c.Tune(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				return res.Runs
			}

			tune(build()) // warm the job and plan pools, and workspaces

			perRun := uint64(math.MaxUint64)
			for range 4 {
				c := build()
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				runs := tune(c)
				runtime.ReadMemStats(&after)
				perRun = min(perRun, (after.TotalAlloc-before.TotalAlloc)/uint64(runs))
			}
			const ceiling = 640 // bytes per run
			t.Logf("steady-state campaign allocates %d bytes per run", perRun)
			if perRun > ceiling {
				t.Errorf("steady-state campaign allocates %d bytes per run, ceiling %d", perRun, ceiling)
			}
		})
	}
}

// TestReplayedCampaignHeapCeiling pins what the tuner itself allocates
// per run: a Fig. 4 PRO campaign replayed from a warm evaluation cache
// runs no simulation, so everything it allocates is the engine's, the
// strategy's and the cache's bookkeeping. The ceiling is ~1.5x the
// measured 352 B per run. It read 552 B while a trial row cloned its
// point, every proposal was decoded and PRO seeded a pooled generator
// into a 1 KB buffer, 993 B before Tune pooled its window,
// candidates, memo and commit log, 1.37 KB while PRO owned a math/rand
// source and rebuilt its round state every round, and 2.56 KB before
// cache lookups stopped allocating and the trial log stopped
// regrowing; putting back a candidate per proposal trips it. A replay
// that misses the pool allocates Tune's scratch again (the race
// detector drops a quarter of what is put back, and a goroutine that
// has moved to another P may not find it), so the pin reads the least
// of eight replays.
func TestReplayedCampaignHeapCeiling(t *testing.T) {
	m := cluster.Seaborg(8, 4)
	c := campaigns()["fig4-pop-blocks"]()
	c.Strategy = func(sp *space.Space, start space.Point) search.Strategy {
		return search.NewPRO(sp, search.PROOptions{Seed: 6, Start: start})
	}
	objective := c.Objective
	var simulated atomic.Int64
	c.Objective = func(ctx context.Context, cfg space.Config) (float64, error) {
		simulated.Add(1)
		return objective(ctx, cfg)
	}
	c.Options = core.Options{MaxRuns: 40, MaxProposals: 120, Workers: 2}
	cache := history.NewEvalCache()
	campaign := func() *core.Result {
		c.Options.Cache = cache.BoundNS("fig4-pop", m.Fingerprint(), "", c.Space)
		res, err := c.Tune(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	campaign() // fill the cache
	simulated.Store(0)
	var res *core.Result
	perRun := uint64(math.MaxUint64)
	for range 8 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res = campaign()
		runtime.ReadMemStats(&after)
		perRun = min(perRun, (after.TotalAlloc-before.TotalAlloc)/uint64(res.Runs))
	}
	if n := simulated.Load(); n != 0 || res.CacheHits != res.Runs {
		t.Fatalf("replay simulated %d runs and hit the cache %d times for %d runs", n, res.CacheHits, res.Runs)
	}

	const ceiling = 528 // bytes per run
	t.Logf("replayed campaign allocates %d bytes per run (%d runs, %d proposals)", perRun, res.Runs, res.Proposals)
	if perRun > ceiling {
		t.Errorf("replayed campaign allocates %d bytes per run, ceiling %d", perRun, ceiling)
	}
}

// TestSLESCampaignAllocationCeiling pins what one campaign of the Fig. 2
// large case allocates, from building its application to its result:
// NewBandSLESApp(6000,16,4,120,2) tuned by the adaptive simplex from
// the even split, 80 runs on one worker. It reads ~38 KiB, ~3 KiB of it
// the band's runs. While the band kept 6 bytes per row it read ~71 KiB,
// and the ceiling of 48 KiB trips on that. Pooled jobs and plans are
// warmed by one campaign first, and the pin takes the least of three;
// the race detector, which drops pooled items at random, skips it.
func TestSLESCampaignAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items, so pooled jobs and plans are reallocated")
	}
	m := cluster.Seaborg(16, 1)
	campaign := func() int {
		app := petscsim.NewBandSLESApp(6000, 16, 4, 120, 2)
		sp := app.Space()
		res, err := core.Tune(context.Background(), sp,
			search.NewSimplex(sp, search.SimplexOptions{Start: app.EvenPoint(), StepFraction: 0.2, Adaptive: true, Restarts: 8}),
			app.Objective(m), core.Options{MaxRuns: 80, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		return res.Runs
	}
	campaign()
	least := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if runs := campaign(); runs != 80 {
			t.Fatalf("the campaign made %d runs, want 80", runs)
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	const ceiling = 48 << 10
	t.Logf("a Fig. 2 large campaign allocates %d bytes", least)
	if least > ceiling {
		t.Errorf("a Fig. 2 large campaign allocates %d bytes, ceiling %d", least, ceiling)
	}
}
