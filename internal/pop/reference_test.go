package pop

import (
	"reflect"
	"sync"
	"testing"

	"harmony/internal/cluster"
	"harmony/internal/simmpi"
)

// runStatsCoroutine is RunStats' rank program written for simmpi's
// coroutine engine, one rank at a time, with tagged messages: the
// differential reference for the lockstep run. Each rank sends its
// halo to its neighbours in ascending order and receives theirs in the
// same order.
func runStatsCoroutine(m *cluster.Machine, cfg Config) (simmpi.Stats, error) {
	p := m.Procs()
	ly, err := cfg.cachedLayout(p)
	if err != nil {
		return simmpi.Stats{}, err
	}
	nl, err := resolveNamelist(cfg.Namelist)
	if err != nil {
		return simmpi.Stats{}, err
	}
	costs := nl.costs()
	levels := cfg.levels()
	ioEvery := cfg.Steps
	gridBytes := 8 * cfg.NX * cfg.NY

	return simmpi.Run(m, p, func(r *simmpi.Rank) {
		id := r.ID()
		h := &ly.halo
		peers, vols := h.Dst[h.Start[id]:h.Start[id+1]], h.Bytes[h.Start[id]:h.Start[id+1]]
		pts := ly.points[id]
		exchangeHalo := func(fields, tag int) {
			for i, peer := range peers {
				r.SendBytes(peer, tag, fields*vols[i])
			}
			for _, peer := range peers {
				r.Recv(peer, tag)
			}
		}
		for step := 1; step <= cfg.Steps; step++ {
			r.Compute(pts * costs.baroclinicFlopsPerPoint)
			for x := 0; x < haloExchangesPerStep; x++ {
				exchangeHalo(haloFields*levels, 2*step)
			}
			r.Compute(pts * costs.forcingFlopsPerPoint)
			for it := 0; it < cfg.BarotropicIters; it++ {
				r.Compute(pts * costs.barotropicFlopsPerPoint)
				exchangeHalo(1, 2*step+1)
				r.Allreduce1(simmpi.Sum, pts)
			}
			if costs.diagEveryStep {
				r.Compute(pts * 4)
				r.Allreduce1(simmpi.Sum, pts)
			}
			if step%ioEvery == 0 {
				r.Barrier()
				r.Sleep(costs.ioSeconds(gridBytes, m))
			}
		}
	})
}

// TestRunStatsMatchesCoroutineReference pins the lockstep run to the
// rank program it replaced: full statistics, bit for bit, across a
// strided sample of the Fig. 4 lattice, with and without land, under
// namelists that switch on the diagnostics and change the I/O, on the
// Fig. 4 machine, a 480-rank machine and one with unequal node speeds.
func TestRunStatsMatchesCoroutineReference(t *testing.T) {
	hetero := cluster.Seaborg(6, 4)
	hetero.Gflops = []float64{1.5, 0.4, 2.2, 0.9, 1.1, 3.0}
	machines := []*cluster.Machine{cluster.Seaborg(8, 4), cluster.Seaborg(30, 16), hetero}
	namelists := []map[string]string{
		nil,
		{"ldiag_global": "on", "num_iotasks": "8"},
		{"num_iotasks": "32", "tavg_freq_opt": "nstep", "hmix_momentum_choice": "del2", "state_choice": "linear"},
	}
	runs := 0
	for _, m := range machines {
		for bx := 15; bx <= 600; bx += 90 {
			for by := 20; by <= 600; by += 140 {
				for _, land := range []bool{false, true} {
					for _, nl := range namelists {
						cfg := DefaultConfig(720, 480)
						cfg.Steps, cfg.BarotropicIters = 3, 5
						cfg.BX, cfg.BY, cfg.Land, cfg.Namelist = bx, by, land, nl
						want, werr := runStatsCoroutine(m, cfg)
						got, gerr := RunStats(m, cfg)
						if (werr != nil) != (gerr != nil) {
							t.Fatalf("%s %dx%d land %v: errors %v and %v", m, bx, by, land, gerr, werr)
						}
						if !reflect.DeepEqual(got, want) {
							t.Errorf("%s %dx%d land %v namelist %v: lockstep %+v, coroutine reference %+v",
								m, bx, by, land, nl, got, want)
						}
						runs++
					}
				}
			}
		}
	}
	t.Logf("%d configurations compared", runs)
}

// TestRunConcurrent runs one configuration from several goroutines at
// once, as a concurrent campaign does: they share the frozen layout and
// the job pool, and each must get the sequential result.
func TestRunConcurrent(t *testing.T) {
	cfg := DefaultConfig(720, 480)
	cfg.BX, cfg.BY, cfg.Steps, cfg.BarotropicIters = 45, 60, 2, 4
	m := cluster.Seaborg(8, 4)
	want, err := RunStats(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	got := make([]simmpi.Stats, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				st, err := RunStats(m, cfg)
				if err != nil {
					t.Error(err)
					return
				}
				got[w] = st
			}
		}(w)
	}
	wg.Wait()
	for w, st := range got {
		if !reflect.DeepEqual(st, want) {
			t.Errorf("worker %d: %+v, sequential run %+v", w, st, want)
		}
	}
}

// TestRunAllocatesNothing pins a warm run at zero allocations: the job
// is pooled and the layout frozen, so nothing is left to allocate.
func TestRunAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items, so pooled jobs are reallocated")
	}
	cfg := DefaultConfig(720, 480)
	cfg.Steps, cfg.BarotropicIters = 2, 4
	m := cluster.Seaborg(8, 4)
	run := func() {
		if _, err := Run(m, cfg); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if avg := testing.AllocsPerRun(20, run); avg != 0 {
		t.Errorf("warm Run allocates %v times", avg)
	}
}
