package gs2

import (
	"math"
	"reflect"
	"testing"

	"harmony/internal/cluster"
	"harmony/internal/simmpi"
)

// simulateStats runs simulate on a fresh job and returns tLess and the
// job's statistics.
func simulateStats(t *testing.T, m *cluster.Machine, cfg Config, pl *plans, steps int) (float64, simmpi.Stats) {
	t.Helper()
	job, err := simmpi.AcquireLockstep(m, m.Procs())
	if err != nil {
		t.Fatal(err)
	}
	defer job.Release()
	tLess := simulate(job, cfg, pl, steps)
	return tLess, job.Stats()
}

// countedPlans holds a shape's redistributions each frozen from its
// own count, the ways back included: the independent reference for a
// run that takes each way back as its outbound plan mirrored.
type countedPlans struct {
	toXY, fromXY, toLE, fromLE *redist
}

func countPlans(cfg Config, p int) countedPlans {
	d, xy, le := cfg.Dims(), cfg.Layout.front("xy"), cfg.Layout.front("le")
	cp := countedPlans{
		toXY:   freeze(d, cfg.Layout, xy, p, 1),
		fromXY: freeze(d, xy, cfg.Layout, p, 1),
	}
	if cfg.Collisions {
		cp.toLE = freeze(d, cfg.Layout, le, p, collRedistFraction)
		cp.fromLE = freeze(d, le, cfg.Layout, p, collRedistFraction)
	}
	return cp
}

// freeze counts a redistribution into fresh storage and freezes it.
func freeze(d Dims, home, target Layout, p int, fraction float64) *redist {
	mv := countMoves(d, home, target, p)
	return newRedist(&mv, fraction)
}

// simulateCoroutine is simulate's rank program written for simmpi's
// coroutine engine, one rank at a time, with the per-rank work computed
// from the chunk sizes and each exchange handed as its counted
// pattern's dense rows: the differential reference for the lockstep
// run.
func simulateCoroutine(m *cluster.Machine, cfg Config, pl countedPlans, steps int) (simmpi.Stats, error) {
	p := m.Procs()
	d := cfg.Dims()
	n := d.n()
	fieldWork := fieldSolveFlops * float64(d.X*d.Y) * elemWeight
	toXY, fromXY := dense(pl.toXY.exchange), dense(pl.fromXY.exchange)
	var toLE, fromLE [][]int
	if cfg.Collisions {
		toLE, fromLE = dense(pl.toLE.exchange), dense(pl.fromLE.exchange)
	}
	return simmpi.Run(m, p, func(r *simmpi.Rank) {
		id := r.ID()
		chunk := float64(chunkOf(n, p, id))
		redistribute := func(rd *redist, rows [][]int) {
			if rd.totalMoved == 0 {
				return
			}
			r.Compute(rd.pack[id] * rd.fraction)
			r.AlltoallvBytesRow(rows[id])
			r.Compute(rd.unpack[id] * rd.fraction)
		}
		r.Sleep(initFixedSeconds)
		redistribute(pl.toXY, toXY)
		r.Compute(chunk * elemWeight * (nonlinearFlops + implicitFlops) * initStepEquivalents)
		redistribute(pl.fromXY, fromXY)
		for s := 0; s < steps; s++ {
			redistribute(pl.toXY, toXY)
			r.Compute(chunk * elemWeight * nonlinearFlops)
			redistribute(pl.fromXY, fromXY)
			r.Compute(chunk * elemWeight * implicitFlops)
			if cfg.Collisions {
				redistribute(pl.toLE, toLE)
				r.Compute(chunk * elemWeight * collisionFlops)
				redistribute(pl.fromLE, fromLE)
			}
			r.Compute(fieldWork)
			r.AllreduceBytes(8 * fieldSolveDoubles)
			r.Sleep(stepOverheadSeconds)
		}
	})
}

// TestSimulateMatchesCoroutineReference pins the lockstep run to the
// rank program it replaced, fed every way back from its own count:
// full statistics, and the marked shorter-run time against the
// reference run one step shorter, bit for bit, for every layout with and without collisions on
// 2 to 64 nodes and one to three simulated steps, and Run's
// extrapolated time for Steps 1 to 10.
func TestSimulateMatchesCoroutineReference(t *testing.T) {
	resolutions := [][2]int{{16, 26}, {8, 16}, {13, 41}}
	for _, l := range Layouts() {
		for _, coll := range []bool{false, true} {
			for nodes := 2; nodes <= 64; nodes++ {
				m := LinuxCluster(nodes)
				p := m.Procs()
				res := resolutions[nodes%len(resolutions)]
				cfg := Config{Layout: l, Negrid: res[0], Ntheta: res[1], Collisions: coll}
				pl, ref := cfg.plans(p), countPlans(cfg, p)
				var refFull [4]float64
				for steps := 1; steps <= 3; steps++ {
					want, err := simulateCoroutine(m, cfg, ref, steps)
					wantLess := refFull[steps-1]
					if err != nil {
						t.Fatal(err)
					}
					gotLess, got := simulateStats(t, m, cfg, pl, steps)
					if math.Float64bits(gotLess) != math.Float64bits(wantLess) || !reflect.DeepEqual(got, want) {
						t.Errorf("%+v on %s, %d steps: lockstep %v %+v, coroutine reference %v %+v",
							cfg, m, steps, gotLess, got, wantLess, want)
					}
					refFull[steps] = want.Time
				}
				for cfg.Steps = 1; cfg.Steps <= 10; cfg.Steps++ {
					s := min(cfg.Steps, 3)
					want := refFull[s] + float64(cfg.Steps-s)*(refFull[s]-refFull[s-1])
					got, err := Run(m, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Errorf("%+v on %s: Run %v, coroutine reference %v", cfg, m, got, want)
					}
				}
				plansCache.Delete(plansKey{d: cfg.Dims(), l: l, coll: coll, p: p}) // keep the test's heap small
			}
		}
	}
}

// TestRunAllocatesNothing pins a warm run at zero allocations: the job
// is pooled and the plans frozen and priced, so nothing is left to
// allocate.
func TestRunAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items, so pooled jobs are reallocated")
	}
	m := LinuxCluster(32)
	for _, coll := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.Collisions = coll
		run := func() {
			if _, err := Run(m, cfg); err != nil {
				t.Fatal(err)
			}
		}
		run()
		if avg := testing.AllocsPerRun(20, run); avg != 0 {
			t.Errorf("collisions %v: warm Run allocates %v times", coll, avg)
		}
	}
}
