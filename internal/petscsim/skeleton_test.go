package petscsim

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"harmony/internal/cluster"
	"harmony/internal/ksp"
	"harmony/internal/simmpi"
	"harmony/internal/space"
	"harmony/internal/sparse"
)

// runNumeric is the benchmarking run as it was before it became
// cost-only, kept as the reference: every rank really solves its share
// of a·x = 1 with ksp.CG at rtol 0 on the partition's DistMatrix,
// where a is the valued matrix of the generator the app's structure
// came from. It also reports rank 0's solver result, so the caller can
// check the solve spent its whole iteration budget.
func runNumeric(app *SLESApp, a *sparse.CSR, m *cluster.Machine, part sparse.Partition) (simmpi.Stats, ksp.Result, error) {
	dm, err := sparse.NewDistMatrix(a, part)
	if err != nil {
		return simmpi.Stats{}, ksp.Result{}, err
	}
	ones := make([]float64, a.N)
	for i := range ones {
		ones[i] = 1
	}
	var res ksp.Result
	st, err := simmpi.Run(m, app.P, func(r *simmpi.Rank) {
		_, out := ksp.CG(r, dm, dm.Scatter(r.ID(), ones), 0, app.Iterations)
		if r.ID() == 0 {
			res = out
		}
	})
	return st, res, err
}

// skewed returns Seaborg(nodes, ppn) with node speeds spread over
// 0.2–1.0 GFLOP/s: two link classes and unequal processors, so neither
// the message costs nor the compute charges are uniform across ranks.
func skewed(nodes, ppn int) *cluster.Machine {
	m := cluster.Seaborg(nodes, ppn)
	m.Name = fmt.Sprintf("skewed-%dx%d", nodes, ppn)
	for i := range m.Gflops {
		m.Gflops[i] = 0.2 + 0.8*float64((i*5)%nodes)/float64(nodes)
	}
	return m
}

// TestSLESSkeletonEqualsNumeric is the equivalence the cost-only run
// rests on: for the three SLES matrices the tests and benchmarks use,
// on a homogeneous and a heterogeneous machine, at the even point and
// at 40 seeded random points each, the statistics of the CG skeleton
// on the lockstep executor — job time, every rank's clock, compute and
// wait seconds, bytes and messages — are exactly those of the numeric
// solve on the coroutine engine. The fixed-work precondition
// (the numeric solve ran all Iterations iterations and did not
// converge) is asserted on every case, not assumed. The app holds its
// matrix's pattern only, as each row's reach; the numeric solve runs on
// the valued matrix of the same generator, which BandOf must read back
// as exactly that band.
func TestSLESSkeletonEqualsNumeric(t *testing.T) {
	cases := []struct {
		name     string
		app      *SLESApp
		valued   *sparse.CSR
		machines []*cluster.Machine
	}{
		{"dense-600", NewSLESApp(600, 4, 3, 60, 11), sparse.DenseBlockLaplacian(600, sparse.RandomBlocks(600, 3, 60, 11)),
			[]*cluster.Machine{cluster.Seaborg(4, 1), cluster.HeterogeneousLab()}},
		{"band-6000", NewBandSLESApp(6000, 16, 4, 120, 2), sparse.VariableBandLaplacian(6000, 4, 120, 2),
			[]*cluster.Machine{cluster.Seaborg(16, 1), skewed(8, 2)}},
		{"band-4000", NewBandSLESApp(4000, 16, 4, 100, 2), sparse.VariableBandLaplacian(4000, 4, 100, 2),
			[]*cluster.Machine{cluster.Seaborg(16, 1), skewed(4, 4)}},
	}
	for _, tc := range cases {
		if b, err := sparse.BandOf(tc.valued); err != nil || !reflect.DeepEqual(b, tc.app.A) {
			t.Fatalf("%s: the app's band is not the valued reference's pattern (err %v)", tc.name, err)
		}
		sp := tc.app.Space()
		rng := rand.New(rand.NewSource(int64(tc.app.A.N)))
		// Points 0 and 1 are the even point on either machine; the 40
		// random points alternate between the two machines.
		for i := 0; i < 42; i++ {
			m := tc.machines[i%2]
			pt := tc.app.EvenPoint()
			if i >= 2 {
				for d := range pt {
					pt[d] = rng.Int63n(1000)
				}
			}
			part := tc.app.PartitionFor(sp.MustDecode(pt))
			want, res, err := runNumeric(tc.app, tc.valued, m, part)
			if err != nil {
				t.Fatalf("%s on %s, %v: numeric run: %v", tc.name, m, part.Starts, err)
			}
			if res.Iterations != tc.app.Iterations || res.Converged {
				t.Fatalf("%s on %s, %v: numeric solve ran %d of %d iterations (converged %v): not a fixed-work run",
					tc.name, m, part.Starts, res.Iterations, tc.app.Iterations, res.Converged)
			}
			got, err := tc.app.RunStats(m, part)
			if err != nil {
				t.Fatalf("%s on %s, %v: skeleton run: %v", tc.name, m, part.Starts, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s on %s, %v:\nskeleton %+v\nnumeric  %+v", tc.name, m, part.Starts, got, want)
			}
		}
	}
}

// TestSLESRunAllocations pins a warm Run — plan and job pooled — at
// zero allocations: the plan is rebuilt into the pooled plan's arrays,
// and the CG program allocates nothing.
func TestSLESRunAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items, so pooled jobs are reallocated")
	}
	app := NewBandSLESApp(2000, 8, 4, 60, 2)
	m := skewed(4, 2)
	part := app.DefaultPartition()
	run := func() {
		if _, err := app.Run(m, part); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if avg := testing.AllocsPerRun(20, run); avg != 0 {
		t.Errorf("warm Run allocates %v times, want 0", avg)
	}
}

// TestPartitionForAllocatesOnlyStarts pins the decoding half of an
// evaluation: PartitionFor allocates one array, the partition's
// Starts, and a prediction none. The weights and then the boundaries
// are written into the Starts, which FromBoundariesInto sorts in
// place; a prediction keeps its Starts on the stack and plans into a
// pooled plan.
func TestPartitionForAllocatesOnlyStarts(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments what it runs")
	}
	app := NewBandSLESApp(2000, 8, 4, 60, 2)
	sp := app.Space()
	pt := app.EvenPoint()
	pt[2] = 100
	cfg := sp.MustDecode(pt)
	pred := app.Predictor(skewed(4, 2))
	if _, ok := pred.Predict(pt, cfg); !ok {
		t.Fatal("the predictor declined its own space")
	}
	if avg := testing.AllocsPerRun(20, func() { app.PartitionFor(cfg) }); avg != 1 {
		t.Errorf("PartitionFor allocates %v times, want 1", avg)
	}
	if avg := testing.AllocsPerRun(20, func() { pred.Predict(pt, cfg) }); avg != 0 {
		t.Errorf("Predict allocates %v times, want 0", avg)
	}
}

// TestSLESObjectiveAllocatesNothing pins one whole evaluation as the
// tuning engine makes it, app.Objective(m) on a partition no earlier
// evaluation used, at zero allocations once the plan and job pools
// are warm: the partition's Starts, where the weights are decoded,
// live on the stack, and the plan is built into a pooled plan's
// arrays.
func TestSLESObjectiveAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items, so pooled plans and jobs are reallocated")
	}
	app := NewBandSLESApp(6000, 16, 4, 120, 2)
	m := cluster.Seaborg(16, 1)
	sp, obj := app.Space(), app.Objective(m)
	rng := rand.New(rand.NewSource(3))
	cfgs := make([]space.Config, 21)
	for i := range cfgs {
		pt := app.EvenPoint()
		for d := range pt {
			pt[d] = rng.Int63n(1000)
		}
		cfgs[i] = sp.MustDecode(pt)
	}
	if _, err := obj(context.Background(), cfgs[0]); err != nil {
		t.Fatal(err)
	}
	next := 1
	if avg := testing.AllocsPerRun(len(cfgs)-2, func() {
		if _, err := obj(context.Background(), cfgs[next]); err != nil {
			t.Fatal(err)
		}
		next++
	}); avg != 0 {
		t.Errorf("an evaluation of a new partition allocates %v times, want 0", avg)
	}
}

// TestSLESForeignConfigDeclined feeds a 4-rank app's configuration to
// an 8-rank app, which reads w5..w8 it does not carry, and a 2-rank
// app a configuration whose w1 is 0. The objective returns an error
// instead of panicking inside the tuning engine's worker, the
// predictor declines, and PartitionFor gives the zero Partition, which
// Run refuses.
func TestSLESForeignConfigDeclined(t *testing.T) {
	small := NewSLESApp(600, 4, 3, 60, 11)
	floor := space.MustNew(space.IntParam("w1", 0, 9, 1), space.IntParam("w2", 0, 9, 1))
	m := cluster.Seaborg(8, 1)
	for _, tc := range []struct {
		app *SLESApp
		cfg space.Config
	}{
		{NewSLESApp(600, 8, 3, 60, 11), small.Space().MustDecode(small.EvenPoint())},
		{NewSLESApp(600, 2, 3, 60, 11), floor.MustDecode(space.Point{0, 5})},
	} {
		app, cfg := tc.app, tc.cfg
		if _, err := app.Objective(m)(context.Background(), cfg); err == nil {
			t.Errorf("%d ranks, %s: the objective took the configuration", app.P, cfg.Format())
		}
		if _, ok := app.Predictor(m).Predict(cfg.Point(), cfg); ok {
			t.Errorf("%d ranks, %s: the predictor took the configuration", app.P, cfg.Format())
		}
		part := app.PartitionFor(cfg)
		if part.Starts != nil {
			t.Errorf("%d ranks, %s: PartitionFor gave %v", app.P, cfg.Format(), part.Starts)
		}
		if _, err := app.Run(m, part); err == nil {
			t.Errorf("%d ranks, %s: Run took the zero partition", app.P, cfg.Format())
		}
	}
}

// TestBandSLESAppBytes pins what building the Fig. 2 large app costs:
// its matrix's runs of equal reach and nothing per row or per stored
// entry. It reads ~3.5 KiB: 260 runs of 12 bytes, and the app itself.
// The ceiling is 8 KiB, so holding the columns again (4 bytes per
// stored entry, 1.4 MiB here) trips it, and so do the 6 bytes per row
// (36 KiB) the band took while it kept each row's reach and row
// pointer.
func TestBandSLESAppBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments what it runs")
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	app := NewBandSLESApp(6000, 16, 4, 120, 2)
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	const ceiling = 8 << 10
	t.Logf("NewBandSLESApp(6000,16,4,120,2) allocates %d bytes (%d entries, %d rows)", got, app.A.NNZ(), app.A.N)
	if got > ceiling {
		t.Errorf("building the app allocates %d bytes, ceiling %d", got, ceiling)
	}
}

// TestSLESRunConcurrent evaluates a few partitions from several
// goroutines at once through one application, as a concurrent campaign
// does: they draw plans and jobs from the shared pools, and each must
// get the sequential result.
func TestSLESRunConcurrent(t *testing.T) {
	newApp := func() *SLESApp { return NewBandSLESApp(2000, 8, 4, 60, 2) }
	m := skewed(4, 2)
	ref := newApp()
	sp := ref.Space()
	rng := rand.New(rand.NewSource(5))
	parts := make([]sparse.Partition, 4)
	want := make([]simmpi.Stats, len(parts))
	for i := range parts {
		pt := ref.EvenPoint()
		for d := range pt {
			pt[d] = rng.Int63n(1000)
		}
		parts[i] = ref.PartitionFor(sp.MustDecode(pt))
		var err error
		if want[i], err = ref.RunStats(m, parts[i]); err != nil {
			t.Fatal(err)
		}
	}
	app := newApp() // a second app: only the pools are shared
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				k := (w + i) % len(parts)
				st, err := app.RunStats(m, parts[k])
				if err != nil || !reflect.DeepEqual(st, want[k]) {
					t.Errorf("worker %d, partition %v: err %v, stats %+v; sequential %+v", w, parts[k].Starts, err, st, want[k])
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
