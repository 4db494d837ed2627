package petscsim

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"harmony/internal/cluster"
	"harmony/internal/ksp"
	"harmony/internal/simmpi"
	"harmony/internal/sparse"
)

// runNumeric is the benchmarking run as it was before it became
// cost-only, kept as the reference: every rank really solves its share
// of A·x = B with ksp.CGWith at rtol 0 on the partition's DistMatrix.
// It also reports rank 0's solver result, so the caller can check the
// solve spent its whole iteration budget.
func runNumeric(app *SLESApp, m *cluster.Machine, part sparse.Partition) (simmpi.Stats, ksp.Result, error) {
	dm, err := sparse.NewDistMatrix(app.A, part)
	if err != nil {
		return simmpi.Stats{}, ksp.Result{}, err
	}
	var res ksp.Result
	st, err := simmpi.Run(m, app.P, func(r *simmpi.Rank) {
		ws := dm.AcquireWorkspace(r.ID())
		_, out := ksp.CGWith(ws, r, dm, dm.Scatter(r.ID(), app.B), 0, app.Iterations)
		dm.ReleaseWorkspace(r.ID(), ws)
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
// converge) is asserted on every case, not assumed.
func TestSLESSkeletonEqualsNumeric(t *testing.T) {
	cases := []struct {
		name     string
		app      *SLESApp
		machines []*cluster.Machine
	}{
		{"dense-600", NewSLESApp(600, 4, 3, 60, 11),
			[]*cluster.Machine{cluster.Seaborg(4, 1), cluster.HeterogeneousLab()}},
		{"band-6000", NewBandSLESApp(6000, 16, 4, 120, 2),
			[]*cluster.Machine{cluster.Seaborg(16, 1), skewed(8, 2)}},
		{"band-4000", NewBandSLESApp(4000, 16, 4, 100, 2),
			[]*cluster.Machine{cluster.Seaborg(16, 1), skewed(4, 4)}},
	}
	for _, tc := range cases {
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
			want, res, err := runNumeric(tc.app, m, part)
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

// TestSLESRunAllocations pins a warm Run — plan cached, job pooled — at
// the two allocations of the plan cache's partition key: the CG
// program itself allocates nothing.
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
	if avg := testing.AllocsPerRun(20, run); avg > 2 {
		t.Errorf("warm Run allocates %v times, want the partition key's 2", avg)
	}
}

// TestSLESRunConcurrent evaluates a few partitions from several
// goroutines at once through one application, as a concurrent campaign
// does: they build and share its halo plans and draw jobs from one
// pool, and each must get the sequential result.
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
	app := newApp() // a cold plan cache, filled concurrently
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
