package petscsim

import (
	"fmt"
	"math/rand"
	"reflect"
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
// at 40 seeded random points each, the skeleton's full statistics — job time,
// every rank's clock, compute and wait seconds, bytes and messages —
// are exactly those of the numeric solve. The fixed-work precondition
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
