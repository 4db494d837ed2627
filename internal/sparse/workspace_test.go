package sparse

import (
	"math"
	"math/rand"
	"runtime/debug"
	"sort"
	"testing"

	"harmony/internal/simmpi"
)

// randomPartition draws p-1 distinct interior boundaries of [0, n).
func randomPartition(rng *rand.Rand, n, p int) Partition {
	bounds := make([]int, p-1)
	for i := range bounds {
		bounds[i] = 1 + rng.Intn(n-1)
	}
	sort.Ints(bounds)
	return FromBoundaries(n, bounds)
}

// poison fills every workspace buffer with NaN: a correct MatVecInto
// must overwrite every slot it reads, so a dirty workspace cannot
// leak into results.
func (ws *Workspace) poison() {
	for i := range ws.xbuf {
		ws.xbuf[i] = math.NaN()
	}
	for i := range ws.y {
		ws.y[i] = math.NaN()
	}
}

// TestMatVecIntoMatchesMulVecProperty is the workspace-reuse property
// test: over random partitions, repeated MatVecInto calls on one
// deliberately dirtied workspace per rank must stay bit-identical to
// the host CSR.MulVec reference. The same workspace objects are
// reused across partitions of different shapes (so buffers are both
// grown and shrunk) and poisoned with NaNs between calls.
func TestMatVecIntoMatchesMulVecProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := VariableBandLaplacian(160, 2, 11, 3)
	xg := make([]float64, a.N)
	for i := range xg {
		xg[i] = rng.NormFloat64()
	}
	want := a.MulVec(xg)

	const maxP = 6
	workspaces := make([]*Workspace, maxP) // reused across all trials: always dirty
	for i := range workspaces {
		workspaces[i] = new(Workspace)
	}
	for trial := 0; trial < 12; trial++ {
		p := 1 + rng.Intn(maxP)
		part := randomPartition(rng, a.N, p)
		dm, err := NewDistMatrix(a, part)
		if err != nil {
			t.Fatalf("trial %d: NewDistMatrix: %v", trial, err)
		}
		got := make([]float64, a.N)
		_, err = simmpi.Run(distTestMachine(p, 1), p, func(r *simmpi.Rank) {
			ws := workspaces[r.ID()]
			xl := dm.Scatter(r.ID(), xg)
			var yl []float64
			for rep := 0; rep < 3; rep++ { // repeated calls on the same workspace
				ws.poison()
				yl = dm.MatVecInto(ws, r, rep, xl)
			}
			lo, _ := part.Range(r.ID())
			copy(got[lo:], yl)
		})
		if err != nil {
			t.Fatalf("trial %d: Run: %v", trial, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d (p=%d, starts=%v): y[%d] = %v, want exactly %v",
					trial, p, part.Starts, i, got[i], want[i])
			}
		}
	}
}

// TestMatVecIntoSteadyStateZeroAllocs pins the workspace claim: with a
// warm workspace, a distributed MatVec — send staging, halo receive,
// operand packing, kernel — performs zero heap allocations, and so do
// the vector kernels CG runs beside it each iteration (Dot with its
// allreduce, Axpy, VecCost). The runtime's malloc counter is
// process-wide, so instead of reading it from inside a rank (where
// anything else the test binary does lands in the window) the test
// measures whole warm simulated runs with testing.AllocsPerRun: a run
// of 100 iterations per rank must allocate exactly what a run of 50
// does. What a run itself allocates (rank
// goroutines, statistics) is the same on both sides and cancels;
// AllocsPerRun's per-run average absorbs a stray allocation elsewhere
// in the process; GC stays off so no collection empties the world and
// workspace pools between runs.
func TestMatVecIntoSteadyStateZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; allocation count is meaningless under -race")
	}
	a := VariableBandLaplacian(400, 2, 9, 2)
	const p = 4
	dm, err := NewDistMatrix(a, EvenPartition(a.N, p))
	if err != nil {
		t.Fatal(err)
	}
	xg := make([]float64, a.N)
	for i := range xg {
		xg[i] = math.Sin(float64(i) * 0.3)
	}
	m := distTestMachine(p, 1)
	run := func(iters int) func() {
		return func() {
			_, err := simmpi.Run(m, p, func(r *simmpi.Rank) {
				ws := dm.AcquireWorkspace(r.ID())
				defer dm.ReleaseWorkspace(r.ID(), ws)
				lo, hi := dm.Part.Range(r.ID())
				// Constant tag, like the solvers: a fresh tag would open a
				// new (src, tag) message stream per call, which allocates
				// its queue.
				x := xg[lo:hi]
				for i := 0; i < iters; i++ {
					y := dm.MatVecInto(ws, r, 7, x)
					Axpy(r, -1e-3*Dot(r, x, y), x, y)
					VecCost(r, len(y))
				}
			})
			if err != nil {
				t.Error(err)
			}
		}
	}

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	run(100)() // warm the pooled world, the workspaces and the payload free lists
	base := testing.AllocsPerRun(20, run(50))
	double := testing.AllocsPerRun(20, run(100))
	if double != base {
		t.Errorf("a run of 100 iterations per rank allocates %v, a run of 50 allocates %v: steady-state MatVec, Dot, Axpy or VecCost allocates, want 0", double, base)
	}
}
