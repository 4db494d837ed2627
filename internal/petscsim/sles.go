// Package petscsim implements the paper's two PETSc case-study
// applications on top of the mini-PETSc stack (sparse, ksp, snes) and
// the simulated machine.
//
// The first application solves a linear system in parallel with the
// (S)LES solver, tuning the matrix-decomposition boundaries (Fig. 2).
// The second solves a nonlinear 2-D grid problem with the SNES
// solver, tuning how grid points are distributed across processing
// nodes (Fig. 3). The paper's second example is the velocity-
// vorticity driven cavity (PETSc ex19); this package substitutes the
// Bratu solid-fuel-ignition nonlinearity (PETSc ex5) on the same
// distributed-grid skeleton — the tuned mechanism (per-point stencil
// work, halo exchange, Newton–Krylov iteration structure) is
// identical, only the physics term differs, and the physics term is
// decomposition-independent.
//
// The package is the one place that knows what an SLES run costs:
// SLESApp.RunStats executes the CG cost program on the lockstep
// executor, and SLESPredictor prices the same program in closed form
// from the same halo plan, for the tuning engine's surrogate gate. The
// driven cavity's Newton–Krylov solve reads its values, so CavityApp
// runs on simmpi.Run's coroutines.
package petscsim

import (
	"context"
	"fmt"

	"harmony/internal/cluster"
	"harmony/internal/core"
	"harmony/internal/ksp"
	"harmony/internal/simmpi"
	"harmony/internal/space"
	"harmony/internal/sparse"
)

// SLESApp is the parallel linear-system application of Section IV:
// a matrix with dense sub-blocks whose decomposition boundaries are
// tunable. A benchmarking run is, by definition, Iterations CG
// iterations ("representative short run"), so simulated time responds
// purely to the data distribution — and the run executes only that
// dependence: the halo exchanges, allreduces and compute charges of
// the CG loop (ksp.CGCost over the partition's sparse.HaloPlan), one
// lockstep step for all ranks at a time, not its arithmetic. Every
// virtual clock equals the numeric ksp.CGWith(..., rtol 0, Iterations)
// solve's bit for bit, given that solve spends its whole budget: at
// rtol 0 it stops early only when a global reduction (rs0, p·Ap or
// ‖r‖²) is exactly 0.0, which a Laplacian-family matrix with B = 1
// never reaches. TestSLESSkeletonEqualsNumeric asserts that
// precondition on every case it compares.
type SLESApp struct {
	// A is the system matrix.
	A *sparse.CSR
	// B is the global right-hand side.
	B []float64
	// P is the number of ranks (partitions).
	P int
	// Iterations is the fixed CG iteration count per benchmarking
	// run.
	Iterations int

	// plans memoises the halo plan per partition: a tuning campaign
	// revisiting a decomposition (simplex contractions, PRO
	// reflections, restarts, a surrogate prediction before the run)
	// walks the matrix structure once.
	plans *sparse.PlanCache
}

// NewSLESApp builds the Fig. 2 workload: an n×n dense-block
// Laplacian with nBlocks dense blocks of blockSize rows at seeded
// pseudo-random positions, to be solved on p ranks.
func NewSLESApp(n, p, nBlocks, blockSize int, seed int64) *SLESApp {
	blocks := sparse.RandomBlocks(n, nBlocks, blockSize, seed)
	return newSLESApp(sparse.DenseBlockLaplacian(n, blocks), p)
}

// NewBandSLESApp builds the large Fig. 2 workloads: a matrix whose
// row density varies smoothly along the diagonal (dense regions
// overload the even decomposition), solved on p ranks. The smooth
// density keeps the 32-partition tuning landscape navigable, matching
// the structured matrices of the paper's large runs.
func NewBandSLESApp(n, p, minBand, maxBand, waves int) *SLESApp {
	return newSLESApp(sparse.VariableBandLaplacian(n, minBand, maxBand, waves), p)
}

func newSLESApp(a *sparse.CSR, p int) *SLESApp {
	b := make([]float64, a.N)
	for i := range b {
		b[i] = 1
	}
	return &SLESApp{A: a, B: b, P: p, Iterations: 40, plans: sparse.NewPlanCache(a)}
}

// DefaultPartition is the paper's default configuration: equal-size
// partitions.
func (app *SLESApp) DefaultPartition() sparse.Partition {
	return sparse.EvenPartition(app.A.N, app.P)
}

// Space returns the tuning space: one relative-size weight per
// partition. The decomposition boundaries are the normalised
// cumulative sums of the weights, so every box point decodes to a
// feasible ordered partition and a single-weight change coherently
// shifts all downstream boundaries. This reparameterisation of the
// dependent boundary variables follows the techniques of the
// authors' SC'04 paper [12]; the raw boundary encoding couples the
// dimensions through the ordering constraint and stalls the simplex.
func (app *SLESApp) Space() *space.Space {
	params := make([]space.Param, app.P)
	for i := range params {
		params[i] = space.IntParam(fmt.Sprintf("w%d", i+1), 1, 1000, 1)
	}
	return space.MustNew(params...)
}

// EvenPoint encodes the default configuration (equal weights, hence
// equal-size partitions) as a lattice point of Space.
func (app *SLESApp) EvenPoint() space.Point {
	pt := make(space.Point, app.P)
	for i := range pt {
		pt[i] = 499 // weight 500 in [1,1000]
	}
	return pt
}

// PartitionFor decodes a configuration of Space into a partition.
func (app *SLESApp) PartitionFor(cfg space.Config) sparse.Partition {
	weights := make([]int64, app.P)
	for i := range weights {
		weights[i] = cfg.Int(fmt.Sprintf("w%d", i+1))
	}
	return app.partition(weights)
}

// partition turns positive relative weights into a partition:
// boundary i sits at the normalised cumulative weight of the first i
// partitions. FromBoundaries guarantees at least one row each.
func (app *SLESApp) partition(weights []int64) sparse.Partition {
	var total int64
	for _, w := range weights {
		total += w
	}
	bounds := make([]int, app.P-1)
	var cum int64
	for i := 0; i < app.P-1; i++ {
		cum += weights[i]
		bounds[i] = int(int64(app.A.N) * cum / total)
	}
	return sparse.FromBoundaries(app.A.N, bounds)
}

// Run simulates one benchmarking run under the given partition and
// returns the execution time in simulated seconds.
func (app *SLESApp) Run(m *cluster.Machine, part sparse.Partition) (float64, error) {
	job, err := app.run(m, part)
	if err != nil {
		return 0, err
	}
	defer job.Release()
	return job.Time(), nil
}

// RunStats is Run exposing the full simulation statistics.
func (app *SLESApp) RunStats(m *cluster.Machine, part sparse.Partition) (simmpi.Stats, error) {
	job, err := app.run(m, part)
	if err != nil {
		return simmpi.Stats{}, err
	}
	defer job.Release()
	return job.Stats(), nil
}

// run executes one benchmarking run and returns the finished job for
// the caller to read and release. The CG skeleton reads no values, so
// it runs on the lockstep executor.
func (app *SLESApp) run(m *cluster.Machine, part sparse.Partition) (*simmpi.Lockstep, error) {
	if part.P() != app.P {
		return nil, fmt.Errorf("petscsim: partition into %d parts for %d ranks", part.P(), app.P)
	}
	hp, err := app.HaloPlan(part)
	if err != nil {
		return nil, err
	}
	job, err := simmpi.AcquireLockstep(m, app.P)
	if err != nil {
		return nil, err
	}
	ksp.CGCost(job, hp, app.Iterations) // fixed-work benchmarking run
	return job, nil
}

// HaloPlan returns the halo plan of a partition, through the plan
// cache when the app was built by a constructor. Apps assembled as
// bare struct literals (plans nil) fall back to direct construction.
func (app *SLESApp) HaloPlan(part sparse.Partition) (*sparse.HaloPlan, error) {
	if app.plans != nil {
		return app.plans.Get(part)
	}
	return sparse.NewHaloPlan(app.A, part)
}

// Objective adapts Run to the tuning engine for the given machine.
func (app *SLESApp) Objective(m *cluster.Machine) core.Objective {
	return func(_ context.Context, cfg space.Config) (float64, error) {
		return app.Run(m, app.PartitionFor(cfg))
	}
}
