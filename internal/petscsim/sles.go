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
// virtual clock equals the numeric ksp.CG(..., rtol 0, Iterations)
// solve's bit for bit, given that solve spends its whole budget: at
// rtol 0 it stops early only when a global reduction (rs0, p·Ap or
// ‖r‖²) is exactly 0.0, which a Laplacian-family matrix with an
// all-ones right-hand side never reaches. TestSLESSkeletonEqualsNumeric
// solves the valued matrix of the same generator and asserts that
// precondition on every case it compares.
//
// Build one with NewSLESApp or NewBandSLESApp.
type SLESApp struct {
	// A is the system matrix's pattern as its runs of rows of equal
	// reach, 12 bytes per run whatever its rows and stored entries: the
	// run reads only what a halo plan reads, and a plan reads only
	// reaches.
	A *sparse.Band
	// P is the number of ranks (partitions).
	P int
	// Iterations is the fixed CG iteration count per benchmarking
	// run.
	Iterations int

	// names are the space's weight names, w1..wP, which every decoding
	// of a configuration reads.
	names []string
}

// NewSLESApp builds the Fig. 2 workload: an n×n dense-block
// Laplacian with nBlocks dense blocks of blockSize rows at seeded
// pseudo-random positions, to be solved on p ranks. A 1-D chain with
// dense diagonal blocks is a band: the app keeps the reaches and drops
// the assembled matrix.
func NewSLESApp(n, p, nBlocks, blockSize int, seed int64) *SLESApp {
	blocks := sparse.RandomBlocks(n, nBlocks, blockSize, seed)
	b, err := sparse.BandOf(sparse.DenseBlockLaplacian(n, blocks))
	if err != nil {
		panic(err) // every dense-block Laplacian is a band
	}
	return newSLESApp(b, p)
}

// NewBandSLESApp builds the large Fig. 2 workloads: a matrix whose
// row density varies smoothly along the diagonal (dense regions
// overload the even decomposition), solved on p ranks. The smooth
// density keeps the 32-partition tuning landscape navigable, matching
// the structured matrices of the paper's large runs.
func NewBandSLESApp(n, p, minBand, maxBand, waves int) *SLESApp {
	return newSLESApp(sparse.VariableBand(n, minBand, maxBand, waves), p)
}

func newSLESApp(a *sparse.Band, p int) *SLESApp {
	names := make([]string, p)
	for i := range names {
		names[i] = fmt.Sprintf("w%d", i+1)
	}
	return &SLESApp{A: a, P: p, Iterations: 40, names: names}
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
	for i, name := range app.names {
		params[i] = space.IntParam(name, 1, 1000, 1)
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

// PartitionFor decodes a configuration of Space into a partition. It
// allocates only the partition's Starts. A configuration without the
// full, positive weight vector of Space decodes to the zero Partition,
// which Validate, Run and RunStats refuse.
func (app *SLESApp) PartitionFor(cfg space.Config) sparse.Partition {
	part, _ := app.partitionInto(nil, cfg)
	return part
}

// partitionInto decodes cfg's weights and turns them into a partition
// whose Starts it writes into starts, grown when short: boundary i
// sits at the normalised cumulative weight of the first i partitions,
// and FromBoundariesInto guarantees at least one row each. The weights
// are staged in the Starts themselves. It is an error when cfg lacks a
// weight or has one below 1: a configuration of another space.
func (app *SLESApp) partitionInto(starts []int, cfg space.Config) (sparse.Partition, error) {
	if len(app.names) != app.P {
		return sparse.Partition{}, fmt.Errorf("petscsim: an SLESApp of %d ranks not built by a constructor", app.P)
	}
	if cap(starts) < app.P+1 {
		starts = make([]int, app.P+1)
	}
	starts = starts[:app.P+1]
	var total int64
	for i, name := range app.names {
		w, ok := cfg.LookupInt(name)
		if !ok || w < 1 {
			return sparse.Partition{}, fmt.Errorf("petscsim: configuration has no weight %s of at least 1", name)
		}
		starts[i+1] = w
		total += int64(w)
	}
	var cum int64
	for i := 1; i < app.P; i++ {
		cum += int64(starts[i])
		starts[i] = int(int64(app.A.N) * cum / total)
	}
	return sparse.FromBoundariesInto(starts, app.A.N, starts[1:app.P]), nil
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
// it runs on the lockstep executor, over a plan built into pooled
// storage: Lockstep.Exchange reads the plan's pattern only during the
// call, so the job keeps nothing of the plan once it is released.
func (app *SLESApp) run(m *cluster.Machine, part sparse.Partition) (*simmpi.Lockstep, error) {
	if part.P() != app.P {
		return nil, fmt.Errorf("petscsim: partition into %d parts for %d ranks", part.P(), app.P)
	}
	hp, err := app.A.AcquirePlan(part)
	if err != nil {
		return nil, err
	}
	defer hp.Release()
	job, err := simmpi.AcquireLockstep(m, app.P)
	if err != nil {
		return nil, err
	}
	ksp.CGCost(job, hp, app.Iterations) // fixed-work benchmarking run
	return job, nil
}

// Objective adapts Run to the tuning engine for the given machine. It
// declines a configuration of another space with an error. An
// evaluation allocates nothing once the plan and job pools are warm:
// the partition's Starts, where the weights are decoded, live on the
// stack up to 64 ranks.
func (app *SLESApp) Objective(m *cluster.Machine) core.Objective {
	return func(_ context.Context, cfg space.Config) (float64, error) {
		var starts [65]int
		part, err := app.partitionInto(starts[:0], cfg)
		if err != nil {
			return 0, err
		}
		return app.Run(m, part)
	}
}
