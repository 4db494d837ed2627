package gs2

import (
	"context"
	"fmt"
	"math"
	"sync"

	"harmony/internal/cluster"
	"harmony/internal/core"
	"harmony/internal/simmpi"
	"harmony/internal/space"
)

// Config describes one GS2 run.
type Config struct {
	// Layout is the data-layout string (default "lxyes").
	Layout Layout
	// Negrid is the energy-grid size (paper default 16).
	Negrid int
	// Ntheta is the number of grid points per 2π segment of field
	// line (paper default 26).
	Ntheta int
	// Steps is the number of time steps: 10 for a benchmarking run,
	// 1,000 for a production run.
	Steps int
	// Collisions selects the collision model (collision_model
	// variable): when set, every step pays the velocity-space
	// (l,e)-local phase and its redistributions.
	Collisions bool
}

// DefaultConfig is the paper's default GS2 configuration.
func DefaultConfig() Config {
	return Config{Layout: DefaultLayout, Negrid: 16, Ntheta: 26, Steps: 10}
}

// Dims derives the 5-D extents from the resolution parameters. The
// fixed extents are scaled-down stand-ins for the production grids
// (the real code runs billions of mesh points; see DESIGN.md).
func (c Config) Dims() Dims {
	return Dims{X: c.Ntheta, Y: 32, L: 20, E: c.Negrid, S: 2}
}

// Cost-model constants. elemWeight is the number of sub-points each
// 5-D index cell stands for (the scale-down factor); the per-phase
// constants are flops per sub-point.
const (
	elemWeight = 4000.0
	// nonlinearFlops is the (x,y)-local FFT/advection work.
	nonlinearFlops = 12.0
	// implicitFlops is the along-field implicit solve, done in the
	// home layout.
	implicitFlops = 8.0
	// collisionFlops is the velocity-space collision operator,
	// (l,e)-local.
	collisionFlops = 12.0
	// initStepEquivalents models GS2's start-up (reading geometry,
	// building response matrices) as this many step-equivalents of
	// the per-step work.
	initStepEquivalents = 6.0
	// initFixedSeconds is the resolution-independent part of start-up
	// (reading input, geometry files).
	initFixedSeconds = 2.0
	// fieldSolveDoubles is the per-step field-solve reduction length.
	fieldSolveDoubles = 64
	// fieldSolveFlops is the replicated per-step field-solve work,
	// charged per (x,y) sub-point on every rank: the field equations
	// are solved redundantly from the reduced moments, so this work
	// does not scale with the rank count.
	fieldSolveFlops = 150.0
	// stepOverheadSeconds is the fixed per-step cost of the
	// orchestration GS2 does outside the scalable kernels
	// (diagnostics, time-history output, bookkeeping). It bounds how
	// much resolution cuts can help an already-good layout, which is
	// why the paper's yxles tuning gained only 9.8%.
	stepOverheadSeconds = 0.5
)

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.Layout.Validate(); err != nil {
		return err
	}
	if c.Negrid < 2 || c.Ntheta < 2 || c.Steps < 1 {
		return fmt.Errorf("gs2: bad config %+v", c)
	}
	return nil
}

// chunkOf returns the element count rank i owns in a contiguous split
// of n elements.
func chunkOf(n, p, i int) int { return (i+1)*n/p - i*n/p }

// redist is a frozen redistribution plan: per-rank pack and unpack
// work, the exchange pattern in bytes at the plan's volume fraction,
// stored sparse (a rank sends to a handful of target owners) and priced
// once per machine.
type redist struct {
	// pack[i] and unpack[i] are rank i's pack and unpack flops before
	// the volume fraction scales them: its sent and received element
	// totals times elemWeight·packFlops.
	pack, unpack []float64
	totalMoved   int
	fraction     float64
	exchange     *simmpi.AlltoallvPattern
}

// newRedist freezes a move count into a plan. It takes ownership of
// mv and rewrites its element counts in place into bytes.
func newRedist(mv moves, fraction float64) *redist {
	p := len(mv.start) - 1
	r := &redist{pack: make([]float64, p), unpack: make([]float64, p), fraction: fraction,
		exchange: &simmpi.AlltoallvPattern{Start: mv.start, Dst: mv.dst, Bytes: mv.n}}
	for i := 0; i < p; i++ {
		for k := mv.start[i]; k < mv.start[i+1]; k++ {
			elems := mv.n[k]
			// Element totals are integers far below 2⁵³: summing them
			// as floats is exact.
			r.pack[i] += float64(elems)
			r.unpack[mv.dst[k]] += float64(elems)
			r.totalMoved += elems
			mv.n[k] = int(float64(elems) * 8 * elemWeight * fraction)
		}
	}
	for i := 0; i < p; i++ {
		r.pack[i] = r.pack[i] * elemWeight * packFlops
		r.unpack[i] = r.unpack[i] * elemWeight * packFlops
	}
	return r
}

// reverse returns the plan of the opposite redistribution. Since
// moved(B→A) = moved(A→B)ᵀ it needs no second count: senders and
// receivers swap roles and the pattern transposes. Sources are visited
// in ascending order, so every transposed row comes out ascending.
func (r *redist) reverse() *redist {
	ex := r.exchange
	p := len(ex.Start) - 1
	start := make([]int, p+1)
	for _, j := range ex.Dst {
		start[j+1]++
	}
	for j := 0; j < p; j++ {
		start[j+1] += start[j]
	}
	next := append([]int(nil), start[:p]...)
	dst, bytes := make([]int, len(ex.Dst)), make([]int, len(ex.Bytes))
	for i := 0; i < p; i++ {
		for k := ex.Start[i]; k < ex.Start[i+1]; k++ {
			j := ex.Dst[k]
			dst[next[j]], bytes[next[j]] = i, ex.Bytes[k]
			next[j]++
		}
	}
	return &redist{pack: r.unpack, unpack: r.pack, totalMoved: r.totalMoved, fraction: r.fraction,
		exchange: &simmpi.AlltoallvPattern{Start: start, Dst: dst, Bytes: bytes}}
}

// plans holds the frozen redistribution plans of a configuration
// shape, built once by whichever caller first asks for the shape.
type plans struct {
	build        sync.Once
	toXY, fromXY *redist
	toLE, fromLE *redist
	// work[i] is rank i's element count times elemWeight: the weight of
	// its per-sub-point work in every phase.
	work []float64
}

// plansKey identifies a frozen plan set: the 5-D extents, the home
// layout, whether the collision transposes exist, and the rank count.
type plansKey struct {
	d    Dims
	l    Layout
	coll bool
	p    int
}

// plansCache is the one memo of the package: tuning campaigns revisit
// the same shapes constantly. Concurrent callers of a cold shape share
// one build, and plans are immutable once built.
var plansCache sync.Map // plansKey -> *plans

func (c Config) plans(p int) *plans {
	d := c.Dims()
	key := plansKey{d: d, l: c.Layout, coll: c.Collisions, p: p}
	v, ok := plansCache.Load(key)
	if !ok {
		v, _ = plansCache.LoadOrStore(key, new(plans))
	}
	pl := v.(*plans)
	pl.build.Do(func() {
		// Targets preserve the home-relative order of the dimensions
		// they localise, so a layout that already keeps them fastest
		// (yxles and yxels for x,y) moves nothing.
		pl.toXY = newRedist(countMoves(d, c.Layout, c.Layout.front("xy"), p), 1)
		pl.fromXY = pl.toXY.reverse()
		if c.Collisions {
			pl.toLE = newRedist(countMoves(d, c.Layout, c.Layout.front("le"), p), collRedistFraction)
			pl.fromLE = pl.toLE.reverse()
		}
		pl.work = make([]float64, p)
		for i := range pl.work {
			pl.work[i] = float64(chunkOf(d.N(), p, i)) * elemWeight
		}
	})
	return pl
}

// collRedistFraction scales the collision-phase redistribution
// volume: the collision operator pipelines its velocity-space
// transposes over the field-line dimension, so only a fraction of the
// distribution function is in flight at once.
const collRedistFraction = 0.12

// Run simulates a GS2 run on the machine and returns the execution
// time in simulated seconds.
//
// Every step performs the same work, so runs longer than three steps
// are simulated for three steps and extrapolated exactly from the
// marginal per-step time; Steps keeps its meaning (a 1,000-step
// production run reports ~100× the marginal step time of a 10-step
// benchmarking run plus the same initialisation).
func Run(m *cluster.Machine, cfg Config) (float64, error) {
	if err := cfg.Validate(); err != nil {
		return 0, err
	}
	const maxSimSteps = 3
	steps := min(cfg.Steps, maxSimSteps)
	job, err := simmpi.AcquireLockstep(m, m.Procs())
	if err != nil {
		return 0, err
	}
	defer job.Release()
	tLess := simulate(job, cfg, cfg.plans(m.Procs()), steps)
	tFull := job.Time()
	// Nothing is left to extrapolate when every step was simulated:
	// tFull + 0·perStep is tFull.
	return tFull + float64(cfg.Steps-steps)*(tFull-tLess), nil
}

// simulate runs initialisation plus the given number of steps on job,
// whose Time is then the completion time, tFull. It returns the
// completion time of the same run one step shorter, tLess (zero when
// there is no second-to-last step): the run is deterministic, so its
// prefix is the shorter run, and the latest rank clock at the end of
// step steps-1 is what simulating steps-1 steps would return.
//
// The rank program carries no values and its operations depend only on
// the configuration, so it runs on the lockstep executor: every
// operation below is one step of all ranks at once.
func simulate(job *simmpi.Lockstep, cfg Config, pl *plans, steps int) (tLess float64) {
	m := job.Machine()
	d := cfg.Dims()
	fieldWork := fieldSolveFlops * float64(d.X*d.Y) * elemWeight
	// The exchanges are priced for m here, once per plan and machine,
	// so every step only reads them.
	toXY, fromXY := pl.toXY.exchange.Price(m), pl.fromXY.exchange.Price(m)
	var toLE, fromLE *simmpi.PricedAlltoallv
	if cfg.Collisions {
		toLE, fromLE = pl.toLE.exchange.Price(m), pl.fromLE.exchange.Price(m)
	}
	// Initialisation: reading inputs plus response-matrix setup, which
	// uses the same transforms and a multiple of the per-step compute.
	// Work and its multiples are integers below 2⁵³, so one factor of
	// 120 charges what factors of 20 and 6 applied in turn would.
	job.Sleep(initFixedSeconds)
	redistribute(job, pl.toXY, toXY)
	job.Compute(pl.work, (nonlinearFlops+implicitFlops)*initStepEquivalents)
	redistribute(job, pl.fromXY, fromXY)

	for s := 0; s < steps; s++ {
		// Nonlinear phase: transform to (x,y)-local, compute, transform
		// back.
		redistribute(job, pl.toXY, toXY)
		job.Compute(pl.work, nonlinearFlops)
		redistribute(job, pl.fromXY, fromXY)
		// Implicit along-field solve in the home layout.
		job.Compute(pl.work, implicitFlops)
		// Collision operator in (l,e)-local form.
		if cfg.Collisions {
			redistribute(job, pl.toLE, toLE)
			job.Compute(pl.work, collisionFlops)
			redistribute(job, pl.fromLE, fromLE)
		}
		// Field solve: replicated reconstruction from the reduced
		// moments plus a global reduction — the moments are not
		// modelled, only the cost of reducing them — then the per-step
		// bookkeeping that does not scale with anything.
		job.Compute(nil, fieldWork)
		job.AllreduceBytes(8 * fieldSolveDoubles)
		job.Sleep(stepOverheadSeconds)
		if s == steps-2 {
			tLess = job.Time()
		}
	}
	return tLess
}

// packFlops is the per-sub-point cost of gathering a moved element
// out of (and scattering it back into) the strided 5-D array: a
// memory-bound operation (one strided 8-byte access costs tens of
// nanoseconds, i.e. tens of flop-equivalents), charged on each side
// of the transfer.
const packFlops = 40.0

// redistribute performs one layout transformation: pack, the plan's
// all-to-all (ex, its exchange priced for the job's machine), and
// unpack. Each moved element carries its elemWeight sub-points of 8
// bytes, scaled by the plan's volume fraction.
func redistribute(job *simmpi.Lockstep, rd *redist, ex *simmpi.PricedAlltoallv) {
	if rd.totalMoved == 0 {
		return
	}
	job.Compute(rd.pack, rd.fraction)
	job.AlltoallvPriced(ex)
	job.Compute(rd.unpack, rd.fraction)
}

// ResolutionSpace is the Tables III/IV tuning space: negrid, ntheta,
// and the number of nodes, as identified by the application
// developer. The defaults (16, 26, 32) sit on the lattice, and the
// lower bounds follow the paper's constraint that "all the parameter
// value ranges used for tuning ... will generate acceptable
// simulation resolutions" (the sampled optimum (8,16,32) sits on the
// boundary).
func ResolutionSpace(maxNodes int) *space.Space {
	return space.MustNew(
		space.IntParam("negrid", 8, 32, 2),
		space.IntParam("ntheta", 16, 80, 2),
		space.IntParam("nodes", 2, int64(maxNodes), 1),
	)
}

// ResolutionStart encodes (negrid, ntheta, nodes) as a
// ResolutionSpace point.
func ResolutionStart(sp *space.Space, negrid, ntheta, nodes int) space.Point {
	pt, err := sp.Encode(map[string]string{
		"negrid": fmt.Sprint(negrid),
		"ntheta": fmt.Sprint(ntheta),
		"nodes":  fmt.Sprint(nodes),
	})
	if err != nil {
		panic(err)
	}
	return pt
}

// MachineFor builds the cluster slice a configuration runs on.
type MachineFor func(nodes int) *cluster.Machine

// LinuxCluster returns the paper's Myrinet Linux cluster with the
// given node count and 2 processors per node.
func LinuxCluster(nodes int) *cluster.Machine { return cluster.MyrinetLinux(nodes, 2) }

// ResolutionObjective adapts (negrid, ntheta, nodes) tuning to the
// tuning engine: layout, step count, and collision mode stay fixed
// while resolution and machine size vary.
func ResolutionObjective(mf MachineFor, base Config) core.Objective {
	return func(_ context.Context, cfg space.Config) (float64, error) {
		c := base
		c.Negrid = int(cfg.Int("negrid"))
		c.Ntheta = int(cfg.Int("ntheta"))
		return Run(mf(int(cfg.Int("nodes"))), c)
	}
}

// FidelityError is a resolution-fidelity proxy: a discretisation
// error estimate that grows as the velocity grid (negrid) and the
// field-line grid (ntheta) are coarsened. Units are arbitrary
// "error" units calibrated so the default resolution (16, 26) scores
// 1.0. The paper notes that tuning negrid/ntheta trades resolution
// for speed and that quantified trade-offs belong in the objective
// (Section VII); this proxy quantifies it for the simulator.
func FidelityError(negrid, ntheta int) float64 {
	const (
		refNegrid = 16.0
		refNtheta = 26.0
	)
	e := 0.5*math.Pow(refNegrid/float64(negrid), 1.5) +
		0.5*math.Pow(refNtheta/float64(ntheta), 1.5)
	return e
}

// FidelityObjective adapts FidelityError to the tuning engine over a
// ResolutionSpace configuration.
func FidelityObjective() core.Objective {
	return func(_ context.Context, cfg space.Config) (float64, error) {
		return FidelityError(int(cfg.Int("negrid")), int(cfg.Int("ntheta"))), nil
	}
}
