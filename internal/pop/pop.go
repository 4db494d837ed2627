// Package pop simulates the Parallel Ocean Program (POP) workload of
// Section V: a structured-grid ocean model whose horizontal domain is
// decomposed into blocks of tunable size, distributed over the ranks
// of a nodes×ppn machine, stepping a baroclinic (explicit stencil)
// phase, a barotropic (iterative elliptic solve) phase, surface
// forcing interpolation, and periodic I/O.
//
// Two experiment families run on this simulator:
//
//   - Fig. 4: block-size tuning. The block grid (Nx/bx)×(Ny/by) maps
//     onto ranks column-major, so the alignment between the block
//     grid and the node topology decides how many halo edges cross
//     node boundaries. The best (bx, by) therefore changes with the
//     topology — the paper's central observation.
//
//   - Tables I/II: namelist-parameter tuning. Roughly twenty
//     performance-related parameters (mixing operator choices,
//     equation-of-state variant, forcing interpolation types, I/O
//     task count, ...) scale the work of individual phases.
//
// The package is the one place that knows what a POP run costs:
// RunStats executes the rank program on simmpi's lockstep executor,
// and Predictor prices the same program in closed form from the same
// frozen layout and namelist costs, for the tuning engine's surrogate
// gate.
package pop

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sync"

	"harmony/internal/cluster"
	"harmony/internal/core"
	"harmony/internal/simmpi"
	"harmony/internal/space"
)

// Config holds one POP run configuration.
type Config struct {
	// NX, NY is the global grid (the paper's production case is
	// 3600×2400).
	NX, NY int
	// BX, BY is the block size (default 180×100).
	BX, BY int
	// Steps is the number of time steps per benchmarking run.
	Steps int
	// BarotropicIters is the number of elliptic-solver iterations per
	// step.
	BarotropicIters int
	// Levels is the number of vertical levels; baroclinic halo
	// exchanges move whole columns, so halo volume scales with it
	// (the per-point compute constants already describe a full
	// column). Default 40.
	Levels int
	// Land enables the continental land mask with POP's land-block
	// elimination: blocks consisting entirely of land points are
	// dropped from the decomposition and cost nothing. Smaller blocks
	// hug the coastlines better and eliminate more land — a real
	// driver of POP's block-size preference.
	Land bool
	// Namelist holds the physics/IO parameter choices; nil means
	// defaults.
	Namelist map[string]string
}

// DefaultConfig returns the paper's default POP configuration for the
// given grid.
func DefaultConfig(nx, ny int) Config {
	return Config{
		NX: nx, NY: ny,
		BX: 180, BY: 100,
		Steps:           4,
		BarotropicIters: 12,
		Levels:          40,
	}
}

// haloFields is the number of prognostic fields exchanged per
// baroclinic halo update (velocities, tracers); each carries Levels
// vertical levels per surface point.
const haloFields = 8

// haloExchangesPerStep is how many times the baroclinic phase
// refreshes ghost cells per time step: advection, horizontal
// diffusion, vertical mixing, and state updates each need a fresh
// halo.
const haloExchangesPerStep = 6

// levels is the vertical level count with its default applied.
func (cfg Config) levels() int {
	if cfg.Levels <= 0 {
		return 40
	}
	return cfg.Levels
}

// block is one bx×by tile of the global grid.
type block struct {
	bi, bj int // block-grid coordinates
	w, h   int // actual size (edge blocks may be smaller)
}

// layout is the frozen decomposition: blocks, their rank assignment,
// and the halo exchange between owners.
type layout struct {
	nbx, nby int
	blocks   [][]block // per rank
	// halo is one halo refresh: each rank sends every neighbouring
	// owner one message of the summed edge lengths of the blocks they
	// share, in bytes per field. It is symmetric.
	halo simmpi.NeighbourPattern
	// points[r] is the number of grid points rank r owns: the weight of
	// its per-point work in every phase.
	points []float64
	// activeBlocks counts blocks that survived land elimination.
	activeBlocks int
}

// Layout computes the block decomposition of cfg on p ranks.
// Blocks are enumerated column-major (bj fastest) and dealt to ranks
// in contiguous chunks, one block per rank when the counts match —
// the arrangement POP's cartesian distribution produces. With
// cfg.Land, blocks whose points are all land are eliminated before
// the deal, exactly like POP's land-block elimination.
func (cfg Config) Layout(p int) (*layout, error) {
	if cfg.BX <= 0 || cfg.BY <= 0 || cfg.NX <= 0 || cfg.NY <= 0 {
		return nil, fmt.Errorf("pop: invalid geometry %dx%d blocks %dx%d", cfg.NX, cfg.NY, cfg.BX, cfg.BY)
	}
	nbx := (cfg.NX + cfg.BX - 1) / cfg.BX
	nby := (cfg.NY + cfg.BY - 1) / cfg.BY
	nb := nbx * nby
	if nb < 1 {
		return nil, fmt.Errorf("pop: no blocks")
	}
	ly := &layout{nbx: nbx, nby: nby}
	ly.blocks = make([][]block, p)
	ly.points = make([]float64, p)

	dim := func(n, b, i int) int {
		if (i+1)*b <= n {
			return b
		}
		return n - i*b
	}
	// Pass 1: number the active (non-eliminated) blocks column-major;
	// an eliminated block's index is -1.
	nActive := 0
	index := make([]int, nb)
	for bi := 0; bi < nbx; bi++ {
		for bj := 0; bj < nby; bj++ {
			if cfg.Land && cfg.blockAllLand(bi, bj, dim(cfg.NX, cfg.BX, bi), dim(cfg.NY, cfg.BY, bj)) {
				index[bi*nby+bj] = -1
				continue
			}
			index[bi*nby+bj] = nActive
			nActive++
		}
	}
	if nActive == 0 {
		return nil, fmt.Errorf("pop: land mask eliminated every block")
	}
	ly.activeBlocks = nActive

	owner := func(bi, bj int) int {
		ai := index[bi*nby+bj]
		if ai < 0 {
			return -1
		}
		return ai * p / nActive
	}
	// Deal the blocks, and collect their halo edges: traffic between two
	// owners in bytes per field. Longitude (x) wraps; the latitude (y)
	// boundary is closed; coastline edges (touching an eliminated block)
	// exchange nothing.
	type haloEdge struct{ src, dst, bytes int }
	var edges []haloEdge
	addEdge := func(r, peer, bytes int) {
		if r >= 0 && peer >= 0 && r != peer {
			edges = append(edges, haloEdge{r, peer, bytes}, haloEdge{peer, r, bytes})
		}
	}
	for bi := 0; bi < nbx; bi++ {
		for bj := 0; bj < nby; bj++ {
			r := owner(bi, bj)
			if r < 0 {
				continue
			}
			blk := block{bi: bi, bj: bj, w: dim(cfg.NX, cfg.BX, bi), h: dim(cfg.NY, cfg.BY, bj)}
			ly.blocks[r] = append(ly.blocks[r], blk)
			ly.points[r] += float64(blk.w * blk.h)
			if nbx > 1 {
				addEdge(r, owner((bi+1)%nbx, bj), 8*blk.h)
			}
			if bj+1 < nby {
				addEdge(r, owner(bi, bj+1), 8*blk.w)
			}
		}
	}
	// Aggregate the edges by owner pair, sources and then destinations
	// ascending.
	slices.SortFunc(edges, func(a, b haloEdge) int {
		return cmp.Or(cmp.Compare(a.src, b.src), cmp.Compare(a.dst, b.dst))
	})
	h := &ly.halo
	h.Start = make([]int, p+1)
	for k, e := range edges {
		if k > 0 && e.src == edges[k-1].src && e.dst == edges[k-1].dst {
			h.Bytes[len(h.Bytes)-1] += e.bytes
			continue
		}
		h.Dst = append(h.Dst, e.dst)
		h.Bytes = append(h.Bytes, e.bytes)
		h.Start[e.src+1] = len(h.Dst)
	}
	for r := 0; r < p; r++ { // rows without edges end where the last one did
		h.Start[r+1] = max(h.Start[r+1], h.Start[r])
	}
	return ly, nil
}

// blockAllLand reports whether every point of the block is land.
// The continents are convex-ish, so sampling the block corners plus a
// coarse interior lattice is exact enough for elimination.
func (cfg Config) blockAllLand(bi, bj, w, h int) bool {
	x0, y0 := bi*cfg.BX, bj*cfg.BY
	const samples = 4
	for sy := 0; sy <= samples; sy++ {
		for sx := 0; sx <= samples; sx++ {
			x := x0 + sx*(w-1)/samples
			y := y0 + sy*(h-1)/samples
			if !cfg.landAt(x, y) {
				return false
			}
		}
	}
	return true
}

// landAt is the synthetic continental mask: two elliptical continents
// plus a polar cap, ~30% of the grid, matching Earth's land fraction.
func (cfg Config) landAt(x, y int) bool {
	u := float64(x) / float64(cfg.NX)
	v := float64(y) / float64(cfg.NY)
	ellipse := func(cu, cv, ru, rv float64) bool {
		du := (u - cu) / ru
		dv := (v - cv) / rv
		return du*du+dv*dv <= 1
	}
	if ellipse(0.25, 0.55, 0.17, 0.30) { // americas-like
		return true
	}
	if ellipse(0.70, 0.48, 0.22, 0.22) { // afro-eurasia-like
		return true
	}
	return v >= 0.94 // polar cap
}

// layoutKey identifies a decomposition: everything Layout reads from
// the Config plus the rank count. Namelist and step counts do not
// influence the block structure.
type layoutKey struct {
	nx, ny, bx, by int
	land           bool
	p              int
}

// layoutCache memoises frozen layouts across evaluations: a block-size
// campaign revisits decompositions constantly (simplex contractions,
// repeated probes), and a layout is immutable once built.
var layoutCache sync.Map // layoutKey -> *layout

// cachedLayout returns the layout for cfg on p ranks, building and
// caching it on first use. Errors are not cached: invalid geometries
// are cheap to rediagnose.
func (cfg Config) cachedLayout(p int) (*layout, error) {
	key := layoutKey{cfg.NX, cfg.NY, cfg.BX, cfg.BY, cfg.Land, p}
	if v, ok := layoutCache.Load(key); ok {
		return v.(*layout), nil
	}
	ly, err := cfg.Layout(p)
	if err != nil {
		return nil, err
	}
	if v, loaded := layoutCache.LoadOrStore(key, ly); loaded {
		return v.(*layout), nil // keep the first: identical builds
	}
	return ly, nil
}

// Blocks returns the global block count of the decomposition grid
// (before land elimination).
func (ly *layout) Blocks() int { return ly.nbx * ly.nby }

// ActiveBlocks returns the block count after land elimination.
func (ly *layout) ActiveBlocks() int { return ly.activeBlocks }

// OceanPoints returns the total grid points assigned to ranks.
func (ly *layout) OceanPoints() int {
	total := 0
	for _, p := range ly.points {
		total += int(p)
	}
	return total
}

// InterNodeBytes returns the per-step halo bytes (one field) crossing
// node boundaries under the given machine: the topology-alignment
// diagnostic behind Fig. 4.
func (ly *layout) InterNodeBytes(m *cluster.Machine) int {
	var total int
	h := &ly.halo
	for r := 0; r+1 < len(h.Start); r++ {
		for k := h.Start[r]; k < h.Start[r+1]; k++ {
			if !m.SameNode(r, h.Dst[k]) {
				total += h.Bytes[k]
			}
		}
	}
	return total
}

// Run simulates one benchmarking run on the machine and returns the
// execution time in simulated seconds.
func Run(m *cluster.Machine, cfg Config) (float64, error) {
	job, err := run(m, cfg)
	if err != nil {
		return 0, err
	}
	defer job.Release()
	return job.Time(), nil
}

// RunStats is Run exposing the full simulation statistics.
func RunStats(m *cluster.Machine, cfg Config) (simmpi.Stats, error) {
	job, err := run(m, cfg)
	if err != nil {
		return simmpi.Stats{}, err
	}
	defer job.Release()
	return job.Stats(), nil
}

// run executes one benchmarking run and returns the finished job for
// the caller to read and release. The rank program carries no values
// and its operations depend only on the configuration, so it runs on
// the lockstep executor: every operation below is one step of all
// ranks at once.
func run(m *cluster.Machine, cfg Config) (*simmpi.Lockstep, error) {
	p := m.Procs()
	ly, err := cfg.cachedLayout(p)
	if err != nil {
		return nil, err
	}
	nl, err := ResolveNamelist(cfg.Namelist)
	if err != nil {
		return nil, err
	}
	job, err := simmpi.AcquireLockstep(m, p)
	if err != nil {
		return nil, err
	}
	costs := nl.costs()
	levels := cfg.levels()
	ioEvery := cfg.Steps // one I/O dump at the end of each benchmark run
	gridBytes := 8 * cfg.NX * cfg.NY

	for step := 1; step <= cfg.Steps; step++ {
		// Baroclinic phase: explicit stencil work scaled by the physics
		// parameter choices, then its halo updates.
		job.Compute(ly.points, costs.baroclinicFlopsPerPoint)
		for x := 0; x < haloExchangesPerStep; x++ {
			job.Exchange(&ly.halo, haloFields*levels)
		}
		// Surface forcing interpolation.
		job.Compute(ly.points, costs.forcingFlopsPerPoint)
		// Barotropic phase: iterative elliptic solve with a halo update
		// and a global scalar reduction per iteration.
		for it := 0; it < cfg.BarotropicIters; it++ {
			job.Compute(ly.points, costs.barotropicFlopsPerPoint)
			job.Exchange(&ly.halo, 1)
			job.AllreduceBytes(8)
		}
		// Global diagnostics, if enabled.
		if costs.diagEveryStep {
			job.Compute(ly.points, 4)
			job.AllreduceBytes(8)
		}
		// Periodic I/O: a gather to num_iotasks writers plus the
		// shared-filesystem write, modelled as a synchronised stall
		// (all ranks wait for the dump to finish).
		if step%ioEvery == 0 {
			job.Barrier()
			job.Sleep(costs.ioSeconds(gridBytes, m))
		}
	}
	return job, nil
}

// BlockSpace returns the Fig. 4 tuning space: block width 15..600
// step 15, block height 20..600 step 20 (the defaults 180×100 and the
// paper's tuned sizes 120×150, 150×120, 45×400 all lie on this
// lattice).
func BlockSpace() *space.Space {
	return space.MustNew(
		space.IntParam("bx", 15, 600, 15),
		space.IntParam("by", 20, 600, 20),
	)
}

// BlockObjective adapts block-size tuning to the tuning engine: the
// namelist stays at defaults while (bx, by) vary.
func BlockObjective(m *cluster.Machine, base Config) core.Objective {
	return func(_ context.Context, cfg space.Config) (float64, error) {
		c := base
		c.BX = int(cfg.Int("bx"))
		c.BY = int(cfg.Int("by"))
		return Run(m, c)
	}
}

// BlockStart encodes a (bx, by) block size as a BlockSpace point.
func BlockStart(bx, by int) space.Point {
	return space.Point{int64(bx/15 - 1), int64(by/20 - 1)}
}

// NamelistObjective adapts namelist tuning to the tuning engine: the
// block size stays fixed while the namelist parameters vary.
func NamelistObjective(m *cluster.Machine, base Config) core.Objective {
	return func(_ context.Context, cfg space.Config) (float64, error) {
		c := base
		c.Namelist = cfg.Map()
		return Run(m, c)
	}
}
