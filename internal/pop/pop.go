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
// RunStats executes the rank program, and Predictor prices the same
// program in closed form from the same frozen layout and namelist
// costs, for the tuning engine's surrogate gate.
package pop

import (
	"context"
	"fmt"
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
// and per-rank aggregated neighbour traffic.
type layout struct {
	nbx, nby int
	blocks   [][]block // per rank
	// neighborBytes[r] maps peer rank -> halo bytes per field per
	// step in each direction.
	neighborBytes []map[int]int
	// peers[r] is neighborBytes[r]'s keys in increasing order, and
	// peerBytes[r][i] the volume for peers[r][i]: the halo exchange
	// loop iterates these instead of hashing into the map.
	peers     [][]int
	peerBytes [][]int
	// points[r] is the number of grid points rank r owns.
	points []int
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
	ly.points = make([]int, p)
	ly.neighborBytes = make([]map[int]int, p)
	for r := range ly.neighborBytes {
		ly.neighborBytes[r] = make(map[int]int)
	}

	dim := func(n, b, i int) int {
		if (i+1)*b <= n {
			return b
		}
		return n - i*b
	}
	// Pass 1: identify active (non-eliminated) blocks column-major.
	nActive := 0
	index := make(map[[2]int]int, nb)
	for bi := 0; bi < nbx; bi++ {
		for bj := 0; bj < nby; bj++ {
			if cfg.Land && cfg.blockAllLand(bi, bj, dim(cfg.NX, cfg.BX, bi), dim(cfg.NY, cfg.BY, bj)) {
				index[[2]int{bi, bj}] = -1
				continue
			}
			index[[2]int{bi, bj}] = nActive
			nActive++
		}
	}
	if nActive == 0 {
		return nil, fmt.Errorf("pop: land mask eliminated every block")
	}
	ly.activeBlocks = nActive

	owner := func(bi, bj int) int {
		ai := index[[2]int{bi, bj}]
		if ai < 0 {
			return -1
		}
		return ai * p / nActive
	}
	for bi := 0; bi < nbx; bi++ {
		for bj := 0; bj < nby; bj++ {
			r := owner(bi, bj)
			if r < 0 {
				continue
			}
			blk := block{bi: bi, bj: bj, w: dim(cfg.NX, cfg.BX, bi), h: dim(cfg.NY, cfg.BY, bj)}
			ly.blocks[r] = append(ly.blocks[r], blk)
			ly.points[r] += blk.w * blk.h
		}
	}
	// Aggregate halo edges by owner pair. Longitude (x) wraps; the
	// latitude (y) boundary is closed; coastline edges (touching an
	// eliminated block) exchange nothing.
	addEdge := func(r, peer, bytes int) {
		if r >= 0 && peer >= 0 && r != peer {
			ly.neighborBytes[r][peer] += bytes
		}
	}
	for bi := 0; bi < nbx; bi++ {
		for bj := 0; bj < nby; bj++ {
			r := owner(bi, bj)
			if r < 0 {
				continue
			}
			blk := block{w: dim(cfg.NX, cfg.BX, bi), h: dim(cfg.NY, cfg.BY, bj)}
			if nbx > 1 {
				east := owner((bi+1)%nbx, bj)
				addEdge(r, east, 8*blk.h)
				addEdge(east, r, 8*blk.h)
			}
			if bj+1 < nby {
				north := owner(bi, bj+1)
				addEdge(r, north, 8*blk.w)
				addEdge(north, r, 8*blk.w)
			}
		}
	}
	ly.peers = make([][]int, p)
	ly.peerBytes = make([][]int, p)
	for r := range ly.neighborBytes {
		ps := sortedPeers(ly.neighborBytes[r])
		vols := make([]int, len(ps))
		for i, peer := range ps {
			vols[i] = ly.neighborBytes[r][peer]
		}
		ly.peers[r] = ps
		ly.peerBytes[r] = vols
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
		total += p
	}
	return total
}

// InterNodeBytes returns the per-step halo bytes (one field) crossing
// node boundaries under the given machine: the topology-alignment
// diagnostic behind Fig. 4.
func (ly *layout) InterNodeBytes(m *cluster.Machine) int {
	var total int
	for r, peers := range ly.neighborBytes {
		for peer, bytes := range peers {
			if !m.SameNode(r, peer) {
				total += bytes
			}
		}
	}
	return total
}

// Run simulates one benchmarking run on the machine and returns the
// execution time in simulated seconds.
func Run(m *cluster.Machine, cfg Config) (float64, error) {
	st, err := RunStats(m, cfg)
	if err != nil {
		return 0, err
	}
	return st.Time, nil
}

// RunStats is Run exposing the full simulation statistics.
func RunStats(m *cluster.Machine, cfg Config) (simmpi.Stats, error) {
	p := m.Procs()
	ly, err := cfg.cachedLayout(p)
	if err != nil {
		return simmpi.Stats{}, err
	}
	nl, err := ResolveNamelist(cfg.Namelist)
	if err != nil {
		return simmpi.Stats{}, err
	}
	costs := nl.costs()
	levels := cfg.levels()
	ioEvery := cfg.Steps // one I/O dump at the end of each benchmark run
	gridBytes := 8 * cfg.NX * cfg.NY

	return simmpi.Run(m, p, func(r *simmpi.Rank) {
		id := r.ID()
		peers, vols := ly.peers[id], ly.peerBytes[id]
		pts := float64(ly.points[id])
		for step := 1; step <= cfg.Steps; step++ {
			// Baroclinic phase: explicit stencil work scaled by the
			// physics parameter choices, then a halo update.
			r.Compute(pts * costs.baroclinicFlopsPerPoint)
			for x := 0; x < haloExchangesPerStep; x++ {
				exchangeHalo(r, peers, vols, haloFields*levels, 2*step)
			}
			// Surface forcing interpolation.
			r.Compute(pts * costs.forcingFlopsPerPoint)
			// Barotropic phase: iterative elliptic solve with a halo
			// update and a global reduction per iteration.
			for it := 0; it < cfg.BarotropicIters; it++ {
				r.Compute(pts * costs.barotropicFlopsPerPoint)
				exchangeHalo(r, peers, vols, 1, 2*step+1)
				r.Allreduce1(simmpi.Sum, pts)
			}
			// Global diagnostics, if enabled.
			if costs.diagEveryStep {
				r.Compute(pts * 4)
				r.Allreduce1(simmpi.Sum, pts)
			}
			// Periodic I/O: a gather to num_iotasks writers plus the
			// shared-filesystem write, modelled as a synchronised
			// stall (all ranks wait for the dump to finish).
			if step%ioEvery == 0 {
				r.Barrier()
				r.Sleep(costs.ioSeconds(gridBytes, m))
			}
		}
	})
}

func sortedPeers(nb map[int]int) []int {
	peers := make([]int, 0, len(nb))
	for p := range nb {
		peers = append(peers, p)
	}
	for i := 1; i < len(peers); i++ { // insertion sort: tiny lists
		for j := i; j > 0 && peers[j] < peers[j-1]; j-- {
			peers[j], peers[j-1] = peers[j-1], peers[j]
		}
	}
	return peers
}

// exchangeHalo sends the aggregated per-peer halo volume and receives
// the symmetric updates. peers and vols are the layout's precomputed
// sorted peer list and matching per-peer byte volumes.
func exchangeHalo(r *simmpi.Rank, peers, vols []int, fields, tag int) {
	for i, peer := range peers {
		r.SendBytes(peer, tag, fields*vols[i])
	}
	for _, peer := range peers {
		r.Recv(peer, tag)
	}
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
