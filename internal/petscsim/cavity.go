package petscsim

import (
	"context"
	"fmt"
	"math"

	"harmony/internal/cluster"
	"harmony/internal/core"
	"harmony/internal/simmpi"
	"harmony/internal/snes"
	"harmony/internal/space"
	"harmony/internal/sparse"
)

// CavityApp is the SNES computation-distribution application of
// Section IV: a nonlinear problem on an NX×NY grid of points,
// distributed over a PX×PY grid of ranks whose rectangle boundaries
// are tunable. On heterogeneous machines the tuned distribution gives
// fast nodes more grid points (Fig. 3(b)); on homogeneous machines
// the even split is already near-optimal (Fig. 3(a)).
type CavityApp struct {
	NX, NY int
	PX, PY int
	// Lambda is the Bratu nonlinearity parameter (0 < λ < ~6.8).
	Lambda float64
	// Newton and LinearIter fix the work per benchmarking run, so the
	// simulated time responds purely to the distribution.
	Newton     int
	LinearIter int
}

// NewCavityApp builds the Fig. 3 workload with fixed solver effort.
func NewCavityApp(nx, ny, px, py int) *CavityApp {
	return &CavityApp{NX: nx, NY: ny, PX: px, PY: py, Lambda: 5.0, Newton: 3, LinearIter: 20}
}

// ranks returns PX×PY.
func (app *CavityApp) ranks() int { return app.PX * app.PY }

// DefaultBounds is the default configuration: grid points divided
// into distributed arrays of equal size.
func (app *CavityApp) DefaultBounds() (xb, yb []int) {
	xb = make([]int, app.PX-1)
	for i := range xb {
		xb[i] = (i + 1) * app.NX / app.PX
	}
	yb = make([]int, app.PY-1)
	for j := range yb {
		yb[j] = (j + 1) * app.NY / app.PY
	}
	return xb, yb
}

// Space returns the tuning space: one relative-size weight per rank
// column (xw) and per rank row (yw). Boundaries are the normalised
// cumulative weights, the same dependent-parameter reparameterisation
// SLESApp uses: every box point is feasible and a single weight
// change moves all downstream boundaries coherently, which the
// simplex needs to rebalance whole rows of ranks at once (the slow
// half of the heterogeneous machine).
func (app *CavityApp) Space() *space.Space {
	var params []space.Param
	for i := 1; i <= app.PX; i++ {
		params = append(params, space.IntParam(fmt.Sprintf("xw%d", i), 1, 1000, 1))
	}
	for j := 1; j <= app.PY; j++ {
		params = append(params, space.IntParam(fmt.Sprintf("yw%d", j), 1, 1000, 1))
	}
	return space.MustNew(params...)
}

// EvenPoint encodes the default configuration (equal weights, hence
// the even decomposition) as a lattice point of Space.
func (app *CavityApp) EvenPoint() space.Point {
	pt := make(space.Point, app.PX+app.PY)
	for i := range pt {
		pt[i] = 499 // weight 500 in [1,1000]
	}
	return pt
}

// BoundsFor decodes a configuration into boundary lists: cumulative
// normalised weights per axis.
func (app *CavityApp) BoundsFor(cfg space.Config) (xb, yb []int) {
	cum := func(prefix string, count, n int) []int {
		weights := make([]int64, count)
		var total int64
		for i := range weights {
			weights[i] = cfg.Int(fmt.Sprintf("%s%d", prefix, i+1))
			total += weights[i]
		}
		bounds := make([]int, count-1)
		var c int64
		for i := 0; i < count-1; i++ {
			c += weights[i]
			bounds[i] = int(int64(n) * c / total)
		}
		return bounds
	}
	return cum("xw", app.PX, app.NX), cum("yw", app.PY, app.NY)
}

// decomp describes one rank's rectangle [x0,x1)×[y0,y1).
type decomp struct {
	x0, x1, y0, y1 int
	px, py         int
	ix, iy         int // rank's position in the rank grid
}

func (d *decomp) w() int { return d.x1 - d.x0 }
func (d *decomp) h() int { return d.y1 - d.y0 }

// decompose repairs boundary lists into per-rank rectangles.
func (app *CavityApp) decompose(xb, yb []int) []decomp {
	xs := sparse.FromBoundaries(app.NX, xb)
	ys := sparse.FromBoundaries(app.NY, yb)
	ds := make([]decomp, app.ranks())
	for j := 0; j < app.PY; j++ {
		for i := 0; i < app.PX; i++ {
			x0, x1 := xs.Range(i)
			y0, y1 := ys.Range(j)
			ds[j*app.PX+i] = decomp{x0: x0, x1: x1, y0: y0, y1: y1, px: app.PX, py: app.PY, ix: i, iy: j}
		}
	}
	return ds
}

// Halo message tags: direction of data movement.
const (
	tagEast  = 1 // my east edge column -> east neighbour
	tagWest  = 2
	tagNorth = 3
	tagSouth = 4
)

// bratuFlopsPerPoint is the charged cost of one residual point:
// stencil arithmetic plus an exponential.
const bratuFlopsPerPoint = 60.0

// residual evaluates the rank-local Bratu residual with halo
// exchange. u is the rank's rectangle in row-major (x fastest) order.
func (app *CavityApp) residual(r *simmpi.Rank, ds []decomp, u []float64) []float64 {
	d := &ds[r.ID()]
	w, h := d.w(), d.h()
	if len(u) != w*h {
		panic(fmt.Sprintf("petscsim: rank %d residual got %d values for %dx%d rectangle", r.ID(), len(u), w, h))
	}
	rankAt := func(ix, iy int) int { return iy*d.px + ix }

	// Exchange edge strips with the four neighbours. Sends are eager,
	// so posting all sends before any receive cannot deadlock. Edge
	// staging comes from the world's recycled-payload free lists and
	// is handed over without a defensive copy; the receiver donates
	// each strip back after the stencil loop, so the halo exchange of
	// a warmed-up solve allocates nothing.
	if d.ix+1 < d.px {
		edge := r.AcquireBuf(h)
		for j := 0; j < h; j++ {
			edge[j] = u[j*w+w-1]
		}
		r.SendOwned(rankAt(d.ix+1, d.iy), tagEast, edge)
	}
	if d.ix > 0 {
		edge := r.AcquireBuf(h)
		for j := 0; j < h; j++ {
			edge[j] = u[j*w]
		}
		r.SendOwned(rankAt(d.ix-1, d.iy), tagWest, edge)
	}
	if d.iy+1 < d.py {
		edge := r.AcquireBuf(w)
		copy(edge, u[(h-1)*w:])
		r.SendOwned(rankAt(d.ix, d.iy+1), tagNorth, edge)
	}
	if d.iy > 0 {
		edge := r.AcquireBuf(w)
		copy(edge, u[:w])
		r.SendOwned(rankAt(d.ix, d.iy-1), tagSouth, edge)
	}
	var west, east, south, north []float64
	if d.ix > 0 {
		west = r.Recv(rankAt(d.ix-1, d.iy), tagEast)
	}
	if d.ix+1 < d.px {
		east = r.Recv(rankAt(d.ix+1, d.iy), tagWest)
	}
	if d.iy > 0 {
		south = r.Recv(rankAt(d.ix, d.iy-1), tagNorth)
	}
	if d.iy+1 < d.py {
		north = r.Recv(rankAt(d.ix, d.iy+1), tagSouth)
	}

	hx := 1.0 / float64(app.NX+1)
	lamH2 := app.Lambda * hx * hx
	out := make([]float64, w*h)
	at := func(i, j int) float64 { // local or halo value at local coords
		switch {
		case i < 0:
			if west == nil {
				return 0 // global Dirichlet boundary
			}
			return west[j]
		case i >= w:
			if east == nil {
				return 0
			}
			return east[j]
		case j < 0:
			if south == nil {
				return 0
			}
			return south[i]
		case j >= h:
			if north == nil {
				return 0
			}
			return north[i]
		default:
			return u[j*w+i]
		}
	}
	for j := 0; j < h; j++ {
		for i := 0; i < w; i++ {
			c := u[j*w+i]
			out[j*w+i] = 4*c - at(i-1, j) - at(i+1, j) - at(i, j-1) - at(i, j+1) - lamH2*math.Exp(c)
		}
	}
	r.ReleaseBuf(west)
	r.ReleaseBuf(east)
	r.ReleaseBuf(south)
	r.ReleaseBuf(north)
	r.Compute(bratuFlopsPerPoint * float64(w*h))
	return out
}

// Run simulates one benchmarking run (a fixed-effort Newton–Krylov
// solve) under the given distribution boundaries and returns the
// execution time in simulated seconds.
func (app *CavityApp) Run(m *cluster.Machine, xb, yb []int) (float64, error) {
	ds := app.decompose(xb, yb)
	st, err := simmpi.Run(m, app.ranks(), func(r *simmpi.Rank) {
		d := &ds[r.ID()]
		x0 := make([]float64, d.w()*d.h())
		snes.Solve(r, func(u []float64) []float64 {
			return app.residual(r, ds, u)
		}, x0, snes.Options{
			MaxNewton:     app.Newton,
			Rtol:          1e-30, // never stop early: fixed-work benchmark
			Atol:          0,
			LinearRtol:    1e-30,
			Restart:       app.LinearIter,
			MaxLinearIter: app.LinearIter,
			MaxBacktracks: 2,
		})
	})
	if err != nil {
		return 0, err
	}
	return st.Time, nil
}

// Objective adapts Run to the tuning engine for the given machine.
func (app *CavityApp) Objective(m *cluster.Machine) core.Objective {
	return func(_ context.Context, cfg space.Config) (float64, error) {
		xb, yb := app.BoundsFor(cfg)
		return app.Run(m, xb, yb)
	}
}
