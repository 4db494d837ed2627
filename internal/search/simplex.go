package search

import (
	"fmt"
	"slices"

	"harmony/internal/space"
)

// SimplexOptions configure the integer-adapted Nelder–Mead strategy.
// The coefficients are not options: reflection is 1, and expansion,
// contraction and shrink are the standard 2, 0.5, 0.5 of Nelder & Mead
// (1965) unless Adaptive selects the dimension-dependent ones.
type SimplexOptions struct {
	// Start is the initial vertex in lattice coordinates. If nil, the
	// space centre is used.
	Start space.Point
	// Seeds, if non-empty, provides additional initial vertices (for
	// example from prior tuning runs, the technique of the authors'
	// SC'04 paper). At most Dims of them are used; remaining vertices
	// are generated by axis offsets from Start.
	Seeds []space.Point
	// StepFraction controls the size of the initial simplex: each
	// generated vertex offsets one dimension by
	// max(1, StepFraction × levels). Default 0.25.
	StepFraction float64
	// Adaptive selects dimension-dependent coefficients (expansion
	// 1+2/k, contraction 0.75−1/(2k), shrink 1−1/k), which keep the
	// simplex from collapsing prematurely in high-dimensional spaces
	// such as the 32-partition decomposition problems.
	Adaptive bool
	// Restarts rebuilds the simplex around the incumbent best with a
	// halved step whenever it collapses to a single lattice point,
	// up to this many times. Re-evaluations of already-visited points
	// are free under the tuner's cache, so restarts spend runs only
	// on genuinely new configurations.
	Restarts int
}

type simplexState int

const (
	stInit simplexState = iota
	stReflect
	stExpand
	stContractOut
	stContractIn
	stShrink
	stDone
)

type vertex struct {
	x []float64
	f float64
}

// Simplex is the integer-adapted Nelder–Mead simplex strategy: the
// tuning kernel of the Active Harmony Adaptation Controller.
//
// The simplex moves in continuous lattice-coordinate space; every
// proposal is snapped to the nearest in-box lattice point for
// evaluation, following the paper's adaptation "using the resulting
// values from the nearest integer point in the space to approximate
// the performance at the selected point in the continuous space".
// The search terminates when every vertex snaps to the same lattice
// point (the simplex has collapsed below lattice resolution); the
// caller's evaluation budget bounds it otherwise.
type Simplex struct {
	machine
	sp   *space.Space
	opt  SimplexOptions
	dims int
	// Expansion, contraction and shrink coefficients.
	gamma, beta, sigma float64

	verts   []vertex // dims+1 vertices
	state   simplexState
	initIdx int // next initial vertex to evaluate

	// Per-iteration scratch, allocated once.
	centroid  []float64
	xr        []float64 // reflection point
	fr        float64
	xe        []float64 // expansion point
	xc        []float64 // contraction point
	snap      space.Point
	shrinkIdx int

	pendingX     []float64 // continuous coords of the current proposal; nil if none
	inFlight     bool      // pendingX is issued and awaits its commit
	iterations   int
	restartsUsed int
}

// NewSimplex constructs a Simplex strategy over the given space.
func NewSimplex(sp *space.Space, opt SimplexOptions) *Simplex {
	if opt.StepFraction == 0 {
		opt.StepFraction = 0.25
	}
	n := sp.Dims()
	s := &Simplex{sp: sp, opt: opt, dims: n, gamma: 2, beta: 0.5, sigma: 0.5, snap: make(space.Point, 2*n)}
	if opt.Adaptive {
		k := float64(n)
		s.gamma, s.beta, s.sigma = 1+2/k, 0.75-1/(2*k), 1-1/k
	}
	scratch := make([]float64, 4*n)
	s.centroid, s.xr, s.xe, s.xc = scratch[:n:n], scratch[n:2*n:2*n], scratch[2*n:3*n:3*n], scratch[3*n:]
	s.self = s
	s.buildInitialSimplex()
	return s
}

// Name implements Strategy.
func (s *Simplex) Name() string { return "simplex" }

func (s *Simplex) buildInitialSimplex() {
	start := s.opt.Start
	if start == nil {
		start = s.sp.Center()
	}
	if !s.sp.Valid(start) {
		start = s.sp.Clamp(start)
	}
	s.verts = make([]vertex, 0, s.dims+1)
	s.verts = append(s.verts, vertex{x: toFloats(start)})

	// Seeded vertices first (prior-run reuse), then axis offsets.
	for _, seed := range s.opt.Seeds {
		if len(s.verts) == s.dims+1 {
			break
		}
		if len(seed) != s.dims {
			continue
		}
		s.verts = append(s.verts, vertex{x: toFloats(s.sp.Clamp(seed))})
	}
	params := s.sp.Params()
	for d := 0; len(s.verts) < s.dims+1; d++ {
		dim := d % s.dims
		levels := params[dim].Levels()
		step := float64(levels-1) * s.opt.StepFraction
		if step < 1 {
			step = 1
		}
		x := append([]float64(nil), s.verts[0].x...)
		if x[dim]+step <= float64(levels-1) {
			x[dim] += step
		} else {
			x[dim] -= step
		}
		s.verts = append(s.verts, vertex{x: x})
	}
	s.state = stInit
	s.initIdx = 0
}

func toFloats(pt space.Point) []float64 {
	x := make([]float64, len(pt))
	for i, v := range pt {
		x[i] = float64(v)
	}
	return x
}

// Ask implements AsyncStrategy: the one proposal of the current step,
// which stalls the simplex until it commits.
func (s *Simplex) Ask() (space.Point, bool) {
	if s.inFlight {
		return nil, false
	}
	switch s.state {
	case stInit:
		s.pendingX = s.verts[s.initIdx].x
	case stShrink:
		s.pendingX = s.verts[s.shrinkIdx].x
	case stDone:
		return s.finish()
	}
	// The evaluation states set pendingX as they are entered.
	s.inFlight = true
	return s.sp.Nearest(s.pendingX), true
}

// Commit implements AsyncStrategy.
func (s *Simplex) Commit(pt space.Point, value float64) {
	s.observe(pt, value)
	s.pendingX, s.inFlight = nil, false

	switch s.state {
	case stInit:
		s.verts[s.initIdx].f = value
		s.initIdx++
		if s.initIdx == len(s.verts) {
			s.startIteration()
		}
	case stShrink:
		s.verts[s.shrinkIdx].f = value
		s.shrinkIdx++
		if s.shrinkIdx == len(s.verts) {
			s.startIteration()
		}
	case stReflect:
		s.fr = value
		s.onReflect(value)
	case stExpand:
		s.onExpand(value)
	case stContractOut:
		if value <= s.fr {
			s.replaceWorst(s.xc, value)
			s.startIteration()
		} else {
			s.beginShrink()
		}
	case stContractIn:
		if value < s.worst().f {
			s.replaceWorst(s.xc, value)
			s.startIteration()
		} else {
			s.beginShrink()
		}
	}
}

func (s *Simplex) worst() *vertex { return &s.verts[len(s.verts)-1] }

// startIteration orders the simplex, checks termination, and proposes
// the reflection point.
func (s *Simplex) startIteration() {
	// The comparator mirrors < exactly, so ±Inf and NaN keep the order
	// sort.SliceStable gave them, without its reflective swapper.
	slices.SortStableFunc(s.verts, func(a, b vertex) int {
		switch {
		case a.f < b.f:
			return -1
		case b.f < a.f:
			return 1
		}
		return 0
	})

	if collapsed(s.sp, s.verts, s.snap) {
		if s.restartsUsed >= s.opt.Restarts {
			s.state = stDone
			return
		}
		// Oriented restart: rebuild around the incumbent best with a
		// halved initial step.
		s.restartsUsed++
		s.opt.StepFraction /= 2
		best, _, ok := s.Best()
		if ok {
			s.opt.Start = best
		} else {
			s.opt.Start = s.sp.Nearest(s.verts[0].x)
		}
		s.opt.Seeds = nil
		s.buildInitialSimplex()
		return
	}
	s.iterations++

	n := len(s.verts) - 1
	clear(s.centroid)
	for _, v := range s.verts[:n] {
		for d := range s.centroid {
			s.centroid[d] += v.x[d]
		}
	}
	for d := range s.centroid {
		s.centroid[d] /= float64(n)
	}
	worst := s.worst()
	for d := range s.xr {
		s.xr[d] = s.centroid[d] + (s.centroid[d] - worst.x[d])
	}
	s.state, s.pendingX = stReflect, s.xr
}

// collapsed reports whether all vertices snap to one lattice point,
// snapping into snap, which has room for two points.
func collapsed(sp *space.Space, verts []vertex, snap space.Point) bool {
	first, pt := snap[:sp.Dims()], snap[sp.Dims():]
	sp.NearestInto(first, verts[0].x)
	for _, v := range verts[1:] {
		if !sp.NearestInto(pt, v.x).Equal(first) {
			return false
		}
	}
	return true
}

func (s *Simplex) onReflect(fr float64) {
	switch {
	case fr < s.verts[0].f:
		// Best so far: try expanding further along the same ray.
		for d := range s.xe {
			s.xe[d] = s.centroid[d] + s.gamma*(s.xr[d]-s.centroid[d])
		}
		s.state, s.pendingX = stExpand, s.xe
	case fr < s.verts[len(s.verts)-2].f:
		// Better than the second worst: accept the reflection.
		s.replaceWorst(s.xr, fr)
		s.startIteration()
	case fr < s.worst().f:
		// Outside contraction between centroid and reflection.
		for d := range s.xc {
			s.xc[d] = s.centroid[d] + s.beta*(s.xr[d]-s.centroid[d])
		}
		s.state, s.pendingX = stContractOut, s.xc
	default:
		// Inside contraction between centroid and the worst vertex.
		worst := s.worst()
		for d := range s.xc {
			s.xc[d] = s.centroid[d] + s.beta*(worst.x[d]-s.centroid[d])
		}
		s.state, s.pendingX = stContractIn, s.xc
	}
}

func (s *Simplex) onExpand(fe float64) {
	if fe < s.fr {
		s.replaceWorst(s.xe, fe)
	} else {
		s.replaceWorst(s.xr, s.fr)
	}
	s.startIteration()
}

func (s *Simplex) replaceWorst(x []float64, f float64) {
	w := s.worst()
	copy(w.x, x)
	w.f = f
}

// beginShrink moves every non-best vertex toward the best vertex and
// schedules their re-evaluation.
func (s *Simplex) beginShrink() {
	best := s.verts[0]
	for i := 1; i < len(s.verts); i++ {
		for d := range s.verts[i].x {
			s.verts[i].x[d] = best.x[d] + s.sigma*(s.verts[i].x[d]-best.x[d])
		}
	}
	s.state = stShrink
	s.shrinkIdx = 1
}

// Speculate implements Speculator. While the reflection point of the
// current iteration is being evaluated, the three possible follow-up
// proposals — expansion, outside contraction, inside contraction —
// are already fully determined by the centroid, the reflection ray,
// and the worst vertex, so spare parallel workers can prefetch them
// and discard whichever branches the reflection value rules out.
// During the initial-simplex and shrink phases the remaining vertices
// of the phase are likewise fully determined (their coordinates do
// not depend on the values still being measured), so they are safe
// to prefetch too — that is what lets the pipelined engine evaluate
// a restart's rebuilt simplex in parallel instead of one vertex per
// round trip. In the expand/contract states there is nothing safe to
// predict: every later proposal depends on values not yet measured.
func (s *Simplex) Speculate(max int) []space.Point {
	if s.pendingX == nil || max <= 0 {
		return nil
	}
	switch s.state {
	case stInit, stShrink:
		from := s.initIdx
		if s.state == stShrink {
			from = s.shrinkIdx
		}
		var out []space.Point
		for _, v := range s.verts[from+1:] {
			if len(out) == max {
				break
			}
			out = append(out, s.sp.Nearest(v.x))
		}
		return out
	case stReflect:
		// Handled below.
	default:
		return nil
	}
	worst := s.worst()
	xe := make([]float64, s.dims)
	xcOut := make([]float64, s.dims)
	xcIn := make([]float64, s.dims)
	for d := 0; d < s.dims; d++ {
		xe[d] = s.centroid[d] + s.gamma*(s.xr[d]-s.centroid[d])
		xcOut[d] = s.centroid[d] + s.beta*(s.xr[d]-s.centroid[d])
		xcIn[d] = s.centroid[d] + s.beta*(worst.x[d]-s.centroid[d])
	}
	var out []space.Point
	for _, x := range [][]float64{xe, xcOut, xcIn} {
		if len(out) == max {
			break
		}
		out = append(out, s.sp.Nearest(x))
	}
	return out
}

// String summarises the simplex state for debugging.
func (s *Simplex) String() string {
	return fmt.Sprintf("simplex(dims=%d state=%d iter=%d)", s.dims, s.state, s.iterations)
}
