package search

import "harmony/internal/space"

// Random is a uniform random-sampling strategy. It proposes points
// drawn uniformly from the space until MaxSamples proposals
// have been evaluated. It serves as a baseline against the simplex
// strategy.
type Random struct {
	tracker
	sp      *space.Space
	rng     seededRand
	max     int
	count   int
	pending space.Point
	batch   []space.Point // NextBatch's array
}

// NewRandom constructs a random strategy that proposes maxSamples
// points using the given seed. maxSamples <= 0 means unbounded.
func NewRandom(sp *space.Space, seed int64, maxSamples int) *Random {
	r := &Random{sp: sp, max: maxSamples}
	r.rng.reset(seed)
	return r
}

// Name implements Strategy.
func (r *Random) Name() string { return "random" }

// Next implements Strategy.
func (r *Random) Next() (space.Point, bool) {
	if r.pending != nil {
		return r.pending.Clone(), true
	}
	if r.max > 0 && r.count >= r.max {
		return nil, false
	}
	r.pending = r.sp.Random(&r.rng.Rand)
	return r.pending.Clone(), true
}

// Report implements Strategy.
func (r *Random) Report(pt space.Point, value float64) {
	mustPending(r.Name(), r.pending != nil)
	r.observe(pt, value)
	r.pending = nil
	r.count++
}

// NextBatch implements BatchStrategy: up to DefaultBatchStride fresh
// draws from the same deterministic sample stream Next consumes.
func (r *Random) NextBatch() []space.Point {
	if r.pending != nil {
		return []space.Point{r.pending.Clone()}
	}
	n := DefaultBatchStride
	if r.max > 0 {
		if rem := r.max - r.count; rem < n {
			n = rem
		}
	}
	if n <= 0 {
		return nil
	}
	r.batch = r.batch[:0]
	for range n {
		r.batch = append(r.batch, r.sp.Random(&r.rng.Rand))
	}
	return r.batch
}

// ReportBatch implements BatchStrategy.
func (r *Random) ReportBatch(pts []space.Point, values []float64) {
	for i := range pts {
		if r.pending == nil {
			r.pending = pts[i].Clone()
		}
		r.Report(pts[i], values[i])
	}
}

// Systematic enumerates an evenly spaced grid over the space — the
// paper's "systematic sampling" used to map the whole GS2
// configuration space for Fig. 6. The budget bounds the number of
// grid points.
type Systematic struct {
	walk
	// Values records the objective at every visited grid point in
	// visit order; Fig. 6 histograms this distribution.
	Values []float64
}

// NewSystematic constructs a systematic-sampling strategy with at
// most budget points.
func NewSystematic(sp *space.Space, budget int) *Systematic {
	s := &Systematic{}
	s.start(sp.GridLattice(budget), sp.Dims())
	return s
}

// Name implements Strategy.
func (s *Systematic) Name() string { return "systematic" }

// Report implements Strategy.
func (s *Systematic) Report(pt space.Point, value float64) {
	s.advance(s.Name(), pt, value)
	s.Values = append(s.Values, value)
}

// ReportBatch implements BatchStrategy.
func (s *Systematic) ReportBatch(pts []space.Point, values []float64) {
	for i := range pts {
		s.pending = true
		s.Report(pts[i], values[i])
	}
}

// Exhaustive enumerates every point of a space, in the number order of
// its FullLattice.
type Exhaustive struct {
	walk
}

// NewExhaustive constructs an exhaustive strategy.
func NewExhaustive(sp *space.Space) *Exhaustive {
	e := &Exhaustive{}
	e.start(sp.FullLattice(), sp.Dims())
	return e
}

// Name implements Strategy.
func (e *Exhaustive) Name() string { return "exhaustive" }

// Report implements Strategy.
func (e *Exhaustive) Report(pt space.Point, value float64) {
	e.advance(e.Name(), pt, value)
}

// ReportBatch implements BatchStrategy.
func (e *Exhaustive) ReportBatch(pts []space.Point, values []float64) {
	for i := range pts {
		e.pending = true
		e.Report(pts[i], values[i])
	}
}

// walk visits the points of a lattice in number order. It holds its
// position, not the points: the cursor of Systematic and Exhaustive.
type walk struct {
	tracker
	lat     space.Lattice
	k       int64       // number of the next point to report; lat.Size() once exhausted
	pt      space.Point // the point numbered k
	pending bool
	batch   []space.Point // NextBatch's array
}

func (w *walk) start(lat space.Lattice, dims int) {
	w.lat, w.pt = lat, make(space.Point, dims)
	if lat.Size() > 0 {
		lat.At(0, w.pt)
	}
}

// Planned reports how many points will be visited.
func (w *walk) Planned() int { return int(w.lat.Size()) }

// Next implements Strategy.
func (w *walk) Next() (space.Point, bool) {
	if w.k >= w.lat.Size() {
		return nil, false
	}
	w.pending = true
	return w.pt.Clone(), true
}

// advance records the value of the pending point and moves past it.
func (w *walk) advance(name string, pt space.Point, value float64) {
	mustPending(name, w.pending)
	w.observe(pt, value)
	w.pending = false
	if w.k++; w.k < w.lat.Size() {
		w.lat.At(w.k, w.pt)
	}
}

// NextBatch implements BatchStrategy: the next DefaultBatchStride
// unvisited points.
func (w *walk) NextBatch() []space.Point {
	w.batch = w.batch[:0]
	for k := w.k; k < w.lat.Size() && len(w.batch) < DefaultBatchStride; k++ {
		pt := make(space.Point, len(w.pt))
		w.lat.At(k, pt)
		w.batch = append(w.batch, pt)
	}
	return w.batch
}
