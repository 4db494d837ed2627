package search

import (
	"math/rand"

	"harmony/internal/space"
)

// Random is a uniform random-sampling strategy. It proposes feasible
// points drawn uniformly from the space until MaxSamples proposals
// have been evaluated. It serves as a baseline against the simplex
// strategy.
type Random struct {
	tracker
	sp      *space.Space
	rng     *rand.Rand
	max     int
	count   int
	pending space.Point
}

// NewRandom constructs a random strategy that proposes maxSamples
// points using the given seed. maxSamples <= 0 means unbounded.
func NewRandom(sp *space.Space, seed int64, maxSamples int) *Random {
	return &Random{sp: sp, rng: rand.New(rand.NewSource(seed)), max: maxSamples}
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
	r.pending = r.sp.Random(r.rng)
	return r.pending.Clone(), true
}

// Report implements Strategy.
func (r *Random) Report(pt space.Point, value float64) {
	mustPending(r.Name(), r.pending)
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
	pts := make([]space.Point, n)
	for i := range pts {
		pts[i] = r.sp.Random(r.rng)
	}
	return pts
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
	tracker
	points  []space.Point
	idx     int
	pending bool
	// Values records the objective at every visited grid point in
	// visit order; Fig. 6 histograms this distribution.
	Values []float64
}

// NewSystematic constructs a systematic-sampling strategy with at
// most budget points.
func NewSystematic(sp *space.Space, budget int) *Systematic {
	return &Systematic{points: sp.Grid(budget)}
}

// Name implements Strategy.
func (s *Systematic) Name() string { return "systematic" }

// Planned reports how many grid points will be visited.
func (s *Systematic) Planned() int { return len(s.points) }

// Next implements Strategy.
func (s *Systematic) Next() (space.Point, bool) {
	if s.idx >= len(s.points) {
		return nil, false
	}
	s.pending = true
	return s.points[s.idx].Clone(), true
}

// Report implements Strategy.
func (s *Systematic) Report(pt space.Point, value float64) {
	if !s.pending {
		mustPending(s.Name(), nil)
	}
	s.observe(pt, value)
	s.Values = append(s.Values, value)
	s.pending = false
	s.idx++
}

// NextBatch implements BatchStrategy: the next DefaultBatchStride
// unvisited grid points.
func (s *Systematic) NextBatch() []space.Point {
	return sliceBatch(s.points, s.idx, DefaultBatchStride)
}

// ReportBatch implements BatchStrategy.
func (s *Systematic) ReportBatch(pts []space.Point, values []float64) {
	for i := range pts {
		s.pending = true
		s.Report(pts[i], values[i])
	}
}

// Exhaustive enumerates every feasible point of a (small) space.
type Exhaustive struct {
	tracker
	points  []space.Point
	idx     int
	pending bool
}

// NewExhaustive constructs an exhaustive strategy. The space must be
// small enough to enumerate; the constructor materialises all
// feasible points.
func NewExhaustive(sp *space.Space) *Exhaustive {
	e := &Exhaustive{}
	sp.All(func(pt space.Point) bool {
		e.points = append(e.points, pt)
		return true
	})
	return e
}

// Name implements Strategy.
func (e *Exhaustive) Name() string { return "exhaustive" }

// Planned reports how many points will be visited.
func (e *Exhaustive) Planned() int { return len(e.points) }

// Next implements Strategy.
func (e *Exhaustive) Next() (space.Point, bool) {
	if e.idx >= len(e.points) {
		return nil, false
	}
	e.pending = true
	return e.points[e.idx].Clone(), true
}

// Report implements Strategy.
func (e *Exhaustive) Report(pt space.Point, value float64) {
	if !e.pending {
		mustPending(e.Name(), nil)
	}
	e.observe(pt, value)
	e.pending = false
	e.idx++
}

// NextBatch implements BatchStrategy: the next DefaultBatchStride
// unevaluated points of the enumeration.
func (e *Exhaustive) NextBatch() []space.Point {
	return sliceBatch(e.points, e.idx, DefaultBatchStride)
}

// ReportBatch implements BatchStrategy.
func (e *Exhaustive) ReportBatch(pts []space.Point, values []float64) {
	for i := range pts {
		e.pending = true
		e.Report(pts[i], values[i])
	}
}

// sliceBatch clones the next stride points of a precomputed visit
// order starting at idx.
func sliceBatch(points []space.Point, idx, stride int) []space.Point {
	if idx >= len(points) {
		return nil
	}
	end := idx + stride
	if end > len(points) {
		end = len(points)
	}
	out := make([]space.Point, 0, end-idx)
	for _, pt := range points[idx:end] {
		out = append(out, pt.Clone())
	}
	return out
}
