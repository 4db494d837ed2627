package search

import (
	"math"

	"harmony/internal/space"
)

// sampler is the issue/commit cursor of the sampling strategies: it
// hands out rounds of up to defaultBatchStride of its total points and
// opens the next round only once the last has fully committed.
type sampler struct {
	machine
	total, issued, committed, end int64 // end: where the open round's issues stop
}

// open reports whether Ask may issue the next point, and counts it.
func (s *sampler) open() bool {
	if s.issued == s.end {
		if s.committed < s.issued {
			return false // stalled until the round commits
		}
		if s.end = s.issued + min(defaultBatchStride, s.total-s.issued); s.end == s.issued {
			s.finish()
			return false
		}
	}
	s.issued++
	return true
}

// Commit implements AsyncStrategy.
func (s *sampler) Commit(pt space.Point, value float64) {
	s.observe(pt, value)
	s.committed++
}

// Random is a uniform random-sampling strategy. It proposes points
// drawn uniformly from the space until MaxSamples proposals
// have been evaluated. It serves as a baseline against the simplex
// strategy.
type Random struct {
	sampler
	sp  *space.Space
	rng seededRand
}

// NewRandom constructs a random strategy that proposes maxSamples
// points using the given seed. maxSamples <= 0 means unbounded.
func NewRandom(sp *space.Space, seed int64, maxSamples int) *Random {
	r := &Random{sp: sp}
	r.self, r.total = r, math.MaxInt64
	if maxSamples > 0 {
		r.total = int64(maxSamples)
	}
	r.rng.reset(seed)
	return r
}

// Name implements Strategy.
func (r *Random) Name() string { return "random" }

// Ask implements AsyncStrategy: the next draw of the seeded sample
// stream.
func (r *Random) Ask() (space.Point, bool) {
	if !r.open() {
		return nil, false
	}
	return r.sp.Random(&r.rng.Rand), true
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
	s.self = s
	s.start(sp.GridLattice(budget), sp.Dims())
	return s
}

// Name implements Strategy.
func (s *Systematic) Name() string { return "systematic" }

// Commit implements AsyncStrategy.
func (s *Systematic) Commit(pt space.Point, value float64) {
	s.walk.Commit(pt, value)
	s.Values = append(s.Values, value)
}

// Exhaustive enumerates every point of a space, in the number order of
// its FullLattice.
type Exhaustive struct {
	walk
}

// NewExhaustive constructs an exhaustive strategy.
func NewExhaustive(sp *space.Space) *Exhaustive {
	e := &Exhaustive{}
	e.self = e
	e.start(sp.FullLattice(), sp.Dims())
	return e
}

// Name implements Strategy.
func (e *Exhaustive) Name() string { return "exhaustive" }

// walk visits the points of a lattice in number order. It holds its
// position, not the points: the cursor of Systematic and Exhaustive.
type walk struct {
	sampler
	lat  space.Lattice
	dims int
}

func (w *walk) start(lat space.Lattice, dims int) {
	w.lat, w.dims, w.total = lat, dims, lat.Size()
}

// Planned reports how many points will be visited.
func (w *walk) Planned() int { return int(w.lat.Size()) }

// Ask implements AsyncStrategy: the next unvisited point.
func (w *walk) Ask() (space.Point, bool) {
	if !w.open() {
		return nil, false
	}
	pt := make(space.Point, w.dims)
	w.lat.At(w.issued-1, pt)
	return pt, true
}
