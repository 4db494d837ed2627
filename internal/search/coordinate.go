package search

import (
	"harmony/internal/space"
)

// CoordinateOptions configure coordinate descent.
type CoordinateOptions struct {
	// Start is the initial point. If nil, the space centre is used.
	Start space.Point
}

// Coordinate is a greedy one-parameter-at-a-time strategy: for each
// dimension in turn, in space order, it evaluates every level of that
// dimension with the other parameters held at the incumbent, then
// moves to the best. It sweeps until a full pass improves nothing.
// This reproduces the paper's Table I behaviour where each tuning
// iteration changes a single POP namelist parameter.
type Coordinate struct {
	machine
	sp *space.Space

	current  space.Point
	currentF float64
	haveBase bool

	dimPos     int // dimension being swept
	candidates []space.Point
	candIdx    int
	candBest   space.Point
	candBestF  float64
	improved   bool // any move this pass
	passes     int

	inFlight bool // a proposal awaits its commit
	done     bool
}

// NewCoordinate constructs a coordinate-descent strategy.
func NewCoordinate(sp *space.Space, opt CoordinateOptions) *Coordinate {
	c := &Coordinate{sp: sp}
	c.self = c
	c.current = opt.Start
	if c.current == nil {
		c.current = sp.Center()
	}
	c.current = sp.Clamp(c.current)
	return c
}

// Name implements Strategy.
func (c *Coordinate) Name() string { return "coordinate" }

// Ask implements AsyncStrategy: the next proposal, which stalls the
// sweep until it commits.
func (c *Coordinate) Ask() (space.Point, bool) {
	if c.inFlight {
		return nil, false
	}
	if c.done {
		return c.finish()
	}
	if !c.haveBase {
		c.inFlight = true
		return c.current.Clone(), true
	}
	for c.candidates == nil {
		dim := c.dimPos
		c.candBest = nil
		c.candIdx = 0
		for _, pt := range c.sp.AxisPoints(c.current, dim) {
			if pt[dim] != c.current[dim] { // incumbent level already measured
				c.candidates = append(c.candidates, pt)
			}
		}
		if len(c.candidates) == 0 {
			c.advanceDim()
			if c.done {
				return c.finish()
			}
		}
	}
	c.inFlight = true
	return c.candidates[c.candIdx].Clone(), true
}

// Commit implements AsyncStrategy.
func (c *Coordinate) Commit(pt space.Point, value float64) {
	c.observe(pt, value)
	c.inFlight = false

	if !c.haveBase {
		c.haveBase = true
		c.currentF = value
		return
	}
	if c.candBest == nil || value < c.candBestF {
		c.candBest = pt.Clone()
		c.candBestF = value
	}
	c.candIdx++
	if c.candIdx == len(c.candidates) {
		if c.candBest != nil && c.candBestF < c.currentF {
			c.current = c.candBest
			c.currentF = c.candBestF
			c.improved = true
		}
		c.advanceDim()
	}
}

func (c *Coordinate) advanceDim() {
	c.candidates = nil
	c.candBest = nil
	c.dimPos++
	if c.dimPos < c.sp.Dims() {
		return
	}
	// Pass complete.
	c.passes++
	if !c.improved {
		c.done = true
		return
	}
	c.improved = false
	c.dimPos = 0
}
