package search

import (
	"harmony/internal/space"
)

// CoordinateOptions configure coordinate descent.
type CoordinateOptions struct {
	// Start is the initial point. If nil, the space centre is used.
	Start space.Point
	// MaxPasses bounds the number of full sweeps over all parameters.
	// 0 means sweep until a full pass makes no improvement.
	MaxPasses int
}

// Coordinate is a greedy one-parameter-at-a-time strategy: for each
// dimension in turn, in space order, it evaluates every level of that
// dimension with the other parameters held at the incumbent, then
// moves to the best.
// This reproduces the paper's Table I behaviour where each tuning
// iteration changes a single POP namelist parameter.
type Coordinate struct {
	tracker
	sp  *space.Space
	opt CoordinateOptions

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

	pending space.Point
	done    bool
}

// NewCoordinate constructs a coordinate-descent strategy.
func NewCoordinate(sp *space.Space, opt CoordinateOptions) *Coordinate {
	c := &Coordinate{sp: sp, opt: opt}
	c.current = opt.Start
	if c.current == nil {
		c.current = sp.Center()
	}
	c.current = sp.Clamp(c.current)
	return c
}

// Name implements Strategy.
func (c *Coordinate) Name() string { return "coordinate" }

// Passes reports the number of completed sweeps.
func (c *Coordinate) Passes() int { return c.passes }

// Current returns the incumbent point.
func (c *Coordinate) Current() space.Point { return c.current.Clone() }

// Next implements Strategy.
func (c *Coordinate) Next() (space.Point, bool) {
	if c.done {
		return nil, false
	}
	if c.pending != nil {
		return c.pending.Clone(), true
	}
	if !c.haveBase {
		c.pending = c.current.Clone()
		return c.pending.Clone(), true
	}
	for {
		if c.candidates == nil {
			dim := c.dimPos
			c.candBest = nil
			c.candIdx = 0
			c.candidates = nil
			for _, pt := range c.sp.AxisPoints(c.current, dim) {
				if pt[dim] != c.current[dim] { // incumbent level already measured
					c.candidates = append(c.candidates, pt)
				}
			}
			if len(c.candidates) == 0 {
				c.advanceDim()
				if c.done {
					return nil, false
				}
				continue
			}
		}
		c.pending = c.candidates[c.candIdx].Clone()
		return c.pending.Clone(), true
	}
}

// Report implements Strategy.
func (c *Coordinate) Report(pt space.Point, value float64) {
	mustPending(c.Name(), c.pending)
	c.observe(pt, value)
	c.pending = nil

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
	if !c.improved || (c.opt.MaxPasses > 0 && c.passes >= c.opt.MaxPasses) {
		c.done = true
		return
	}
	c.improved = false
	c.dimPos = 0
}
