package gs2

import (
	"math"
	"slices"

	"harmony/internal/cluster"
	"harmony/internal/simmpi"
	"harmony/internal/space"
)

// Predictor prices a run in closed form, without executing a rank:
// the Table III / Fig. 6 objective as initialisation plus Steps
// identical time steps, where a step is the layout's redistribution
// transposes, the per-phase compute of the heaviest chunk, the
// replicated field solve with its reduction, and the fixed step
// overhead — simulate's rank program, read phase by phase for the
// rank that gates each one. It reads the same frozen plans and the
// same constants simulate and redistribute charge, so a prediction
// builds nothing a real run would not build anyway. It ignores
// scheduling interleave, which the simulation resolves exactly: the
// tuning engine uses it to rank candidates, never as a measurement.
type Predictor struct {
	base Config
	mf   MachineFor
}

// NewPredictor builds the predictor over a base configuration;
// negrid, ntheta, and nodes come from each candidate (the
// ResolutionSpace parameters), and an optional "layout" parameter
// overrides the data layout.
func NewPredictor(base Config, mf MachineFor) *Predictor {
	return &Predictor{base: base, mf: mf}
}

// Predict prices one run of the resolution/machine-size candidate. It
// declines configurations missing the resolution parameters or
// failing the application's own validation.
func (s *Predictor) Predict(_ space.Point, cfg space.Config) (float64, bool) {
	negrid, ok1 := cfg.LookupInt("negrid")
	ntheta, ok2 := cfg.LookupInt("ntheta")
	nodes, ok3 := cfg.LookupInt("nodes")
	if !ok1 || !ok2 || !ok3 || nodes < 1 {
		return 0, false
	}
	c := s.base
	c.Negrid, c.Ntheta = negrid, ntheta
	if l, ok := cfg.Lookup("layout"); ok {
		c.Layout = Layout(l)
	}
	if c.Validate() != nil {
		return 0, false
	}
	m := s.mf(nodes)
	p := m.Procs()
	pl := c.plans(p)
	d := c.Dims()
	speed := minSpeed(m)

	// One redistribution: pack on the heaviest sender, the all-to-all
	// exchange — as the simulator prices it for synchronised arrivals,
	// finishing at the slowest rank — unpack on the heaviest receiver.
	// A plan that moves nothing costs nothing, exactly like
	// redistribute's early-out. The exchange is priced for m as Run
	// prices it, so a prediction and a run on the same machine share
	// one pricing.
	exits := make([]float64, p)
	redistCost := func(rd *redist) float64 {
		if rd.totalMoved == 0 {
			return 0
		}
		maxPack, maxUnpack := 0.0, 0.0
		for r := 0; r < p; r++ {
			if t := rd.pack[r] * rd.fraction / m.SpeedOf(r); t > maxPack {
				maxPack = t
			}
			if t := rd.unpack[r] * rd.fraction / m.SpeedOf(r); t > maxUnpack {
				maxUnpack = t
			}
		}
		rd.exchange.Price(m).Exits(0, exits)
		return maxPack + slices.Max(exits) + maxUnpack
	}
	// The largest per-rank element count times the sub-point weight of
	// each element is the compute-load gate of a phase.
	maxChunk := float64(ceilDiv(d.N(), p)) * elemWeight
	chunk := func(flopsPerSub float64) float64 {
		return maxChunk * flopsPerSub / speed
	}

	perStep := redistCost(pl.toXY) + chunk(nonlinearFlops) +
		redistCost(pl.fromXY) + chunk(implicitFlops)
	if c.Collisions {
		perStep += redistCost(pl.toLE) + chunk(collisionFlops) + redistCost(pl.fromLE)
	}
	fieldWork := fieldSolveFlops * float64(d.X*d.Y) * elemWeight
	perStep += fieldWork/speed +
		simmpi.TreeCost(m, p, 8*fieldSolveDoubles) + stepOverheadSeconds

	init := initFixedSeconds + redistCost(pl.toXY) +
		chunk((nonlinearFlops+implicitFlops)*initStepEquivalents) +
		redistCost(pl.fromXY)

	total := init + float64(c.Steps)*perStep
	if total <= 0 {
		return 0, false
	}
	return total, true
}

// minSpeed returns the slowest rank's speed in FLOP/s: the compute
// gate of a load-balanced phase on a possibly heterogeneous machine.
func minSpeed(m *cluster.Machine) float64 {
	s := math.Inf(1)
	for r := 0; r < m.Procs(); r++ {
		if v := m.SpeedOf(r); v < s {
			s = v
		}
	}
	return s
}
