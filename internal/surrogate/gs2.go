package surrogate

import (
	"math"
	"slices"

	"harmony/internal/cluster"
	"harmony/internal/gs2"
	"harmony/internal/simmpi"
	"harmony/internal/space"
)

// GS2 predicts the Table III / Fig. 6 gyrokinetic-turbulence
// objective: initialisation plus Steps identical time steps, where a
// step is the layout's redistribution transposes, the per-phase
// compute of the heaviest chunk, the replicated field solve with its
// reduction, and the fixed step overhead. The redistribution plans
// and chunk sizes come from the same caches the simulator uses, so a
// prediction builds nothing a real run would not build anyway — and
// executes no ranks.
type GS2 struct {
	base gs2.Config
	mf   gs2.MachineFor
}

// NewGS2 builds the predictor over a base configuration; negrid,
// ntheta, and nodes come from each candidate (the ResolutionSpace
// parameters), and an optional "layout" parameter overrides the data
// layout.
func NewGS2(base gs2.Config, mf gs2.MachineFor) *GS2 {
	return &GS2{base: base, mf: mf}
}

// Predict prices one run of the resolution/machine-size candidate. It
// declines configurations missing the resolution parameters or
// failing the application's own validation.
func (s *GS2) Predict(_ space.Point, cfg space.Config) (float64, bool) {
	vals := cfg.Map()
	negrid, ok1 := cfgInt(vals, "negrid")
	ntheta, ok2 := cfgInt(vals, "ntheta")
	nodes, ok3 := cfgInt(vals, "nodes")
	if !ok1 || !ok2 || !ok3 || nodes < 1 {
		return 0, false
	}
	c := s.base
	c.Negrid, c.Ntheta = negrid, ntheta
	if l, ok := vals["layout"]; ok {
		c.Layout = gs2.Layout(l)
	}
	if c.Validate() != nil {
		return 0, false
	}
	m := s.mf(nodes)
	p := m.Procs()
	cm := c.ComputeModel(p)
	plans := c.ExchangePlans(p)
	speed := minSpeed(m)

	// One redistribution: pack on the heaviest sender, the all-to-all
	// exchange — as the simulator prices it for synchronised arrivals,
	// finishing at the slowest rank — unpack on the heaviest receiver.
	// A plan that moves nothing costs nothing, exactly like the
	// simulator's early-out.
	exits, scratch := make([]float64, p), simmpi.NewAlltoallvScratch(p)
	redistCost := func(pl gs2.PlanInfo) float64 {
		if pl.TotalMoved == 0 {
			return 0
		}
		maxPack, maxUnpack := 0.0, 0.0
		for r := 0; r < p; r++ {
			if t := float64(pl.Sent[r]) * cm.ElemWeight * cm.PackFlops * pl.Fraction / m.SpeedOf(r); t > maxPack {
				maxPack = t
			}
			if t := float64(pl.Recvd[r]) * cm.ElemWeight * cm.PackFlops * pl.Fraction / m.SpeedOf(r); t > maxUnpack {
				maxUnpack = t
			}
		}
		simmpi.AlltoallvExits(m, pl.SendBytes, 0, exits, scratch)
		return maxPack + slices.Max(exits) + maxUnpack
	}
	chunk := func(flopsPerSub float64) float64 {
		return cm.MaxChunkSubpoints * flopsPerSub / speed
	}

	toXY, fromXY := plans[0], plans[1]
	perStep := redistCost(toXY) + chunk(cm.NonlinearFlops) +
		redistCost(fromXY) + chunk(cm.ImplicitFlops)
	if c.Collisions {
		perStep += redistCost(plans[2]) + chunk(cm.CollisionFlops) + redistCost(plans[3])
	}
	perStep += cm.FieldSolveFlops/speed +
		simmpi.TreeCost(m, p, 8*cm.FieldSolveDoubles) + cm.StepOverheadSeconds

	init := cm.InitFixedSeconds + redistCost(toXY) +
		chunk((cm.NonlinearFlops+cm.ImplicitFlops)*cm.InitStepEquivalents) +
		redistCost(fromXY)

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
