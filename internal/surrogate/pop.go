package surrogate

import (
	"harmony/internal/cluster"
	"harmony/internal/pop"
	"harmony/internal/simmpi"
	"harmony/internal/space"
)

// POP predicts the Fig. 4 ocean-model objective for block-size
// candidates: Steps time steps of baroclinic stencil work with its
// halo refreshes, surface forcing, the iterative barotropic solve
// with per-iteration halo and reduction, optional global diagnostics,
// and the end-of-run history dump. The block decomposition — per-rank
// points and aggregated per-peer halo volumes — comes from the same
// frozen layout cache the simulator uses.
type POP struct {
	base pop.Config
	m    *cluster.Machine
}

// NewPOP builds the predictor over a base configuration and machine;
// bx and by come from each candidate (the BlockSpace parameters).
func NewPOP(base pop.Config, m *cluster.Machine) *POP {
	return &POP{base: base, m: m}
}

// Predict prices one benchmarking run of the block-size candidate. It
// declines configurations without bx/by or whose geometry the
// application itself would reject.
func (s *POP) Predict(_ space.Point, cfg space.Config) (float64, bool) {
	vals := cfg.Map()
	bx, ok1 := cfgInt(vals, "bx")
	by, ok2 := cfgInt(vals, "by")
	if !ok1 || !ok2 {
		return 0, false
	}
	c := s.base
	c.BX, c.BY = bx, by
	p := s.m.Procs()
	ly, err := c.CachedLayout(p)
	if err != nil {
		return 0, false
	}
	costs, err := c.CostModel()
	if err != nil {
		return 0, false
	}
	levels := c.Levels
	if levels <= 0 {
		levels = 40
	}

	// halo prices one ghost-cell refresh for rank r at the given field
	// multiplier: injection overhead per outbound peer message, then
	// latency plus serialised bytes for each inbound one.
	halo := func(r, fields int) float64 {
		peers, vols := ly.Peers(r)
		t := 0.0
		for i, peer := range peers {
			link := s.m.LinkBetween(r, peer)
			t += link.Overhead
			t += link.Latency + float64(fields*vols[i])/link.Bandwidth
		}
		return t
	}

	// Baroclinic + forcing: the slowest rank through stencil work and
	// its halo refreshes gates the phase.
	baro, btrop, diag := 0.0, 0.0, 0.0
	for r := 0; r < p; r++ {
		pts := float64(ly.Points(r))
		speed := s.m.SpeedOf(r)
		if t := pts*(costs.BaroclinicFlopsPerPoint+costs.ForcingFlopsPerPoint)/speed +
			float64(pop.HaloExchangesPerStep)*halo(r, pop.HaloFields*levels); t > baro {
			baro = t
		}
		if t := pts*costs.BarotropicFlopsPerPoint/speed + halo(r, 1); t > btrop {
			btrop = t
		}
		if t := pts * 4 / speed; t > diag {
			diag = t
		}
	}
	allreduce := simmpi.TreeCost(s.m, p, 8)
	perStep := baro + float64(c.BarotropicIters)*(btrop+allreduce)
	if costs.DiagEveryStep {
		perStep += diag + allreduce
	}

	// One history dump at the end of the benchmarking run: barrier,
	// gather to the writers, contended filesystem write.
	io := simmpi.TreeCost(s.m, p, 0) + costs.IODumpSeconds(8*c.NX*c.NY, s.m)

	total := float64(c.Steps)*perStep + io
	if total <= 0 {
		return 0, false
	}
	return total, true
}
