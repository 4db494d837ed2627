package pop

import (
	"harmony/internal/cluster"
	"harmony/internal/simmpi"
	"harmony/internal/space"
)

// Predictor prices a block-size candidate of the Fig. 4 objective in
// closed form, without executing a rank: RunStats' rank program —
// Steps time steps of baroclinic stencil work with its halo
// refreshes, surface forcing, the iterative barotropic solve with
// per-iteration halo and reduction, optional global diagnostics, and
// the end-of-run history dump — read phase by phase for the rank that
// gates each one. It reads the frozen layout and the namelist's
// phaseCosts exactly as RunStats does. It ignores scheduling
// interleave, which the simulation resolves exactly: the tuning
// engine uses it to rank candidates, never as a measurement.
type Predictor struct {
	base  Config
	m     *cluster.Machine
	costs phaseCosts // the base namelist's, resolved once
	err   error      // why the base namelist does not resolve: Predict declines
}

// NewPredictor builds the predictor over a base configuration and
// machine; bx and by come from each candidate (the BlockSpace
// parameters).
func NewPredictor(base Config, m *cluster.Machine) *Predictor {
	nl, err := resolveNamelist(base.Namelist)
	if err != nil {
		return &Predictor{base: base, m: m, err: err}
	}
	return &Predictor{base: base, m: m, costs: nl.costs()}
}

// Predict prices one benchmarking run of the block-size candidate. It
// declines configurations without bx/by or whose geometry the
// application itself would reject, and every configuration when the
// base namelist does not resolve.
func (s *Predictor) Predict(_ space.Point, cfg space.Config) (float64, bool) {
	bx, ok1 := cfg.LookupInt("bx")
	by, ok2 := cfg.LookupInt("by")
	if !ok1 || !ok2 || s.err != nil {
		return 0, false
	}
	c := s.base
	c.BX, c.BY = bx, by
	p := s.m.Procs()
	ly, err := c.cachedLayout(p)
	if err != nil {
		return 0, false
	}
	costs := &s.costs
	fields := haloFields * c.levels()

	// Baroclinic + forcing: the slowest rank through stencil work and
	// its halo refreshes gates the phase. One walk of a rank's halo
	// edges prices a ghost-cell refresh at both field multipliers —
	// injection overhead per outbound peer message, then latency plus
	// serialised bytes for each inbound one — each sum in edge order.
	// The sums stay apart: factoring fields out would change the
	// rounding, and TestPredictionGoldens pins the bits.
	h := &ly.halo
	baro, btrop, diag := 0.0, 0.0, 0.0
	for r := 0; r < p; r++ {
		haloAll, haloOne := 0.0, 0.0
		for k := h.Start[r]; k < h.Start[r+1]; k++ {
			link := s.m.LinkBetween(r, h.Dst[k])
			haloAll += link.Overhead
			haloAll += link.Latency + float64(fields*h.Bytes[k])/link.Bandwidth
			haloOne += link.Overhead
			haloOne += link.Latency + float64(h.Bytes[k])/link.Bandwidth
		}
		pts := ly.points[r]
		speed := s.m.SpeedOf(r)
		if t := pts*(costs.baroclinicFlopsPerPoint+costs.forcingFlopsPerPoint)/speed +
			float64(haloExchangesPerStep)*haloAll; t > baro {
			baro = t
		}
		if t := pts*costs.barotropicFlopsPerPoint/speed + haloOne; t > btrop {
			btrop = t
		}
		if t := pts * 4 / speed; t > diag {
			diag = t
		}
	}
	allreduce := simmpi.TreeCost(s.m, p, 8)
	perStep := baro + float64(c.BarotropicIters)*(btrop+allreduce)
	if costs.diagEveryStep {
		perStep += diag + allreduce
	}

	// One history dump at the end of the benchmarking run: barrier,
	// gather to the writers, contended filesystem write.
	io := simmpi.TreeCost(s.m, p, 0) + costs.ioSeconds(8*c.NX*c.NY, s.m)

	total := float64(c.Steps)*perStep + io
	if total <= 0 {
		return 0, false
	}
	return total, true
}
