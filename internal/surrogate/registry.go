// Package surrogate is the registry of the case-study applications'
// analytic predictors: For resolves an application name to one. Two
// applications are screened: POP (pop.Predictor) and the PETSc SLES
// decomposition (petscsim.SLESPredictor). Each predictor lives beside
// the rank program it prices and reads that program's plans and
// constants directly, so what one run of an application costs is
// written in one package per application. Their collectives are
// priced by simmpi.TreeCost, which internal/simmpi's own rendezvous
// charges through, so there is no second copy of the communication
// model either; the cross-application tests here pin both predictors
// to their simulators.
//
// GS2 is not screened: a closed form read from its frozen plans prices
// what its simulator prices (to 5e-5 over the Table III lattice), so a
// gate built on it would prune by the objective itself.
//
// The tuning engine (core.Options.Surrogate) uses the predictions
// only to rank candidates and decide which ones deserve a real
// simulated run; every reported number still comes from the simulator.
package surrogate

import (
	"strings"

	"harmony/internal/cluster"
	"harmony/internal/core"
	"harmony/internal/petscsim"
	"harmony/internal/pop"
)

// For resolves an application name to the analytic predictor of the
// matching case-study workload, or nil when no model covers it, as for
// GS2 names. The match is by substring, so campaign names like
// "fig2-sles-seed11" or "fig4-pop-blocks" resolve; the instances
// mirror the problems of the pinned campaigns built by internal/paper:
// paper.SLES on the Fig. 2 small system (seed 11) on 4 Seaborg ranks,
// and paper.Blocks on the 720×480 POP grid (2 steps, 4 barotropic
// iterations) on 8×4 Seaborg. Every predictor declines configurations
// from spaces it does not understand, so a stale name→model mapping
// degrades to full simulation, never to wrong pruning.
func For(app string) core.Surrogate {
	name := strings.ToLower(app)
	switch {
	case strings.Contains(name, "sles"), strings.Contains(name, "petsc"), strings.Contains(name, "fig2"):
		return petscsim.NewSLESApp(600, 4, 3, 60, 11).Predictor(cluster.Seaborg(4, 1))
	case strings.Contains(name, "pop"), strings.Contains(name, "fig4"):
		base := pop.DefaultConfig(720, 480)
		base.Steps = 2
		base.BarotropicIters = 4
		return pop.NewPredictor(base, cluster.Seaborg(8, 4))
	}
	return nil
}
