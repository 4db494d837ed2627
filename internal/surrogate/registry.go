// Package surrogate is the registry of the case-study applications'
// analytic predictors: For resolves an application name to one. The
// predictors themselves live beside the rank programs they price —
// gs2.Predictor, pop.Predictor, petscsim.SLESPredictor — and read
// those programs' plans and constants directly, so what one run of an
// application costs is written in one package per application.
// Collectives go through the cost functions internal/simmpi's own
// rendezvous charges through (simmpi.TreeCost, simmpi.AlltoallvExits),
// so there is no second copy of the communication model either; the
// cross-application tests here pin all three to their simulators.
//
// The tuning engine (core.Options.Surrogate) uses the predictions
// only to rank candidates and decide which ones deserve a real
// simulated run; every reported number still comes from the simulator.
package surrogate

import (
	"strings"

	"harmony/internal/cluster"
	"harmony/internal/core"
	"harmony/internal/gs2"
	"harmony/internal/petscsim"
	"harmony/internal/pop"
)

// For resolves an application name to the analytic predictor of the
// matching case-study workload, or nil when no model covers it. The
// match is by substring, so campaign names like "fig2-sles-seed11" or
// "gs2-table3" resolve; the instances mirror the problems of the
// pinned campaigns built by internal/paper: paper.SLES on the Fig. 2
// small system (seed 11) on 4 Seaborg ranks, paper.Resolution of
// GS2's default configuration on the Myrinet Linux cluster, and
// paper.Blocks on the 720×480 POP grid (2 steps, 4 barotropic
// iterations) on 8×4 Seaborg. Every predictor declines
// configurations from spaces it does not understand, so a stale
// name→model mapping degrades to full simulation, never to wrong
// pruning.
func For(app string) core.Surrogate {
	name := strings.ToLower(app)
	switch {
	case strings.Contains(name, "sles"), strings.Contains(name, "petsc"), strings.Contains(name, "fig2"):
		return petscsim.NewSLESApp(600, 4, 3, 60, 11).Predictor(cluster.Seaborg(4, 1))
	case strings.Contains(name, "gs2"), strings.Contains(name, "table3"), strings.Contains(name, "fig6"):
		return gs2.NewPredictor(gs2.DefaultConfig(), gs2.LinuxCluster)
	case strings.Contains(name, "pop"), strings.Contains(name, "fig4"):
		base := pop.DefaultConfig(720, 480)
		base.Steps = 2
		base.BarotropicIters = 4
		return pop.NewPredictor(base, cluster.Seaborg(8, 4))
	}
	return nil
}
