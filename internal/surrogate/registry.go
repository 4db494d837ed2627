// Package surrogate implements closed-form LogGP-style performance
// predictors for the paper's case-study applications. A predictor
// prices a candidate configuration analytically — communication
// volume from the frozen decomposition plans, compute load from the
// heaviest rank, link parameters from the cluster.Machine — without
// executing a single simulated rank. The tuning engine
// (core.Options.Surrogate) uses the predictions only to rank
// candidates and decide which ones deserve a real simulated run;
// every reported number still comes from the simulator.
//
// Each predictor prices what its simulator charges. Collectives go
// through the cost functions internal/simmpi exports and its own
// rendezvous charges through (simmpi.TreeCost, simmpi.AlltoallvExits):
// there is no second copy to drift. Compute goes through the
// per-phase flop constants petscsim/gs2/pop export. The ranking
// therefore tracks the simulated ordering closely. A predictor
// deliberately ignores scheduling interleave — the pipeline overlap
// the discrete-event simulation resolves exactly — which is why the
// engine treats predictions as a ranking, not a measurement.
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
// "gs2-table3" resolve; the instances mirror the benchmark campaign
// defaults (the Fig. 2 small SLES system on 4 Seaborg ranks, the GS2
// resolution sweep on the Myrinet Linux cluster, the Fig. 4 POP grid
// on 8×4 Seaborg). Every predictor declines configurations from
// spaces it does not understand, so a stale name→model mapping
// degrades to full simulation, never to wrong pruning.
func For(app string) core.Surrogate {
	name := strings.ToLower(app)
	switch {
	case strings.Contains(name, "sles"), strings.Contains(name, "petsc"), strings.Contains(name, "fig2"):
		return NewSLES(petscsim.NewSLESApp(600, 4, 3, 60, 11), cluster.Seaborg(4, 1))
	case strings.Contains(name, "gs2"), strings.Contains(name, "table3"), strings.Contains(name, "fig6"):
		return NewGS2(gs2.DefaultConfig(), gs2.LinuxCluster)
	case strings.Contains(name, "pop"), strings.Contains(name, "fig4"):
		base := pop.DefaultConfig(720, 480)
		base.Steps = 2
		base.BarotropicIters = 4
		return NewPOP(base, cluster.Seaborg(8, 4))
	}
	return nil
}
