// Surrogate regression pins: the model-guided pruning layer chooses
// what to evaluate, never what to report. The tests below fix that
// contract at campaign scale: surrogate campaigns are pinned by golden
// fingerprints that must be bit-identical at every worker count, every
// reported (non-pruned) trial must re-simulate to exactly the value in
// the trial log, the best configuration must be a genuine measurement,
// and a deliberately wrong predictor may waste evaluations but can
// never corrupt a reported result.
//
// Regenerate the goldens (only when a change is *meant* to alter
// results) with:
//
//	HARMONY_PRINT_FINGERPRINTS=1 go test -run TestSurrogateCampaignFingerprints -v .
package harmony_test

import (
	"context"
	"fmt"
	"math"
	"os"
	"testing"

	"harmony/internal/cluster"
	"harmony/internal/core"
	"harmony/internal/gs2"
	"harmony/internal/petscsim"
	"harmony/internal/search"
	"harmony/internal/space"
	"harmony/internal/surrogate"
)

// surrogateCampaigns builds the two benchmark campaigns of the PR —
// the Fig. 2 PETSc decomposition and the Table 3 GS2 resolution sweep
// — with a surrogate model attached. They mirror the fig2-small-pro
// and table3-gs2-resolution campaigns of campaign_regress_test.go
// exactly, so the only variable is the pruning layer.
func surrogateCampaigns(model func(string) core.Surrogate, workers int) map[string]func() (*core.Result, error) {
	return map[string]func() (*core.Result, error){
		"fig2-pro-surrogate": func() (*core.Result, error) {
			app := petscsim.NewSLESApp(600, 4, 3, 60, 11)
			m := cluster.Seaborg(4, 1)
			sp := app.Space()
			return core.Tune(context.Background(), sp,
				search.NewPRO(sp, search.PROOptions{Seed: 11}),
				app.Objective(m), core.Options{
					MaxRuns: 40, Workers: workers,
					Surrogate: &core.SurrogateOptions{Model: model("fig2-sles")},
				})
		},
		"table3-gs2-surrogate": func() (*core.Result, error) {
			base := gs2.DefaultConfig()
			base.Steps = 10
			sp := gs2.ResolutionSpace(64)
			return core.Tune(context.Background(), sp,
				search.NewSimplex(sp, search.SimplexOptions{
					Start: gs2.ResolutionStart(sp, 16, 26, 32), StepFraction: 0.5, Restarts: 12}),
				gs2.ResolutionObjective(gs2.LinuxCluster, base), core.Options{
					MaxRuns: 35, Workers: workers,
					Surrogate: &core.SurrogateOptions{Model: model("table3-gs2")},
				})
		},
	}
}

// surrogateObjectives re-creates each campaign's objective so a trial
// can be re-simulated independently of the tuning engine.
func surrogateObjectives() map[string]core.Objective {
	app := petscsim.NewSLESApp(600, 4, 3, 60, 11)
	base := gs2.DefaultConfig()
	base.Steps = 10
	return map[string]core.Objective{
		"fig2-pro-surrogate":   app.Objective(cluster.Seaborg(4, 1)),
		"table3-gs2-surrogate": gs2.ResolutionObjective(gs2.LinuxCluster, base),
	}
}

// surrogateGoldens pins the surrogate campaigns at every worker count:
// pruning decisions depend only on the model and the proposal stream,
// so workers=1 and workers=4 must produce byte-identical fingerprints.
var surrogateGoldens = map[string]string{
	"fig2-pro-surrogate":   "runs=40 proposals=76 failures=0 best=570,494,499,323 bestValue=3f7d06096fbfc88b bestAtRun=21 cost=3fd28e5540089596 trials=de71d22e453f2e16",
	"table3-gs2-surrogate": "runs=6 proposals=217 failures=0 best=0,0,62 bestValue=403be612cdd61694 bestAtRun=2 cost=406749ccedb9814b trials=65f68143b8c4929d",
}

func TestSurrogateCampaignFingerprints(t *testing.T) {
	printMode := os.Getenv("HARMONY_PRINT_FINGERPRINTS") != ""
	for name, run := range surrogateCampaigns(surrogate.For, 1) {
		name, run := name, run
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			res, err := run()
			if err != nil {
				t.Fatal(err)
			}
			got := fingerprint(res)
			if printMode {
				fmt.Printf("GOLDEN\t%q: %q,\n", name, got)
				return
			}
			want, ok := surrogateGoldens[name]
			if !ok {
				t.Fatalf("no golden fingerprint recorded for %s; got %s", name, got)
			}
			if got != want {
				t.Errorf("surrogate campaign %s diverged:\n got %s\nwant %s", name, got, want)
			}
			if res.SurrogatePruned == 0 {
				t.Errorf("surrogate campaign %s pruned nothing; the layer is inert", name)
			}
		})
	}
}

// TestSurrogateCampaignWorkerInvariance runs each surrogate campaign
// at workers 1 and 4 and requires identical fingerprints: the pruning
// layer must not introduce any worker-count dependence.
func TestSurrogateCampaignWorkerInvariance(t *testing.T) {
	seq := surrogateCampaigns(surrogate.For, 1)
	par := surrogateCampaigns(surrogate.For, 4)
	for name := range seq {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			r1, err := seq[name]()
			if err != nil {
				t.Fatal(err)
			}
			r4, err := par[name]()
			if err != nil {
				t.Fatal(err)
			}
			f1, f4 := fingerprint(r1), fingerprint(r4)
			if f1 != f4 {
				t.Errorf("workers=1 and workers=4 disagree:\n w1 %s\n w4 %s", f1, f4)
			}
		})
	}
}

// TestSurrogateReportedResultsAreMeasured re-simulates every reported
// trial of each surrogate campaign through the application objective
// and requires the exact float64 bits from the trial log, and requires
// the best configuration to be one of those measured trials. A pruned
// trial carries a model prediction and must never satisfy either role.
func TestSurrogateReportedResultsAreMeasured(t *testing.T) {
	objectives := surrogateObjectives()
	for name, run := range surrogateCampaigns(surrogate.For, 4) {
		name, run := name, run
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			res, err := run()
			if err != nil {
				t.Fatal(err)
			}
			assertMeasuredResults(t, res, objectives[name])
			if res.SurrogatePruned == 0 {
				t.Error("campaign pruned nothing; the test exercises no surrogate path")
			}
		})
	}
}

// assertMeasuredResults checks the reporting contract of a surrogate
// Result against the ground-truth objective.
func assertMeasuredResults(t *testing.T, res *core.Result, obj core.Objective) {
	t.Helper()
	ctx := context.Background()
	bestMeasured := false
	for _, tr := range res.Trials {
		if tr.Pruned || tr.Err != nil {
			continue
		}
		truth, err := obj(ctx, tr.Config)
		if err != nil {
			t.Fatalf("re-simulating proposal %d: %v", tr.Proposal, err)
		}
		if math.Float64bits(truth) != math.Float64bits(tr.Value) {
			t.Errorf("proposal %d: reported %x, re-simulation %x — a prediction leaked into the trial log",
				tr.Proposal, math.Float64bits(tr.Value), math.Float64bits(truth))
		}
		if tr.Point.Key() == res.Best.Key() {
			bestMeasured = true
			if math.Float64bits(tr.Value) != math.Float64bits(res.BestValue) {
				t.Errorf("best value %x does not match its measured trial %x",
					math.Float64bits(res.BestValue), math.Float64bits(tr.Value))
			}
		}
	}
	if !bestMeasured {
		t.Errorf("best point %s has no measured trial — the surrogate reported a prediction", res.Best.Key())
	}
}

// predictPoint adapts a pure function of the point to core.Surrogate
// for the adversarial test.
type predictPoint func(space.Point) (float64, bool)

func (f predictPoint) Predict(pt space.Point, _ space.Config) (float64, bool) { return f(pt) }

// TestSurrogateWrongModelNeverCorruptsResults drives the Fig. 2
// campaign with a deterministic but maximally misleading predictor —
// a hash of the point, uncorrelated with the true objective — and
// requires the full reporting contract to survive: worker invariance,
// bit-identical re-simulation of every reported trial, and a measured
// best. A wrong model may only waste evaluations (prune good points,
// keep bad ones); it must never invent a result.
func TestSurrogateWrongModelNeverCorruptsResults(t *testing.T) {
	wrong := func(string) core.Surrogate {
		return predictPoint(func(pt space.Point) (float64, bool) {
			h := uint64(1469598103934665603)
			for _, c := range pt {
				h = (h ^ uint64(c)) * 1099511628211
			}
			return 1 + float64(h%100000), true
		})
	}
	objectives := surrogateObjectives()
	for name, run := range surrogateCampaigns(wrong, 1) {
		name, run := name, run
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			res, err := run()
			if err != nil {
				t.Fatal(err)
			}
			res4, err := surrogateCampaigns(wrong, 4)[name]()
			if err != nil {
				t.Fatal(err)
			}
			if f1, f4 := fingerprint(res), fingerprint(res4); f1 != f4 {
				t.Errorf("wrong model breaks worker invariance:\n w1 %s\n w4 %s", f1, f4)
			}
			assertMeasuredResults(t, res, objectives[name])
			if res.SurrogatePruned == 0 {
				t.Error("wrong model pruned nothing; the adversarial path was not exercised")
			}
		})
	}
}
