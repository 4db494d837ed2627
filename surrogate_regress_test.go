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
	"sync"
	"testing"

	"harmony/internal/core"
	"harmony/internal/paper"
	"harmony/internal/space"
	"harmony/internal/surrogate"
)

// surrogateCampaigns attaches a surrogate model to two campaigns of
// campaign_regress_test.go, the Fig. 2 PETSc decomposition by PRO and
// the Fig. 4 POP block sweep by the simplex, so the only variable is
// the pruning layer and both registry predictors are exercised.
func surrogateCampaigns(model func(string) core.Surrogate, workers int) map[string]paper.Campaign {
	out := map[string]paper.Campaign{}
	for name, pin := range map[string]struct{ campaign, model string }{
		"fig2-pro-surrogate": {"fig2-small-pro-seq", "fig2-sles"},
		"fig4-pop-surrogate": {"fig4-pop-blocks", "fig4-pop"},
	} {
		c := campaigns()[pin.campaign]()
		c.Options.Workers = workers
		c.Options.Surrogate = &core.SurrogateOptions{Model: model(pin.model)}
		out[name] = c
	}
	return out
}

// surrogateGoldens pins the surrogate campaigns at every worker count:
// pruning decisions depend only on the model and the proposal stream,
// so workers=1 and workers=4 must produce byte-identical fingerprints.
var surrogateGoldens = map[string]string{
	"fig2-pro-surrogate": "runs=40 proposals=76 failures=0 best=570,494,499,323 bestValue=3f7d06096fbfc88b bestAtRun=21 cost=3fd28e5540089596 trials=de71d22e453f2e16",
	"fig4-pop-surrogate": "runs=6 proposals=25 failures=0 best=5,0 bestValue=3fa008f227c500be bestAtRun=6 cost=3fcbfc096475536c trials=18b44629e35df28e",
}

func TestSurrogateCampaignFingerprints(t *testing.T) {
	printMode := os.Getenv("HARMONY_PRINT_FINGERPRINTS") != ""
	for name, c := range surrogateCampaigns(surrogate.For, 1) {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			res, err := c.Tune(context.Background())
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
			r1, err := seq[name].Tune(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			r4, err := par[name].Tune(context.Background())
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

// countingModel counts the predictions it is asked for, per point.
type countingModel struct {
	core.Surrogate
	mu    sync.Mutex
	calls map[string]int
}

func (m *countingModel) Predict(pt space.Point, cfg space.Config) (float64, bool) {
	m.mu.Lock()
	m.calls[pt.Key()]++
	m.mu.Unlock()
	return m.Surrogate.Predict(pt, cfg)
}

// TestSurrogateAsksOncePerPoint: a screened session asks its model at
// most once per point, because the window keeps what the gate made of
// every point it has scored. A counting model wrapped around each
// screened golden campaign, at one worker and at four, must see every
// point it is asked about exactly once, and the campaign must still
// read its golden.
func TestSurrogateAsksOncePerPoint(t *testing.T) {
	for _, workers := range []int{1, 4} {
		models := map[string]*countingModel{}
		counting := func(name string) core.Surrogate {
			m := &countingModel{Surrogate: surrogate.For(name), calls: map[string]int{}}
			models[name] = m
			return m
		}
		for name, c := range surrogateCampaigns(counting, workers) {
			res, err := c.Tune(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if got := fingerprint(res); got != surrogateGoldens[name] {
				t.Errorf("%s workers=%d diverged:\n got %s\nwant %s", name, workers, got, surrogateGoldens[name])
			}
		}
		for name, m := range models {
			if len(m.calls) == 0 {
				t.Errorf("workers=%d: model %s was never asked", workers, name)
			}
			for key, n := range m.calls {
				if n != 1 {
					t.Errorf("workers=%d: model %s was asked %d times for point %s, want once", workers, name, n, key)
				}
			}
		}
	}
}

// TestSurrogateReportedResultsAreMeasured re-simulates every reported
// trial of each surrogate campaign through the application objective
// and requires the exact float64 bits from the trial log, and requires
// the best configuration to be one of those measured trials. A pruned
// trial carries a model prediction and must never satisfy either role.
func TestSurrogateReportedResultsAreMeasured(t *testing.T) {
	truth := surrogateCampaigns(surrogate.For, 1) // objectives built apart from the tuned ones
	for name, c := range surrogateCampaigns(surrogate.For, 4) {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			res, err := c.Tune(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			assertMeasuredResults(t, res, truth[name].Space, truth[name].Objective)
			if res.SurrogatePruned == 0 {
				t.Error("campaign pruned nothing; the test exercises no surrogate path")
			}
		})
	}
}

// assertMeasuredResults checks the reporting contract of a surrogate
// Result against the ground-truth objective.
func assertMeasuredResults(t *testing.T, res *core.Result, sp *space.Space, obj core.Objective) {
	t.Helper()
	ctx := context.Background()
	bestMeasured := false
	for _, tr := range res.Trials {
		if tr.Pruned || tr.Err != nil {
			continue
		}
		truth, err := obj(ctx, sp.MustDecode(tr.Point))
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
	truth := surrogateCampaigns(surrogate.For, 1) // objectives built apart from the tuned ones
	for name, c := range surrogateCampaigns(wrong, 1) {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			res, err := c.Tune(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			res4, err := surrogateCampaigns(wrong, 4)[name].Tune(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if f1, f4 := fingerprint(res), fingerprint(res4); f1 != f4 {
				t.Errorf("wrong model breaks worker invariance:\n w1 %s\n w4 %s", f1, f4)
			}
			assertMeasuredResults(t, res, truth[name].Space, truth[name].Objective)
			if res.SurrogatePruned == 0 {
				t.Error("wrong model pruned nothing; the adversarial path was not exercised")
			}
		})
	}
}
