package pop

import (
	"testing"

	"harmony/internal/cluster"
	"harmony/internal/space"
)

// predictBase is the surrogate registry's Fig. 4 instance: the 720×480
// grid, 2 steps of 4 barotropic iterations, on 8×4 Seaborg.
func predictBase() (Config, *cluster.Machine) {
	base := DefaultConfig(720, 480)
	base.Steps, base.BarotropicIters = 2, 4
	return base, cluster.Seaborg(8, 4)
}

// TestPredictAllocatesNothing pins a prediction on a cached layout at
// zero allocations: the namelist's costs are resolved when the
// predictor is built, and the halo is summed in place.
func TestPredictAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; allocation count is meaningless under -race")
	}
	base, m := predictBase()
	model := NewPredictor(base, m)
	sp := BlockSpace()
	pt := BlockStart(90, 80)
	cfg := sp.MustDecode(pt)
	predict := func() {
		if _, ok := model.Predict(pt, cfg); !ok {
			t.Fatal("the predictor declined (bx, by) = (90, 80)")
		}
	}
	predict() // build and cache the layout
	if n := testing.AllocsPerRun(100, predict); n != 0 {
		t.Errorf("a prediction on a cached layout allocates %v times, want 0", n)
	}
}

// BenchmarkPredict prices a spread of BlockSpace block sizes the model
// accepts, round robin on cached layouts: ns/op is one prediction, the
// tier-1 counterpart of the benchmark program's surrogate.predict_ns.
func BenchmarkPredict(b *testing.B) {
	base, m := predictBase()
	model := NewPredictor(base, m)
	sp := BlockSpace()
	var pts []space.Point
	var cfgs []space.Config
	for i := range int64(48) {
		pt := space.Point{i * 7 % sp.Levels(0), (i*13 + 1) % sp.Levels(1)}
		cfg := sp.MustDecode(pt)
		if _, ok := model.Predict(pt, cfg); ok {
			pts, cfgs = append(pts, pt), append(cfgs, cfg)
		}
	}
	if len(pts) < 16 {
		b.Fatalf("the model accepts %d of 48 sampled block sizes, want at least 16", len(pts))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := range b.N {
		predictSink, _ = model.Predict(pts[i%len(pts)], cfgs[i%len(pts)])
	}
}

// predictSink keeps BenchmarkPredict's calls from being optimised away.
var predictSink float64
