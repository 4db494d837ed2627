package harmony_test

import (
	"context"
	"net"
	"path/filepath"
	"testing"

	"harmony"
)

// TestPublicAPIOfflineTuning exercises the quickstart path end to
// end through the public surface only.
func TestPublicAPIOfflineTuning(t *testing.T) {
	sp := harmony.MustNewSpace(
		harmony.IntParam("x", 0, 100, 1),
		harmony.EnumParam("mode", "slow", "fast"),
	)
	obj := func(_ context.Context, cfg harmony.Config) (float64, error) {
		d := float64(cfg.Int("x") - 42)
		penalty := 0.0
		if cfg.String("mode") == "slow" {
			penalty = 50
		}
		return 10 + d*d + penalty, nil
	}
	res, err := harmony.Tune(context.Background(), sp,
		harmony.NewSimplex(sp, harmony.SimplexOptions{}), obj, harmony.Options{MaxRuns: 100})
	if err != nil {
		t.Fatalf("Tune: %v", err)
	}
	if res.BestConfig.String("mode") != "fast" {
		t.Errorf("mode = %q, want fast", res.BestConfig.String("mode"))
	}
	if x := res.BestConfig.Int("x"); x < 39 || x > 45 {
		t.Errorf("x = %d, want near 42", x)
	}
}

// TestPublicAPIOnlineTuning runs a full on-line session against a
// real TCP server through the public surface.
func TestPublicAPIOnlineTuning(t *testing.T) {
	srv := harmony.NewServer()
	srv.Logf = func(string, ...any) {}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Close()
		<-errc
	})

	c, err := harmony.Dial(ln.Addr().String())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	lib := harmony.NewSortLibrary()
	sess, err := c.Register(harmony.Registration{
		App:      "sort",
		Space:    harmony.MustNewSpace(lib.Param()),
		Strategy: "exhaustive",
	})
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	// Pretend merge is fastest.
	cost := map[string]float64{"heap": 3, "quick": 2, "merge": 1, "insertion": 9}
	for i := 0; i < 10; i++ {
		values, converged, err := sess.Fetch()
		if err != nil {
			t.Fatalf("Fetch: %v", err)
		}
		if converged {
			break
		}
		if err := lib.Select(values["sort_algorithm"]); err != nil {
			t.Fatalf("Select: %v", err)
		}
		if err := sess.Report(cost[values["sort_algorithm"]]); err != nil {
			t.Fatalf("Report: %v", err)
		}
	}
	best, perf, err := sess.Best()
	if err != nil {
		t.Fatalf("Best: %v", err)
	}
	if best["sort_algorithm"] != "merge" || perf != 1 {
		t.Errorf("best = %v at %v, want merge at 1", best, perf)
	}
}

// TestPublicAPIHistorySeeding round-trips history through the public
// surface.
func TestPublicAPIHistorySeeding(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hist.json")
	store, err := harmony.OpenHistory(path)
	if err != nil {
		t.Fatalf("OpenHistory: %v", err)
	}
	if err := store.Add(harmony.HistoryRecord{
		App: "app", Machine: "m",
		Best: map[string]string{"x": "42"}, BestValue: 10,
	}); err != nil {
		t.Fatalf("Add: %v", err)
	}
	sp := harmony.MustNewSpace(harmony.IntParam("x", 0, 100, 1))
	seeds := store.SeedsFor("app", "m", sp, 5)
	if len(seeds) != 1 || seeds[0][0] != 42 {
		t.Errorf("seeds = %v, want [[42]]", seeds)
	}
	// Seeded simplex should converge immediately near the optimum.
	obj := func(_ context.Context, cfg harmony.Config) (float64, error) {
		d := float64(cfg.Int("x") - 42)
		return d * d, nil
	}
	res, err := harmony.Tune(context.Background(), sp,
		harmony.NewSimplex(sp, harmony.SimplexOptions{Seeds: seeds}), obj,
		harmony.Options{MaxRuns: 20})
	if err != nil {
		t.Fatalf("Tune: %v", err)
	}
	if res.BestValue != 0 {
		t.Errorf("seeded search best %v, want 0", res.BestValue)
	}
}

// TestPublicAPISortLibrary exercises the Library Specification Layer
// through the public surface.
func TestPublicAPISortLibrary(t *testing.T) {
	lib := harmony.NewSortLibrary()
	data := []float64{5, 2, 8, 1}
	for _, name := range []string{"heap", "quick", "merge", "insertion"} {
		if err := lib.Select(name); err != nil {
			t.Fatalf("Select(%s): %v", name, err)
		}
		a := append([]float64(nil), data...)
		lib.Current()(a)
		for i := 1; i < len(a); i++ {
			if a[i-1] > a[i] {
				t.Fatalf("%s did not sort: %v", name, a)
			}
		}
	}
}

// TestPublicAPIStrategiesAndAnalysis exercises every public
// constructor and analysis helper end to end.
func TestPublicAPIStrategiesAndAnalysis(t *testing.T) {
	sp := harmony.MustNewSpace(harmony.IntParam("x", 0, 20, 1))
	obj := func(_ context.Context, cfg harmony.Config) (float64, error) {
		d := float64(cfg.Int("x") - 13)
		return d * d, nil
	}
	strategies := []harmony.Strategy{
		harmony.NewSimplex(sp, harmony.SimplexOptions{}),
		harmony.NewCoordinate(sp, harmony.CoordinateOptions{}),
		harmony.NewRandom(sp, 1, 15),
		harmony.NewSystematic(sp, 15),
		harmony.NewExhaustive(sp),
		harmony.NewPRO(sp, harmony.PROOptions{Seed: 2}),
	}
	var last *harmony.Result
	for _, s := range strategies {
		res, err := harmony.Tune(context.Background(), sp, s, obj, harmony.Options{MaxRuns: 40})
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if res.BestValue > 9 {
			t.Errorf("%s: best %v, want near 0", s.Name(), res.BestValue)
		}
		last = res
	}
	// Analysis helpers.
	sens := harmony.Sensitivity(sp, last.Trials)
	if len(sens) != 1 || sens[0].Name != "x" {
		t.Errorf("Sensitivity = %+v", sens)
	}
	comp, err := harmony.Composite(
		harmony.Metric{Name: "time", Weight: 1, Measure: obj},
		harmony.Metric{Name: "fid", Weight: 0.5, Measure: harmony.FidelityFloor(100, obj)},
	)
	if err != nil {
		t.Fatalf("Composite: %v", err)
	}
	if _, err := harmony.Tune(context.Background(), sp,
		harmony.NewExhaustive(sp), comp, harmony.Options{}); err != nil {
		t.Fatalf("Tune composite: %v", err)
	}
}
