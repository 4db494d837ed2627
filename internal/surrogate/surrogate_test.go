package surrogate

import (
	"fmt"
	"math/rand"
	"testing"

	"harmony/internal/cluster"
	"harmony/internal/gs2"
	"harmony/internal/petscsim"
	"harmony/internal/pop"
	"harmony/internal/space"
	"harmony/internal/sparse"
)

// decode turns a name→value map into a (Point, Config) pair of sp.
func decode(t *testing.T, sp *space.Space, values map[string]string) (space.Point, space.Config) {
	t.Helper()
	pt, err := sp.Encode(values)
	if err != nil {
		t.Fatalf("encode %v: %v", values, err)
	}
	cfg, err := sp.Decode(pt)
	if err != nil {
		t.Fatalf("decode %v: %v", pt, err)
	}
	return pt, cfg
}

// checkRanking verifies that predicted and measured times order the
// candidates the same way for every pair whose measured times differ
// by more than sep (relative); near-ties are exactly what the
// engine's tolerance gate absorbs, so they are not counted.
func checkRanking(t *testing.T, names []string, predicted, measured []float64, sep float64, minAgree float64) {
	t.Helper()
	pairs, agree := 0, 0
	for i := 0; i < len(measured); i++ {
		for j := i + 1; j < len(measured); j++ {
			lo, hi := measured[i], measured[j]
			if lo > hi {
				lo, hi = hi, lo
			}
			if hi-lo <= sep*lo {
				continue
			}
			pairs++
			if (measured[i] < measured[j]) == (predicted[i] < predicted[j]) {
				agree++
			} else {
				t.Logf("misordered %s vs %s: measured %.4g/%.4g predicted %.4g/%.4g",
					names[i], names[j], measured[i], measured[j], predicted[i], predicted[j])
			}
		}
	}
	if pairs == 0 {
		t.Fatal("no separated pairs to rank")
	}
	if frac := float64(agree) / float64(pairs); frac < minAgree {
		t.Fatalf("model orders only %d/%d separated pairs correctly (%.0f%%, want >= %.0f%%)",
			agree, pairs, 100*frac, 100*minAgree)
	}
}

func TestSLESRankingTracksSimulation(t *testing.T) {
	app := petscsim.NewSLESApp(600, 4, 3, 60, 11)
	m := cluster.Seaborg(4, 1)
	model := NewSLES(app, m)
	sp := app.Space()

	weightSets := [][4]int{
		{500, 500, 500, 500}, {100, 500, 500, 900}, {900, 100, 100, 900},
		{50, 950, 500, 500}, {250, 250, 750, 750}, {600, 400, 600, 400},
		{1000, 1, 1, 1000}, {333, 333, 333, 1000}, {700, 100, 700, 100},
		{450, 550, 450, 550},
	}
	names := make([]string, len(weightSets))
	predicted := make([]float64, len(weightSets))
	measured := make([]float64, len(weightSets))
	for i, ws := range weightSets {
		values := map[string]string{}
		for j, w := range ws {
			values[fmt.Sprintf("w%d", j+1)] = fmt.Sprint(w)
		}
		pt, cfg := decode(t, sp, values)
		v, ok := model.Predict(pt, cfg)
		if !ok || v <= 0 {
			t.Fatalf("model declined %v", values)
		}
		real, err := app.Run(m, app.PartitionFor(cfg))
		if err != nil {
			t.Fatalf("run %v: %v", values, err)
		}
		names[i], predicted[i], measured[i] = fmt.Sprint(ws), v, real
	}
	checkRanking(t, names, predicted, measured, 0.10, 0.8)
}

func TestGS2RankingTracksSimulation(t *testing.T) {
	base := gs2.DefaultConfig()
	base.Steps = 10
	model := NewGS2(base, gs2.LinuxCluster)
	sp := gs2.ResolutionSpace(64)

	cands := []map[string]string{
		{"negrid": "16", "ntheta": "26", "nodes": "32"},
		{"negrid": "8", "ntheta": "16", "nodes": "32"},
		{"negrid": "32", "ntheta": "80", "nodes": "32"},
		{"negrid": "16", "ntheta": "26", "nodes": "4"},
		{"negrid": "16", "ntheta": "26", "nodes": "62"},
		{"negrid": "24", "ntheta": "40", "nodes": "16"},
		{"negrid": "8", "ntheta": "80", "nodes": "8"},
		{"negrid": "32", "ntheta": "16", "nodes": "48"},
	}
	names := make([]string, len(cands))
	predicted := make([]float64, len(cands))
	measured := make([]float64, len(cands))
	for i, values := range cands {
		pt, cfg := decode(t, sp, values)
		v, ok := model.Predict(pt, cfg)
		if !ok || v <= 0 {
			t.Fatalf("model declined %v", values)
		}
		c := base
		c.Negrid, c.Ntheta = atoi(t, values["negrid"]), atoi(t, values["ntheta"])
		real, err := gs2.Run(gs2.LinuxCluster(atoi(t, values["nodes"])), c)
		if err != nil {
			t.Fatalf("run %v: %v", values, err)
		}
		names[i], predicted[i], measured[i] = fmt.Sprint(values), v, real
	}
	checkRanking(t, names, predicted, measured, 0.10, 0.8)
}

func TestPOPRankingTracksSimulation(t *testing.T) {
	base := pop.DefaultConfig(720, 480)
	base.Steps, base.BarotropicIters = 2, 4
	m := cluster.Seaborg(8, 4)
	model := NewPOP(base, m)
	sp := pop.BlockSpace()

	cands := [][2]int{
		{180, 100}, {15, 20}, {600, 600}, {120, 160}, {45, 400},
		{360, 240}, {15, 600}, {600, 20}, {90, 60},
	}
	names := make([]string, len(cands))
	predicted := make([]float64, len(cands))
	measured := make([]float64, len(cands))
	for i, c := range cands {
		values := map[string]string{"bx": fmt.Sprint(c[0]), "by": fmt.Sprint(c[1])}
		pt, cfg := decode(t, sp, values)
		v, ok := model.Predict(pt, cfg)
		if !ok || v <= 0 {
			t.Fatalf("model declined %v", values)
		}
		cc := base
		cc.BX, cc.BY = c[0], c[1]
		real, err := pop.Run(m, cc)
		if err != nil {
			t.Fatalf("run %v: %v", values, err)
		}
		names[i], predicted[i], measured[i] = fmt.Sprint(values), v, real
	}
	checkRanking(t, names, predicted, measured, 0.10, 0.8)
}

// TestPredictionsDeterministic pins that predictors are pure: two
// scores of the same point are bit-identical (the engine requires it
// for worker-count-independent pruning).
func TestPredictionsDeterministic(t *testing.T) {
	app := petscsim.NewSLESApp(600, 4, 3, 60, 11)
	model := NewSLES(app, cluster.Seaborg(4, 1))
	sp := app.Space()
	pt, cfg := decode(t, sp, map[string]string{"w1": "123", "w2": "456", "w3": "789", "w4": "200"})
	a, ok1 := model.Predict(pt, cfg)
	b, ok2 := model.Predict(pt, cfg)
	if !ok1 || !ok2 || a != b {
		t.Fatalf("prediction not deterministic: %v/%v %v/%v", a, ok1, b, ok2)
	}
}

// TestForeignSpaceDeclined pins the registry-safety property: a
// predictor handed a configuration from an unrelated space declines
// instead of panicking, so the engine falls back to full simulation.
func TestForeignSpaceDeclined(t *testing.T) {
	popSp := pop.BlockSpace()
	pt, cfg := decode(t, popSp, map[string]string{"bx": "180", "by": "100"})

	for name, model := range map[string]interface {
		Predict(space.Point, space.Config) (float64, bool)
	}{
		"sles": NewSLES(petscsim.NewSLESApp(600, 4, 3, 60, 11), cluster.Seaborg(4, 1)),
		"gs2":  NewGS2(gs2.DefaultConfig(), gs2.LinuxCluster),
	} {
		if _, ok := model.Predict(pt, cfg); ok {
			t.Errorf("%s model accepted a POP block configuration", name)
		}
	}
}

func TestRegistryResolvesCampaignNames(t *testing.T) {
	for _, name := range []string{"fig2-sles-seed11", "petsc-decomposition", "gs2-table3", "fig4-pop-blocks"} {
		if For(name) == nil {
			t.Errorf("no surrogate for %q", name)
		}
	}
	if For("cavity-snes") != nil {
		t.Error("unexpected surrogate for unmodelled app")
	}
}

func atoi(t *testing.T, s string) int {
	t.Helper()
	var n int
	if _, err := fmt.Sscan(s, &n); err != nil {
		t.Fatalf("atoi %q: %v", s, err)
	}
	return n
}

// slesPredictByScan is the predictor as it was before it read the
// shared halo plan: a private stamp-array walk into a dense
// ghosts[r][peer] table, priced peer by peer. Kept as the reference
// for the bit-equality test below.
func slesPredictByScan(app *petscsim.SLESApp, m *cluster.Machine, cfg space.Config) float64 {
	part := app.PartitionFor(cfg)
	p, a := part.P(), app.A
	ghosts := make([][]int, p)
	stamp := make([]int, a.N)
	for r := 0; r < p; r++ {
		ghosts[r] = make([]int, p)
		lo, hi := part.Range(r)
		for idx := a.RowPtr[lo]; idx < a.RowPtr[hi]; idx++ {
			c := a.Col[idx]
			if (c >= lo && c < hi) || stamp[c] == r+1 {
				continue
			}
			stamp[c] = r + 1
			ghosts[r][part.OwnerOf(c)]++
		}
	}
	worst := 0.0
	for r := 0; r < p; r++ {
		lo, hi := part.Range(r)
		t := (sparse.FlopsPerNNZ*float64(a.RowNNZ(lo, hi)) + 5*sparse.VecFlops*float64(hi-lo)) / m.SpeedOf(r)
		for peer := 0; peer < p; peer++ {
			if peer == r {
				continue
			}
			if ghosts[peer][r] > 0 {
				t += m.LinkBetween(r, peer).Overhead
			}
			if n := ghosts[r][peer]; n > 0 {
				link := m.LinkBetween(peer, r)
				t += link.Latency + 8*float64(n)/link.Bandwidth
			}
		}
		if t > worst {
			worst = t
		}
	}
	g := LogGP{M: m, N: app.P}
	return float64(app.Iterations)*(worst+2*g.TreeCost(8)) + g.TreeCost(8)
}

// TestSLESPredictMatchesScanBitwise pins that pricing from the halo
// plan changed no prediction: 50 seeded random points on the dense-
// block matrix (on a machine with two link classes) and on the Fig. 2
// band matrix give the same float64 bits as the scan.
func TestSLESPredictMatchesScanBitwise(t *testing.T) {
	cases := []struct {
		app *petscsim.SLESApp
		m   *cluster.Machine
	}{
		{petscsim.NewSLESApp(600, 4, 3, 60, 11), cluster.Seaborg(2, 2)},
		{petscsim.NewBandSLESApp(4000, 16, 4, 100, 2), cluster.Seaborg(16, 1)},
	}
	rng := rand.New(rand.NewSource(5))
	for _, tc := range cases {
		model := NewSLES(tc.app, tc.m)
		sp := tc.app.Space()
		for i := 0; i < 50; i++ {
			pt := make(space.Point, tc.app.P)
			for d := range pt {
				pt[d] = rng.Int63n(1000)
			}
			cfg := sp.MustDecode(pt)
			got, ok := model.Predict(pt, cfg)
			if want := slesPredictByScan(tc.app, tc.m, cfg); !ok || got != want {
				t.Fatalf("n=%d point %v: Predict = %v (ok %v), scan = %v", tc.app.A.N, pt, got, ok, want)
			}
		}
	}
}
