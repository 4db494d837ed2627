package surrogate

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"harmony/internal/cluster"
	"harmony/internal/core"
	"harmony/internal/gs2"
	"harmony/internal/petscsim"
	"harmony/internal/pop"
	"harmony/internal/simmpi"
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
	model := app.Predictor(m)
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
	model := gs2.NewPredictor(base, gs2.LinuxCluster)
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
	model := pop.NewPredictor(base, m)
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
	model := app.Predictor(cluster.Seaborg(4, 1))
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
// A space that lacks one expected parameter is as foreign as one that
// lacks them all. A parameter with the expected name but declared as
// an enum reads as the integer its value spells (a client may declare
// negrid as the enum 8, 16, 32) and declines when it spells none, or
// spells a weight no SLES space holds.
func TestForeignSpaceDeclined(t *testing.T) {
	models := map[string]core.Surrogate{"sles": For("fig2-sles"), "gs2": For("table3-gs2"), "pop": For("fig4-pop")}
	predict := func(model string, params []space.Param, values map[string]string) (float64, bool) {
		pt, cfg := decode(t, space.MustNew(params...), values)
		return models[model].Predict(pt, cfg)
	}
	block := map[string]string{"bx": "180", "by": "100"}
	res := map[string]string{"negrid": "16", "ntheta": "26", "nodes": "32"}
	weights := map[string]string{"w1": "500", "w2": "20", "w3": "500", "w4": "500"}
	slesParams := petscsim.NewSLESApp(600, 4, 3, 60, 11).Space().Params()
	enumFor := func(ps []space.Param, name string, values ...string) []space.Param {
		out := slices.Clone(ps)
		for i := range out {
			if out[i].Name == name {
				out[i] = space.EnumParam(name, values...)
			}
		}
		return out
	}

	for _, model := range []string{"sles", "gs2"} {
		if _, ok := predict(model, pop.BlockSpace().Params(), block); ok {
			t.Errorf("%s model accepted a POP block configuration", model)
		}
	}
	for _, c := range []struct {
		model  string
		params []space.Param
		values map[string]string
	}{
		{"gs2", gs2.ResolutionSpace(64).Params()[:2], res},
		{"pop", pop.BlockSpace().Params()[:1], block},
		{"sles", slesParams[:3], weights},
	} {
		if _, ok := predict(c.model, c.params, c.values); ok {
			t.Errorf("%s model accepted a space missing one of its parameters", c.model)
		}
	}
	for _, c := range []struct {
		model     string
		params    []space.Param
		values    map[string]string
		name      string
		enum, bad []string // declarations of name; bad[0] is the value taken
	}{
		{"gs2", gs2.ResolutionSpace(64).Params(), res, "negrid", []string{"8", "16", "32"}, []string{"fine", "coarse"}},
		{"pop", pop.BlockSpace().Params(), block, "by", []string{"100", "200"}, []string{"tall"}},
		{"sles", slesParams, weights, "w2", []string{"20", "40"}, []string{"0", "20"}},
	} {
		want, ok := predict(c.model, c.params, c.values)
		if !ok {
			t.Fatalf("%s model declined its own space", c.model)
		}
		if got, ok := predict(c.model, enumFor(c.params, c.name, c.enum...), c.values); !ok || got != want {
			t.Errorf("%s with %s as an enum: Predict = %v (ok %v), want %v as from the integer", c.model, c.name, got, ok, want)
		}
		values := maps.Clone(c.values)
		values[c.name] = c.bad[0]
		if _, ok := predict(c.model, enumFor(c.params, c.name, c.bad...), values); ok {
			t.Errorf("%s accepted %s=%q", c.model, c.name, c.bad[0])
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
	dot := simmpi.TreeCost(m, app.P, 8)
	return float64(app.Iterations)*(worst+2*dot) + dot
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
		model := tc.app.Predictor(tc.m)
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

// goldenSample is a fixed, arithmetic walk through sp: count lattice
// points that no random source or library version can move.
func goldenSample(sp *space.Space, count int) []space.Point {
	strides := []int64{7, 13, 29, 31, 37}
	pts := make([]space.Point, count)
	for i := range pts {
		pt := make(space.Point, sp.Dims())
		for d, p := range sp.Params() {
			pt[d] = (int64(i)*strides[d%len(strides)]*int64(d+1) + int64(3*d)) % p.Levels()
		}
		pts[i] = pt
	}
	return pts
}

// TestPredictionGoldens pins every registry predictor to the float64
// bits it produced before PR 23 replaced this package's mirror of the
// collective cost model (TreeCost, AlltoallvCost, worstLink, log2Ceil)
// with calls into simmpi: the predictions were captured from the
// mirror, so any change of formula, accumulation order or association
// on the shared path shows up here.
func TestPredictionGoldens(t *testing.T) {
	var layouts []string
	for _, l := range gs2.Layouts() {
		layouts = append(layouts, string(l))
	}
	gs2Layouts := space.MustNew(append(gs2.ResolutionSpace(64).Params(), space.EnumParam("layout", layouts...))...)
	for _, c := range []struct {
		app  string
		sp   *space.Space
		want []uint64
	}{
		{"fig2-sles", petscsim.NewSLESApp(600, 4, 3, 60, 11).Space(), []uint64{
			0x3f83574596bf5327, 0x3f844e4ccc83736d, 0x3f843eb03f8657c5, 0x3f843ffc21c973ca,
			0x3f842dc7d0462017, 0x3f842dc7d0462017, 0x3f842f13b2893c1d, 0x3f842f13b2893c1d,
			0x3f86ba85ee47c248, 0x3f838d115fa46351, 0x3f84217585cc9b26, 0x3f848d7f704d0c1d,
			0x3f83392361a0ffc3, 0x3f805beb5da6f2ea, 0x3f80434992abde81, 0x3f8033baf7868e3e,
			0x3f80397e50e8d0ba, 0x3f83edfbc836ca0d, 0x3f8168ff63d7e508, 0x3f80b2c79537485f,
			0x3f80aee3ee6df44e, 0x3f80ab0047a4a03d, 0x3f80a868831e6833, 0x3f851ce0ace82b87,
		}},
		{"table3-gs2", gs2.ResolutionSpace(64), []uint64{
			0x40381cf40df512ac, 0x406f066a859997bb, 0x405b116488563a0e, 0x4065e45207b52c37,
			0x405440361c36b5ae, 0x4063a3aba653bced, 0x406b13cfc605fc08, 0x40663f812bf056fc,
			0x4063a08e1f8d7738, 0x405a330bfed6d09d, 0x406868c8f316961c, 0x406f8dd64230d7e4,
			0x4062f9cc74b4d9b7, 0x406288169b1cc28b, 0x405632a1e412c74d, 0x4061bd6ecb37a1cd,
			0x406f2a7bc60ded60, 0x405daa14be2bfde4, 0x4058eb8dd5ea99b6, 0x405198ee7ba203a0,
		}},
		{"table3-gs2", gs2Layouts, []uint64{
			0x40381cf40df512ac, 0x4048fe98a2cec414, 0x405525d3ec77d814, 0x404b5bec096da0b2,
			0x4031a13890a08cdc, 0x4063a3aba653bced, 0x40448bc83e7cb84c, 0x40418454922ae831,
			0x40623030141daef9, 0x403a428a53d13ac8, 0x40411934468c94b2, 0x4054d2bb01275bfd,
		}},
		{"fig4-pop", pop.BlockSpace(), []uint64{
			0x3fb4052b4cb57344, 0x3fc5926d8a6b57d7, 0x3fce4074acd919dd, 0x3fd3c40f32e045ca,
			0x3fd46890ee399286, 0x3fd3a24585131b50, 0x3fb453453586d378, 0x3fb1fd8731a48329,
			0x3fb471616b9cd714, 0x3fd4ad23422cc5a6, 0x3fd90426d363a6aa, 0x3fdbc453a892e38a,
			0x3fba2c138c9f2aa0, 0x3fbf8c05407ca390, 0x3fc2d5c6306cf244, 0x3fc0dbf0a9e9dfba,
			0x3fda41958f2a3018, 0x3fde98992061111c, 0x3fc3f2f3a802e8e9, 0x3fc8649eb6a03d67,
			0x3fc9f19cb9c3a68f, 0x3fcd5467955ed0e1, 0x3fca46a9fa8ace78, 0x3fb0a1064cad15ec,
		}},
	} {
		model := For(c.app)
		for i, pt := range goldenSample(c.sp, len(c.want)) {
			v, ok := model.Predict(pt, c.sp.MustDecode(pt))
			if !ok || math.Float64bits(v) != c.want[i] {
				t.Errorf("%s %v: Predict = %#x (ok %v), want %#x", c.app, pt, math.Float64bits(v), ok, c.want[i])
			}
		}
	}
}

// TestSurrogatePricesWhatSimulatorCharges runs each collective alone,
// with synchronised arrivals, and requires the simulated time to be
// exactly what the exported cost function returns: the functions the
// predictors call are the ones the rendezvous charges through, so a
// re-introduced mirror on either side cannot drift unseen. Each
// operation of the lockstep executor must charge what the coroutine
// engine charges, alone and after skewed arrivals, down to the last
// bit of every rank's clock, compute and wait; that includes the
// neighbour exchange, which has no cost function of its own.
func TestSurrogatePricesWhatSimulatorCharges(t *testing.T) {
	for _, m := range []*cluster.Machine{cluster.Seaborg(4, 8), gs2.LinuxCluster(32)} {
		n := m.Procs()
		// A skewed exchange: volumes depend on the pair, some pairs and
		// one whole sender are silent, and one hot receiver and one hot
		// sender outlast the fabric's bisection.
		rows := make([][]int, n)
		for src := range rows {
			rows[src] = make([]int, n)
			for dst := range rows[src] {
				if src != 3 && (src+2*dst)%5 != 0 {
					rows[src][dst] = 512 * (1 + (src*7+dst*3)%11)
				}
				if dst == 1 || src == 2 {
					rows[src][dst] += 1 << 18
				}
			}
		}
		exits := make([]float64, n)
		total := simmpi.AlltoallvExits(m, rows, 0, exits, simmpi.NewAlltoallvScratch(n))
		// The same exchange frozen sparse and priced once for m, the way
		// a simulator with a fixed plan charges it.
		pattern := &simmpi.AlltoallvPattern{Start: make([]int, n+1)}
		for src, row := range rows {
			for dst, b := range row {
				if b != 0 {
					pattern.Dst = append(pattern.Dst, dst)
					pattern.Bytes = append(pattern.Bytes, b)
				}
			}
			pattern.Start[src+1] = len(pattern.Dst)
		}
		priced := pattern.Price(m)
		pricedExits := make([]float64, n)
		priced.Exits(0, pricedExits)
		if !reflect.DeepEqual(pricedExits, exits) {
			t.Errorf("priced on %s: exits %v, cost function says %v", m, pricedExits, exits)
		}
		// A neighbour exchange: a few partners per rank on and off its
		// node, unequal volumes, and ranks that send to nobody.
		halo := &simmpi.NeighbourPattern{Start: make([]int, n+1)}
		in := make([][]int, n) // senders to each rank, ascending
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				if dst != src && src%7 != 6 && (3*src+dst)%5 == 0 {
					halo.Dst = append(halo.Dst, dst)
					halo.Bytes = append(halo.Bytes, 64*(1+(src+dst)%9))
					in[dst] = append(in[dst], src)
				}
			}
			halo.Start[src+1] = len(halo.Dst)
		}
		const fields = 3
		uniform := func(t float64) []float64 {
			ts := make([]float64, n)
			for i := range ts {
				ts[i] = t
			}
			return ts
		}
		for _, c := range []struct {
			name     string
			call     func(r *simmpi.Rank)
			lockstep func(l *simmpi.Lockstep)
			exits    []float64 // nil: there is no cost function
		}{
			{"barrier", func(r *simmpi.Rank) { r.Barrier() }, (*simmpi.Lockstep).Barrier, uniform(simmpi.TreeCost(m, n, 0))},
			{"allreduce1", func(r *simmpi.Rank) { r.Allreduce1(simmpi.Max, 1) },
				func(l *simmpi.Lockstep) { l.AllreduceBytes(8) }, uniform(simmpi.TreeCost(m, n, 8))},
			{"allreducebytes", func(r *simmpi.Rank) { r.AllreduceBytes(8000) },
				func(l *simmpi.Lockstep) { l.AllreduceBytes(8000) }, uniform(simmpi.TreeCost(m, n, 8000))},
			// Sparse-priced on the lockstep against dense rows at the rendezvous.
			{"alltoallv", func(r *simmpi.Rank) { r.AlltoallvBytesRow(rows[r.ID()]) },
				func(l *simmpi.Lockstep) { l.AlltoallvPriced(priced) }, exits},
			{"neighbour exchange", func(r *simmpi.Rank) {
				id := r.ID()
				for k := halo.Start[id]; k < halo.Start[id+1]; k++ {
					r.SendBytes(halo.Dst[k], 0, fields*halo.Bytes[k])
				}
				for _, src := range in[id] {
					r.Recv(src, 0)
				}
			}, func(l *simmpi.Lockstep) { l.Exchange(halo, fields) }, nil},
		} {
			st, err := simmpi.Run(m, n, c.call)
			if err != nil {
				t.Fatalf("%s on %s: %v", c.name, m, err)
			}
			if c.exits != nil && (!reflect.DeepEqual(st.RankClocks, c.exits) || st.Time <= 0) {
				t.Errorf("%s on %s: ranks leave at %v, cost function says %v", c.name, m, st.RankClocks, c.exits)
			}
			if c.name == "alltoallv" && st.BytesSent != total {
				t.Errorf("%s on %s: BytesSent = %d, cost function says %d", c.name, m, st.BytesSent, total)
			}
			// Alone, and after rank-dependent work so arrivals differ.
			skew := make([]float64, n)
			for i := range skew {
				skew[i] = float64((i*5)%7) * 1e6
			}
			for _, skewed := range []bool{false, true} {
				if skewed {
					call := c.call
					st, err = simmpi.Run(m, n, func(r *simmpi.Rank) { r.Compute(skew[r.ID()]); call(r) })
					if err != nil {
						t.Fatalf("%s on %s: %v", c.name, m, err)
					}
				}
				l, err := simmpi.AcquireLockstep(m, n)
				if err != nil {
					t.Fatal(err)
				}
				if skewed {
					l.Compute(skew, 1)
				}
				c.lockstep(l)
				if got := l.Stats(); !reflect.DeepEqual(got, st) {
					t.Errorf("%s on %s (skewed %v): lockstep charges %+v, coroutine engine %+v", c.name, m, skewed, got, st)
				}
				l.Release()
			}
		}
	}
}
