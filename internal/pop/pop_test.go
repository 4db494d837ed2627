package pop

import (
	"context"
	"runtime"
	"testing"

	"harmony/internal/cluster"
	"harmony/internal/core"
	"harmony/internal/search"
	"harmony/internal/space"
)

// smallConfig is a scaled-down POP problem for fast tests.
func smallConfig() Config {
	cfg := DefaultConfig(360, 240)
	cfg.BX, cfg.BY = 90, 60 // 4x4 = 16 blocks
	cfg.Steps = 2
	cfg.BarotropicIters = 4
	return cfg
}

func TestLayoutOneBlockPerRank(t *testing.T) {
	cfg := smallConfig()
	ly, err := cfg.Layout(16)
	if err != nil {
		t.Fatalf("Layout: %v", err)
	}
	if ly.Blocks() != 16 {
		t.Fatalf("blocks = %d, want 16", ly.Blocks())
	}
	for r := 0; r < 16; r++ {
		if ly.points[r] != 90*60 {
			t.Errorf("rank %d has %v points", r, ly.points[r])
		}
	}
}

func TestLayoutsRetainSparseHalos(t *testing.T) {
	// A layout keeps what a run reads: each rank's point count and the
	// sparse halo pattern between owners. The 1,200 block sizes of
	// BlockSpace on the 720×480 grid the block campaigns tune, at 480
	// ranks, must retain at most 14 MiB.
	const (
		p      = 480
		budget = 14 << 20
	)
	sp := BlockSpace()
	heap := func() float64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc)
	}
	layouts := make([]*layout, 0, sp.Params()[0].Levels()*sp.Params()[1].Levels())
	before := heap()
	for i := range sp.Params()[0].Levels() {
		for j := range sp.Params()[1].Levels() {
			c := sp.MustDecode(space.Point{i, j})
			cfg := DefaultConfig(720, 480)
			cfg.BX, cfg.BY = int(c.Int("bx")), int(c.Int("by"))
			ly, err := cfg.Layout(p)
			if err != nil {
				t.Fatal(err)
			}
			layouts = append(layouts, ly)
		}
	}
	grown := heap() - before
	runtime.KeepAlive(layouts)
	t.Logf("%d layouts at p=%d retain %.2f MiB (budget %d MiB)", len(layouts), p, grown/(1<<20), budget>>20)
	if grown > budget {
		t.Errorf("retained %.0f bytes, budget %d", grown, budget)
	}
}

func TestLayoutCoversGrid(t *testing.T) {
	cases := []struct {
		bx, by, p int
	}{
		{90, 60, 16},
		{100, 70, 8},  // ragged edges
		{360, 240, 4}, // single block, idle ranks
		{50, 50, 16},  // more blocks than ranks
	}
	for _, c := range cases {
		cfg := smallConfig()
		cfg.BX, cfg.BY = c.bx, c.by
		ly, err := cfg.Layout(c.p)
		if err != nil {
			t.Fatalf("Layout(%+v): %v", c, err)
		}
		total := 0
		for _, pts := range ly.points {
			total += int(pts)
		}
		if total != cfg.NX*cfg.NY {
			t.Errorf("bx=%d by=%d p=%d: covered %d points, want %d", c.bx, c.by, c.p, total, cfg.NX*cfg.NY)
		}
	}
}

func TestLayoutHaloSymmetric(t *testing.T) {
	cfg := smallConfig()
	for _, land := range []bool{false, true} {
		cfg.Land = land
		ly, err := cfg.Layout(16)
		if err != nil {
			t.Fatal(err)
		}
		h := &ly.halo
		bytes := func(src, dst int) int {
			for k := h.Start[src]; k < h.Start[src+1]; k++ {
				if h.Dst[k] == dst {
					return h.Bytes[k]
				}
			}
			return 0
		}
		for r := 0; r < 16; r++ {
			for k := h.Start[r]; k < h.Start[r+1]; k++ {
				if back := bytes(h.Dst[k], r); back != h.Bytes[k] {
					t.Errorf("land %v: asymmetric halo: %d->%d is %d, %d->%d is %d", land, r, h.Dst[k], h.Bytes[k], h.Dst[k], r, back)
				}
			}
		}
	}
}

func TestRunProducesTime(t *testing.T) {
	m := cluster.Seaborg(4, 4)
	secs, err := Run(m, smallConfig())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if secs <= 0 {
		t.Fatalf("time = %v", secs)
	}
}

func TestRunDeterministic(t *testing.T) {
	m := cluster.Seaborg(4, 4)
	a, err := Run(m, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(m, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("non-deterministic: %v vs %v", a, b)
	}
}

func TestBlockSizeChangesTime(t *testing.T) {
	m := cluster.Seaborg(4, 4)
	base := smallConfig()
	times := map[string]float64{}
	for _, bs := range []struct{ bx, by int }{{90, 60}, {45, 120}, {180, 30}, {360, 240}} {
		cfg := base
		cfg.BX, cfg.BY = bs.bx, bs.by
		secs, err := Run(m, cfg)
		if err != nil {
			t.Fatalf("Run(%dx%d): %v", bs.bx, bs.by, err)
		}
		times[cfgKey(bs.bx, bs.by)] = secs
	}
	// A single 360x240 block leaves 15 ranks idle: it must be the
	// slowest by far.
	single := times[cfgKey(360, 240)]
	for k, v := range times {
		if k != cfgKey(360, 240) && v >= single {
			t.Errorf("%s (%v) should beat single-block (%v)", k, v, single)
		}
	}
}

func cfgKey(bx, by int) string { return string(rune('0'+bx/15)) + "x" + string(rune('0'+by/20)) }

func TestBlockCostDependsOnTopology(t *testing.T) {
	// The Fig. 4 mechanism: the same block size costs different
	// amounts on different topologies of the same processor count,
	// because the block-grid/node alignment decides how much halo
	// traffic crosses node boundaries.
	cfg := smallConfig() // 90x60 blocks, one per rank
	var times []float64
	for _, m := range []*cluster.Machine{
		cluster.Seaborg(2, 8), cluster.Seaborg(16, 1),
	} {
		secs, err := Run(m, cfg)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		times = append(times, secs)
	}
	if times[0] >= times[1] {
		t.Errorf("aligned high-ppn topology (%v) should beat all-inter-node topology (%v)", times[0], times[1])
	}
	if (times[1]-times[0])/times[1] < 0.05 {
		t.Errorf("topology effect too weak: %v vs %v", times[0], times[1])
	}
}

func TestTunedBlockBeatsDefaultEverywhere(t *testing.T) {
	// On every topology, at least one alternative block size beats a
	// deliberately mediocre default — block size is worth tuning.
	cfg := smallConfig()
	cfg.BX, cfg.BY = 180, 100 // ragged on the 720x480 grid
	candidates := []struct{ bx, by int }{{90, 60}, {45, 120}, {90, 120}, {180, 60}}
	for _, m := range []*cluster.Machine{
		cluster.Seaborg(2, 8), cluster.Seaborg(4, 4), cluster.Seaborg(16, 1),
	} {
		def, err := Run(m, cfg)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		improved := false
		for _, c := range candidates {
			cc := cfg
			cc.BX, cc.BY = c.bx, c.by
			secs, err := Run(m, cc)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if secs < def {
				improved = true
				break
			}
		}
		if !improved {
			t.Errorf("%s: no candidate beats the default", m)
		}
	}
}

func TestInterNodeBytesAlignmentEffect(t *testing.T) {
	// A block grid that matches the node count column-major (one
	// block column per node) puts all y-edges inside nodes.
	cfg := smallConfig()
	cfg.BX, cfg.BY = 90, 60 // block grid 4x4
	ly, err := cfg.Layout(16)
	if err != nil {
		t.Fatal(err)
	}
	aligned := ly.InterNodeBytes(cluster.Seaborg(4, 4))    // node = block column
	misaligned := ly.InterNodeBytes(cluster.Seaborg(8, 2)) // columns split across nodes
	if aligned >= misaligned {
		t.Errorf("aligned topology inter-node bytes %d should be below misaligned %d", aligned, misaligned)
	}
}

func TestNamelistDefaultsResolve(t *testing.T) {
	nl, err := resolveNamelist(nil)
	if err != nil {
		t.Fatalf("resolveNamelist: %v", err)
	}
	if nl.values["hmix_momentum_choice"] != "anis" {
		t.Errorf("default hmix_momentum_choice = %q", nl.values["hmix_momentum_choice"])
	}
	if len(NamelistNames()) < 20 {
		t.Errorf("only %d namelist parameters; the paper says about 20", len(NamelistNames()))
	}
}

func TestNamelistValidation(t *testing.T) {
	if _, err := resolveNamelist(map[string]string{"bogus": "x"}); err == nil {
		t.Error("expected error for unknown parameter")
	}
	if _, err := resolveNamelist(map[string]string{"state_choice": "x"}); err == nil {
		t.Error("expected error for unknown value")
	}
}

// TestNamelistErrorIsDeterministic: with several bad entries the error
// names the same one on every call, not whichever map order meets
// first.
func TestNamelistErrorIsDeterministic(t *testing.T) {
	cases := []struct {
		values map[string]string
		want   string
	}{
		{map[string]string{"vmix_choice": "x", "state_choice": "y", "kappa_choice": "constant"},
			`pop: parameter "state_choice" has no choice "y"`},
		{map[string]string{"zeta": "1", "alpha": "2", "state_choice": "linear"},
			`pop: unknown namelist parameter "alpha"`},
		{map[string]string{"alpha": "1", "tavg_freq_opt": "hourly"},
			`pop: parameter "tavg_freq_opt" has no choice "hourly"`},
	}
	for _, c := range cases {
		for i := 0; i < 50; i++ {
			_, err := resolveNamelist(c.values)
			if err == nil || err.Error() != c.want {
				t.Fatalf("call %d on %v: error %v, want %s", i, c.values, err, c.want)
			}
		}
	}
}

func TestNamelistSpaceMatchesSpecs(t *testing.T) {
	sp := NamelistSpace()
	if sp.Dims() != len(namelistSpecs) {
		t.Fatalf("dims = %d, want %d", sp.Dims(), len(namelistSpecs))
	}
	start := NamelistStart()
	cfg := sp.MustDecode(start)
	for k, v := range DefaultNamelist() {
		if cfg.String(k) != v {
			t.Errorf("start point has %s=%q, want %q", k, cfg.String(k), v)
		}
	}
}

func TestTunedNamelistBeatsDefault(t *testing.T) {
	m := cluster.Hockney(4, 4)
	base := smallConfig()
	base.Namelist = nil
	def, err := Run(m, DefaultedNamelistConfig(base))
	if err != nil {
		t.Fatal(err)
	}
	sp := NamelistSpace()
	res, err := core.Tune(context.Background(), sp,
		search.NewCoordinate(sp, search.CoordinateOptions{Start: NamelistStart()}),
		NamelistObjective(m, base), core.Options{})
	if err != nil {
		t.Fatalf("Tune: %v", err)
	}
	if res.BestValue >= def {
		t.Errorf("tuned %v should beat default %v", res.BestValue, def)
	}
	t.Logf("default %.4f tuned %.4f improvement %.1f%%", def, res.BestValue, 100*(def-res.BestValue)/def)
}

// DefaultedNamelistConfig fills the namelist with defaults.
func DefaultedNamelistConfig(c Config) Config {
	c.Namelist = DefaultNamelist()
	return c
}

func TestIOSecondsOptimumInterior(t *testing.T) {
	// The writer-count tradeoff (fan-in vs filesystem contention)
	// must have an interior optimum: more writers than 1, fewer than
	// the maximum.
	m := cluster.Hockney(8, 4)
	timeFor := func(k string) float64 {
		nl, err := resolveNamelist(map[string]string{"num_iotasks": k})
		if err != nil {
			t.Fatal(err)
		}
		return nl.costs().ioSeconds(8*3600*2400, m)
	}
	t1, t4, t32 := timeFor("1"), timeFor("4"), timeFor("32")
	if t4 >= t1 {
		t.Errorf("4 writers (%v) should beat 1 writer (%v)", t4, t1)
	}
	if t32 >= t1 {
		t.Errorf("32 writers (%v) should beat 1 writer (%v)", t32, t1)
	}
	if t4 >= t32 {
		t.Errorf("moderate writer count (%v) should beat maximum (%v): contention", t4, t32)
	}
}

func TestIdleRanksStillLegal(t *testing.T) {
	// More ranks than blocks: idle ranks only join collectives.
	cfg := smallConfig()
	cfg.BX, cfg.BY = 180, 240 // 2x1 = 2 blocks on 16 ranks
	m := cluster.Seaborg(4, 4)
	if _, err := Run(m, cfg); err != nil {
		t.Fatalf("Run with idle ranks: %v", err)
	}
}

func TestLandEliminationDropsBlocks(t *testing.T) {
	cfg := DefaultConfig(720, 480)
	cfg.BX, cfg.BY = 45, 60
	noLand, err := cfg.Layout(16)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Land = true
	withLand, err := cfg.Layout(16)
	if err != nil {
		t.Fatal(err)
	}
	if withLand.ActiveBlocks() >= noLand.ActiveBlocks() {
		t.Errorf("land mask eliminated nothing: %d vs %d blocks", withLand.ActiveBlocks(), noLand.ActiveBlocks())
	}
	if withLand.OceanPoints() >= noLand.OceanPoints() {
		t.Errorf("ocean points %d should drop below %d", withLand.OceanPoints(), noLand.OceanPoints())
	}
	// Every surviving rank still gets work.
	for r, pts := range withLand.points {
		if pts == 0 {
			t.Errorf("rank %d has no points after elimination", r)
		}
	}
}

func TestSmallerBlocksEliminateMoreLand(t *testing.T) {
	// The land-block-elimination mechanism: finer blocks track the
	// coastline better, so fewer ocean-assigned points remain.
	base := DefaultConfig(720, 480)
	base.Land = true
	points := func(bx, by int) int {
		cfg := base
		cfg.BX, cfg.BY = bx, by
		ly, err := cfg.Layout(16)
		if err != nil {
			t.Fatal(err)
		}
		return ly.OceanPoints()
	}
	coarse := points(360, 240)
	fine := points(45, 30)
	if fine >= coarse {
		t.Errorf("fine blocks keep %d points, coarse %d; elimination should favour fine", fine, coarse)
	}
}

func TestLandRunsAndBeatsNoElimination(t *testing.T) {
	m := cluster.Seaborg(4, 4)
	cfg := smallConfig()
	// Fine blocks, many per rank: elimination removes work without
	// introducing whole-block imbalance.
	cfg.NX, cfg.NY = 720, 480
	cfg.BX, cfg.BY = 45, 30
	noLand, err := Run(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Land = true
	withLand, err := Run(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if withLand >= noLand {
		t.Errorf("land elimination (%v) should reduce the work versus all-ocean (%v)", withLand, noLand)
	}
}

func TestLandMaskDeterministic(t *testing.T) {
	cfg := DefaultConfig(360, 240)
	cfg.Land = true
	a, err := cfg.Layout(8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := cfg.Layout(8)
	if err != nil {
		t.Fatal(err)
	}
	if a.ActiveBlocks() != b.ActiveBlocks() || a.OceanPoints() != b.OceanPoints() {
		t.Error("land mask not deterministic")
	}
}
