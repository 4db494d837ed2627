package gs2

import (
	"math"
	"runtime"
	"sync"
	"testing"
	"testing/quick"

	"harmony/internal/cluster"
)

func TestMoveMatrixRoundTripSymmetry(t *testing.T) {
	// The volume moved A->B equals the volume moved B->A: the inverse
	// transform of a redistribution moves the same elements back.
	d := Dims{X: 11, Y: 8, L: 5, E: 6, S: 2}
	for _, p := range []int{3, 8, 16} {
		ab := MovedElements(MoveMatrix(d, "lxyes", "xyles", p))
		ba := MovedElements(MoveMatrix(d, "xyles", "lxyes", p))
		if ab != ba {
			t.Errorf("p=%d: forward moves %d, backward moves %d", p, ab, ba)
		}
	}
}

func TestMoveMatrixTransposeProperty(t *testing.T) {
	// mat2 (B->A) is the transpose of mat1 (A->B): what rank i sends
	// to j going out, j sends back to i coming home.
	d := Dims{X: 7, Y: 6, L: 4, E: 4, S: 2}
	p := 6
	fwd := MoveMatrix(d, "lxyes", "lexys", p)
	bwd := MoveMatrix(d, "lexys", "lxyes", p)
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			if fwd[i][j] != bwd[j][i] {
				t.Fatalf("fwd[%d][%d]=%d != bwd[%d][%d]=%d", i, j, fwd[i][j], j, i, bwd[j][i])
			}
		}
	}
}

func TestMoveMatrixSinglingRank(t *testing.T) {
	d := DefaultConfig().Dims()
	mat := MoveMatrix(d, "lxyes", "xyles", 1)
	if MovedElements(mat) != 0 {
		t.Error("one rank owns everything; nothing should move")
	}
}

func TestFrontPreservesPermutation(t *testing.T) {
	f := func(choice uint8) bool {
		layouts := Layouts()
		l := layouts[int(choice)%len(layouts)]
		for _, dims := range []string{"xy", "le", "s", "xyles"} {
			if err := l.front(dims).Validate(); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFrontIdempotent(t *testing.T) {
	for _, l := range Layouts() {
		once := l.front("xy")
		twice := once.front("xy")
		if once != twice {
			t.Errorf("%s: front not idempotent: %s vs %s", l, once, twice)
		}
	}
}

func TestMoveMatrixBothDirectionsMatchBruteForce(t *testing.T) {
	// Extents that divide evenly by no rank count, so owner boundaries
	// fall inside runs. Across the layouts both branches of the
	// direction choice are taken (lxyes→xyles walks the target order,
	// lxyes→lexys the home order), and querying each pair both ways
	// covers the transposition of either.
	d := Dims{X: 27, Y: 8, L: 5, E: 10, S: 2}
	for _, home := range Layouts() {
		for _, dims := range []string{"xy", "le"} {
			target := home.front(dims)
			for _, p := range []int{1, 2, 7, 64, 128} {
				for _, pair := range [][2]Layout{{home, target}, {target, home}} {
					got := MoveMatrix(d, pair[0], pair[1], p)
					if !matricesEqual(got, bruteMatrix(d, pair[0], pair[1], p)) {
						t.Errorf("MoveMatrix(%s->%s, p=%d) differs from brute force", pair[0], pair[1], p)
					}
				}
			}
		}
	}
}

func TestExchangePlansReverseIsTranspose(t *testing.T) {
	// The reverse plans are derived, not walked: they must be exactly
	// what a walk of the reverse redistribution freezes to.
	cfg := Config{Layout: DefaultLayout, Negrid: 10, Ntheta: 27, Steps: 3, Collisions: true}
	d := cfg.Dims()
	for _, p := range []int{7, 64} {
		pl := cfg.plans(p)
		for _, c := range []struct {
			dims     string
			fwd, bwd *redist
		}{{"xy", pl.toXY, pl.fromXY}, {"le", pl.toLE, pl.fromLE}} {
			dims, fwd, bwd := c.dims, c.fwd, c.bwd
			if fwd == nil || bwd == nil {
				t.Fatalf("p=%d %s: no plan with collisions on", p, dims)
			}
			if fwd.totalMoved == 0 {
				t.Fatalf("p=%d %s: forward plan moves nothing", p, dims)
			}
			if fwd.totalMoved != bwd.totalMoved || fwd.fraction != bwd.fraction {
				t.Errorf("p=%d %s: totals %d/%d fractions %v/%v", p, dims,
					fwd.totalMoved, bwd.totalMoved, fwd.fraction, bwd.fraction)
			}
			walked := newRedist(MoveMatrix(d, cfg.Layout.front(dims), cfg.Layout, p), bwd.fraction)
			if !matricesEqual(bwd.sendBytes, walked.sendBytes) {
				t.Errorf("p=%d %s: derived reverse byte rows differ from a walked reverse plan", p, dims)
			}
			for i := 0; i < p; i++ {
				if fwd.sent[i] != bwd.recvd[i] || fwd.recvd[i] != bwd.sent[i] {
					t.Errorf("p=%d %s rank %d: sent/recvd not swapped", p, dims, i)
				}
				if bwd.sent[i] != walked.sent[i] || bwd.recvd[i] != walked.recvd[i] {
					t.Errorf("p=%d %s rank %d: totals differ from a walked reverse plan", p, dims, i)
				}
				for j := 0; j < p; j++ {
					if fwd.sendBytes[i][j] != bwd.sendBytes[j][i] {
						t.Fatalf("p=%d %s: SendBytes[%d][%d] not transposed", p, dims, i, j)
					}
				}
			}
		}
	}
}

// coldShape returns a configuration no other test or campaign visits
// (odd extents are off the tuning lattice) and fails the test if its
// plans were already built, so "first call" means what it says.
func coldShape(t *testing.T, negrid, ntheta, p int, coll bool) Config {
	t.Helper()
	cfg := Config{Layout: DefaultLayout, Negrid: negrid, Ntheta: ntheta, Steps: 10, Collisions: coll}
	key := plansKey{d: cfg.Dims(), l: cfg.Layout, coll: coll, p: p}
	if _, warm := plansCache.Load(key); warm {
		t.Fatalf("shape %+v on %d ranks is already cached", cfg, p)
	}
	t.Cleanup(func() { plansCache.Delete(key) })
	return cfg
}

func TestPlansCacheSharesOneBuild(t *testing.T) {
	// Workers of an asynchronous campaign meet the same cold shape at
	// once: they must share one build, not race to store their own.
	m := LinuxCluster(8)
	cfg := coldShape(t, 11, 33, m.Procs(), true)
	const workers = 8
	var wg sync.WaitGroup
	secs := make([]float64, workers)
	sent := make([]*int, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s, err := Run(m, cfg)
			if err != nil {
				t.Error(err)
				return
			}
			secs[w] = s
			sent[w] = &cfg.plans(m.Procs()).toXY.sent[0]
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if secs[w] != secs[0] {
			t.Errorf("worker %d simulated %v, worker 0 %v", w, secs[w], secs[0])
		}
		if sent[w] != sent[0] {
			t.Errorf("worker %d sees a different plan backing array", w)
		}
	}
}

func TestRunColdEqualsWarm(t *testing.T) {
	// The first evaluation of a shape builds its plans (one walk per
	// phase, reverse plans derived); the second reads them back. Both
	// must equal a run on plans frozen from four independent walks.
	for _, c := range []struct {
		negrid, ntheta, nodes int
		coll                  bool
	}{
		{9, 17, 2, false}, {16, 27, 32, false}, {13, 41, 19, true}, {31, 79, 64, true}, {8, 21, 7, true},
	} {
		m := LinuxCluster(c.nodes)
		p := m.Procs()
		cfg := coldShape(t, c.negrid, c.ntheta, p, c.coll)
		cfg.Steps = 3
		cold, err := Run(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		warm, err := Run(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		d, xy, le := cfg.Dims(), cfg.Layout.front("xy"), cfg.Layout.front("le")
		ref := &plans{
			toXY:   newRedist(MoveMatrix(d, cfg.Layout, xy, p), 1),
			fromXY: newRedist(MoveMatrix(d, xy, cfg.Layout, p), 1),
		}
		if c.coll {
			ref.toLE = newRedist(MoveMatrix(d, cfg.Layout, le, p), collRedistFraction)
			ref.fromLE = newRedist(MoveMatrix(d, le, cfg.Layout, p), collRedistFraction)
		}
		_, walked, err := simulate(m, cfg, ref, cfg.Steps)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(cold) != math.Float64bits(warm) || math.Float64bits(cold) != math.Float64bits(walked) {
			t.Errorf("%+v: cold %v warm %v four-walk reference %v", c, cold, warm, walked)
		}
	}
}

// TestRunOneSimulationEqualsTwo is what keeps the one-run extrapolation
// honest: the time marked at the end of the second-to-last step of a
// three-step run must be, bit for bit, what simulating two steps from
// scratch returns, so Run's result is the one two simulations gave.
func TestRunOneSimulationEqualsTwo(t *testing.T) {
	hetero := cluster.MyrinetLinux(6, 2)
	hetero.Gflops = []float64{2.2, 0.7, 1.3, 2.9, 0.4, 1.1}
	machines := []*cluster.Machine{LinuxCluster(3), LinuxCluster(17), LinuxCluster(64),
		cluster.Seaborg(8, 16), cluster.Seaborg(5, 3), hetero}
	for _, l := range Layouts() {
		for _, coll := range []bool{false, true} {
			for _, m := range machines {
				for _, res := range [][2]int{{8, 16}, {16, 26}, {13, 41}, {32, 80}} {
					cfg := Config{Layout: l, Negrid: res[0], Ntheta: res[1], Steps: 10, Collisions: coll}
					p := m.Procs()
					pl := cfg.plans(p)
					marked, t3, err := simulate(m, cfg, pl, 3)
					if err != nil {
						t.Fatal(err)
					}
					_, t2, err := simulate(m, cfg, pl, 2)
					if err != nil {
						t.Fatal(err)
					}
					if math.Float64bits(marked) != math.Float64bits(t2) {
						t.Errorf("%+v on %s: marked two-step time %v, simulated %v", cfg, m, marked, t2)
					}
					got, err := Run(m, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if want := t3 + float64(cfg.Steps-3)*(t3-t2); math.Float64bits(got) != math.Float64bits(want) {
						t.Errorf("%+v on %s: Run %v, extrapolated from two simulations %v", cfg, m, got, want)
					}
					plansCache.Delete(plansKey{d: cfg.Dims(), l: l, coll: coll, p: p}) // keep the test's heap small
				}
			}
		}
	}
}

func TestPlansRetainTwoTablesPerShape(t *testing.T) {
	// A collisionless shape keeps two dense p×p tables (the byte rows
	// of each direction). Before the move matrices stopped being
	// retained it kept four; the budget is 0.6 of that.
	const (
		shapes = 200
		p      = 128
		budget = 0.6 * shapes * 4 * p * p * 8
	)
	cfgs := make([]Config, shapes)
	for i := range cfgs {
		cfgs[i] = coldShape(t, 3+2*(i%10), 101+2*(i/10), p, false)
	}
	heap := func() float64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc)
	}
	before := heap()
	for _, cfg := range cfgs {
		cfg.plans(p)
	}
	grown := heap() - before
	t.Logf("%d shapes at p=%d retain %.1f MiB (budget %.1f MiB)", shapes, p, grown/(1<<20), budget/(1<<20))
	if grown > budget {
		t.Errorf("retained %.0f bytes, budget %.0f", grown, float64(budget))
	}
}

func TestCollisionModeAddsCost(t *testing.T) {
	// Collision cost must be visible on every layout, and smaller for
	// layouts needing less velocity-space movement.
	m := LinuxCluster(16)
	for _, l := range Layouts() {
		cfg := DefaultConfig()
		cfg.Layout = l
		off, err := Run(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Collisions = true
		on, err := Run(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if on <= off {
			t.Errorf("%s: collisions should cost extra (%v vs %v)", l, on, off)
		}
	}
}

func TestLayoutsDifferentiateWithCollisions(t *testing.T) {
	// With collisions, yxles and yxels transform to different
	// (l,e)-front targets, so at least some environments separate
	// them. Without collisions they are identical by construction.
	m := cluster.Seaborg(16, 8)
	timeFor := func(l Layout, coll bool) float64 {
		cfg := DefaultConfig()
		cfg.Layout = l
		cfg.Collisions = coll
		secs, err := Run(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return secs
	}
	if a, b := timeFor("yxles", false), timeFor("yxels", false); a != b {
		t.Errorf("without collisions yxles (%v) and yxels (%v) should tie", a, b)
	}
	la := Layout("yxles").front("le")
	lb := Layout("yxels").front("le")
	if la == lb {
		t.Fatalf("le-front targets should differ: %s vs %s", la, lb)
	}
}
