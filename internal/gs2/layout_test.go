package gs2

import (
	"maps"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"harmony/internal/cluster"
	"harmony/internal/simmpi"
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

// walk is the O(N/run) reference the count replaced. It walks the
// index space in runs along the fastest dimension of one of the two
// layouts; inside a run both owners are monotone step functions, so
// each run costs O(owner changes), not O(run length). Because
// moved(A→B) = moved(B→A)ᵀ either layout can be the walked one: it
// takes whichever has the smaller stride for its run dimension under
// the other layout (fewest owner changes per run) and transposes the
// result when that is the target.
func walk(d Dims, home, target Layout, p int) [][]int {
	if d.N() == 0 || home == target {
		return newMatrix(p)
	}
	if home.strides(d)[dimIndex(target[0])] < target.strides(d)[dimIndex(home[0])] {
		return transpose(walkRuns(d, target, home, p))
	}
	return walkRuns(d, home, target, p)
}

// walkRuns accumulates moved(a→b) run by run along a[0]. Runs are
// visited in a's flat order, so a's base advances by the run length;
// b's base is carried by an odometer over a's other four dimensions.
func walkRuns(d Dims, a, b Layout, p int) [][]int {
	mat := newMatrix(p)
	n := d.N()
	bs := b.strides(d)
	runLen := d.size(a[0])
	s2 := bs[dimIndex(a[0])]
	var size, step, idx [4]int
	for k := range size {
		size[k] = d.size(a[k+1])
		step[k] = bs[dimIndex(a[k+1])]
	}
	f2 := 0
	for f1 := 0; f1 < n; f1 += runLen {
		accumulateRun(mat, f1, f2, s2, runLen, p, n)
		for k := 0; k < 4; k++ {
			idx[k]++
			f2 += step[k]
			if idx[k] < size[k] {
				break
			}
			idx[k] = 0
			f2 -= size[k] * step[k]
		}
	}
	return mat
}

// accumulateRun distributes a run of `length` elements starting at
// flat index f1 of the walked layout (stride 1) and f2 of the other
// (stride s2) into mat[walkedOwner][otherOwner].
func accumulateRun(mat [][]int, f1, f2, s2, length, p, n int) {
	k := 0
	for k < length {
		o1 := (f1 + k) * p / n
		o2 := (f2 + k*s2) * p / n
		// Next k where o1 changes: (f1+k')·p >= (o1+1)·n.
		k1 := ceilDiv((o1+1)*n, p) - f1
		// Next k where o2 changes: (f2+k'·s2)·p >= (o2+1)·n.
		k2 := length
		if s2 > 0 {
			k2 = ceilDiv(ceilDiv((o2+1)*n, p)-f2, s2)
		}
		next := min(k1, k2, length)
		if next <= k { // guard against pathological stalls
			next = k + 1
		}
		if o1 != o2 {
			mat[o1][o2] += next - k
		}
		k = next
	}
}

func newMatrix(p int) [][]int {
	mat := make([][]int, p)
	for i := range mat {
		mat[i] = make([]int, p)
	}
	return mat
}

func transpose(m [][]int) [][]int {
	t := newMatrix(len(m))
	for i, row := range m {
		for j, v := range row {
			t[j][i] = v
		}
	}
	return t
}

// allLayouts returns the 120 permutations of "xyles".
func allLayouts() []Layout {
	var out []Layout
	var perm func(prefix, rest string)
	perm = func(prefix, rest string) {
		if rest == "" {
			out = append(out, Layout(prefix))
			return
		}
		for i := range rest {
			perm(prefix+rest[i:i+1], rest[:i]+rest[i+1:])
		}
	}
	perm("", "xyles")
	return out
}

func TestMoveMatrixBothDirectionsMatchBruteForce(t *testing.T) {
	// Extents that are 1 or prime divide evenly by no rank count, so
	// owner boundaries fall inside every digit; every layout is a home,
	// and each (x,y)- and (l,e)-front target is queried both ways.
	d := Dims{X: 11, Y: 1, L: 5, E: 7, S: 3}
	// With more ranks than elements, some ranks own nothing.
	tiny := Dims{X: 3, Y: 1, L: 2, E: 1, S: 2}
	layouts := allLayouts()
	if len(layouts) != 120 {
		t.Fatalf("%d layouts", len(layouts))
	}
	for _, c := range []struct {
		d  Dims
		ps []int
	}{{d, []int{1, 2, 3, 7, 64, 97, 128}}, {tiny, []int{29}}} {
		for _, home := range layouts {
			for _, dims := range []string{"xy", "le"} {
				target := home.front(dims)
				for _, p := range c.ps {
					for _, pair := range [][2]Layout{{home, target}, {target, home}} {
						got := MoveMatrix(c.d, pair[0], pair[1], p)
						if !matricesEqual(got, bruteMatrix(c.d, pair[0], pair[1], p)) {
							t.Errorf("MoveMatrix(%+v, %s->%s, p=%d) differs from brute force", c.d, pair[0], pair[1], p)
						}
					}
				}
			}
		}
	}
}

func TestMoveMatrixCountMatchesWalkOnLattice(t *testing.T) {
	// The campaign's own shapes, at full size: a strided sweep of the
	// Table III lattice, lxyes to its (x,y)-local target on 2·nodes
	// ranks, counted against the reference walk.
	ps := ResolutionSpace(64).Params()
	for a := int64(0); a < ps[0].Levels(); a += 3 {
		for b := int64(0); b < ps[1].Levels(); b += 5 {
			for c := int64(0); c < ps[2].Levels(); c += 7 {
				cfg := Config{Layout: DefaultLayout, Negrid: int(ps[0].IntAt(a)), Ntheta: int(ps[1].IntAt(b))}
				d, p := cfg.Dims(), 2*int(ps[2].IntAt(c))
				if !matricesEqual(MoveMatrix(d, cfg.Layout, "xyles", p), walk(d, cfg.Layout, "xyles", p)) {
					t.Errorf("%+v on %d ranks: count differs from the walk", d, p)
				}
			}
		}
	}
}

// dense expands an exchange pattern into rows[src][dst] = bytes.
func dense(ex *simmpi.AlltoallvPattern) [][]int {
	p := len(ex.Start) - 1
	rows := newMatrix(p)
	for i := 0; i < p; i++ {
		for k := ex.Start[i]; k < ex.Start[i+1]; k++ {
			rows[i][ex.Dst[k]] = ex.Bytes[k]
		}
	}
	return rows
}

func patternsEqual(a, b *simmpi.AlltoallvPattern) bool {
	return slices.Equal(a.Start, b.Start) && slices.Equal(a.Dst, b.Dst) && slices.Equal(a.Bytes, b.Bytes)
}

func TestExchangePlansReverseIsTranspose(t *testing.T) {
	// The reverse plans are derived, not counted: they must be exactly
	// what a count of the reverse redistribution freezes to.
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
			counted := newRedist(countMoves(d, cfg.Layout.front(dims), cfg.Layout, p), bwd.fraction)
			if !patternsEqual(bwd.exchange, counted.exchange) {
				t.Errorf("p=%d %s: derived reverse pattern differs from a counted reverse plan", p, dims)
			}
			for i := 0; i < p; i++ {
				if fwd.pack[i] != bwd.unpack[i] || fwd.unpack[i] != bwd.pack[i] {
					t.Errorf("p=%d %s rank %d: pack/unpack not swapped", p, dims, i)
				}
				if bwd.pack[i] != counted.pack[i] || bwd.unpack[i] != counted.unpack[i] {
					t.Errorf("p=%d %s rank %d: totals differ from a counted reverse plan", p, dims, i)
				}
			}
			if !matricesEqual(transpose(dense(fwd.exchange)), dense(bwd.exchange)) {
				t.Errorf("p=%d %s: reverse pattern is not the transpose", p, dims)
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
	sent := make([]*float64, workers)
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
			sent[w] = &cfg.plans(m.Procs()).toXY.pack[0]
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
	// The first evaluation of a shape builds its plans (one count per
	// phase, reverse plans derived); the second reads them back. Both
	// must equal a run on plans frozen from four independent counts.
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
			toXY:   newRedist(countMoves(d, cfg.Layout, xy, p), 1),
			fromXY: newRedist(countMoves(d, xy, cfg.Layout, p), 1),
		}
		if c.coll {
			ref.toLE = newRedist(countMoves(d, cfg.Layout, le, p), collRedistFraction)
			ref.fromLE = newRedist(countMoves(d, le, cfg.Layout, p), collRedistFraction)
		}
		pl := cfg.plans(p)
		for _, pair := range [][2]*redist{{pl.toXY, ref.toXY}, {pl.fromXY, ref.fromXY}, {pl.toLE, ref.toLE}, {pl.fromLE, ref.fromLE}} {
			if pair[0] != nil && !patternsEqual(pair[0].exchange, pair[1].exchange) {
				t.Errorf("%+v: a cached pattern differs from its independent count", c)
			}
		}
		ref.work = pl.work
		_, st := simulateStats(t, m, cfg, ref, cfg.Steps)
		counted := st.Time
		if math.Float64bits(cold) != math.Float64bits(warm) || math.Float64bits(cold) != math.Float64bits(counted) {
			t.Errorf("%+v: cold %v warm %v four-count reference %v", c, cold, warm, counted)
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
					marked, st3 := simulateStats(t, m, cfg, pl, 3)
					_, st2 := simulateStats(t, m, cfg, pl, 2)
					t3, t2 := st3.Time, st2.Time
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

func TestPlansRetainSparsePatterns(t *testing.T) {
	// A collisionless shape keeps two sparse exchange patterns, one per
	// direction. A rank sends to a handful of target owners, so they
	// take a small fraction of two dense p×p byte tables; the budget is
	// a quarter.
	const (
		shapes = 200
		p      = 128
		budget = 0.25 * shapes * 2 * p * p * 8
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

// TestExchangePricingKeyedByMachine prices one plan's pattern on
// machines that each differ from a base machine in exactly one field
// the cost model reads, in the order base, variant, base: every
// pricing must be what AlltoallvExits charges the dense MoveMatrix
// rows on that machine, so a pricing kept across a change it should
// not survive fails here.
func TestExchangePricingKeyedByMachine(t *testing.T) {
	const p = 16
	cfg := Config{Layout: DefaultLayout, Negrid: 10, Ntheta: 27}
	d, target := cfg.Dims(), cfg.Layout.front("xy")
	rows := MoveMatrix(d, cfg.Layout, target, p)
	for _, row := range rows {
		for j, elems := range row {
			row[j] = int(float64(elems) * 8 * elemWeight * 1)
		}
	}
	ex := newRedist(countMoves(d, cfg.Layout, target, p), 1).exchange

	// Two ranks per node, so the plan's nearest-neighbour exchanges
	// cross nodes and the bisection gates them.
	base := cluster.MyrinetLinux(8, 2)
	variant := func(edit func(m *cluster.Machine)) *cluster.Machine {
		m := *base
		edit(&m)
		return &m
	}
	variants := map[string]*cluster.Machine{
		"PPN":                cluster.MyrinetLinux(8, 4),
		"Intra.Bandwidth":    variant(func(m *cluster.Machine) { m.Intra.Bandwidth /= 1000 }),
		"Inter.Overhead":     variant(func(m *cluster.Machine) { m.Inter.Overhead *= 3 }),
		"BisectionBandwidth": variant(func(m *cluster.Machine) { m.BisectionBandwidth = base.Bisection() / 100 }),
		"Nodes":              cluster.MyrinetLinux(16, 2),
	}
	const arrival = 0.75
	want := func(m *cluster.Machine) []float64 {
		exits := make([]float64, p)
		simmpi.AlltoallvExits(m, rows, arrival, exits, simmpi.NewAlltoallvScratch(p))
		return exits
	}
	bits := func(xs []float64) []uint64 {
		out := make([]uint64, len(xs))
		for i, x := range xs {
			out[i] = math.Float64bits(x)
		}
		return out
	}
	for _, name := range slices.Sorted(maps.Keys(variants)) {
		m := variants[name]
		if slices.Equal(bits(want(m)), bits(want(base))) {
			t.Fatalf("%s: the variant prices like the base machine, so it checks nothing", name)
		}
		for step, m := range []*cluster.Machine{base, m, base} {
			got := make([]float64, p)
			ex.Price(m).Exits(arrival, got)
			if !slices.Equal(bits(got), bits(want(m))) {
				t.Errorf("%s, pricing %d: exits %v, AlltoallvExits %v", name, step, got, want(m))
			}
		}
	}
}
