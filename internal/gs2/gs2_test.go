package gs2

import (
	"context"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"harmony/internal/cluster"
)

func TestLayoutValidate(t *testing.T) {
	for _, l := range Layouts() {
		if err := l.validate(); err != nil {
			t.Errorf("%s: %v", l, err)
		}
	}
	for _, bad := range []Layout{"", "xyle", "xylee", "xylez", "xxles"} {
		if err := bad.validate(); err == nil {
			t.Errorf("%q: expected error", bad)
		}
	}
}

func TestLayoutFront(t *testing.T) {
	cases := []struct {
		l    Layout
		dims string
		want Layout
	}{
		{"lxyes", "xy", "xyles"},
		{"yxles", "xy", "yxles"}, // already front: unchanged
		{"yxels", "xy", "yxels"},
		{"lxyes", "le", "lexys"},
		{"yxles", "le", "leyxs"},
		{"yxels", "le", "elyxs"},
	}
	for _, c := range cases {
		if got := c.l.front(c.dims); got != c.want {
			t.Errorf("%s.front(%s) = %s, want %s", c.l, c.dims, got, c.want)
		}
	}
}

func TestStridesLeftmostFastest(t *testing.T) {
	d := Dims{X: 3, Y: 5, L: 7, E: 2, S: 2}
	s := Layout("lxyes").strides(d)
	want := map[byte]int{'l': 1, 'x': 7, 'y': 21, 'e': 105, 's': 210}
	for c, st := range want {
		if s[dimIndex(c)] != st {
			t.Errorf("stride of %q = %d, want %d (strides %v)", string(c), s[dimIndex(c)], st, s)
		}
	}
}

// bruteMatrix is the O(N) reference implementation of MoveMatrix. It
// shares no code with the package: place values come straight from
// the definition (leftmost fastest) and every element is visited.
func bruteMatrix(d Dims, home, target Layout, p int) [][]int {
	const letters = "xyles"
	ext := [5]int{d.X, d.Y, d.L, d.E, d.S}
	place := func(l Layout) (w [5]int) {
		stride := 1
		for i := 0; i < len(l); i++ {
			k := strings.IndexByte(letters, l[i])
			w[k] = stride
			stride *= ext[k]
		}
		return w
	}
	hw, tw := place(home), place(target)
	n := d.n()
	mat := make([][]int, p)
	for i := range mat {
		mat[i] = make([]int, p)
	}
	var idx [5]int
	var visit func(k int)
	visit = func(k int) {
		if k == len(idx) {
			f1, f2 := 0, 0
			for j, v := range idx {
				f1 += v * hw[j]
				f2 += v * tw[j]
			}
			if o1, o2 := f1*p/n, f2*p/n; o1 != o2 {
				mat[o1][o2]++
			}
			return
		}
		for idx[k] = 0; idx[k] < ext[k]; idx[k]++ {
			visit(k + 1)
		}
	}
	visit(0)
	return mat
}

func matricesEqual(a, b [][]int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

func TestMoveMatrixMatchesBruteForce(t *testing.T) {
	d := Dims{X: 5, Y: 4, L: 3, E: 4, S: 2}
	for _, home := range []Layout{"lxyes", "yxles", "xyles", "exyls"} {
		for _, target := range []Layout{"xyles", "leyxs", "lexys", "yxles"} {
			for _, p := range []int{1, 2, 3, 7, 16} {
				got := MoveMatrix(d, home, target, p)
				want := bruteMatrix(d, home, target, p)
				if !matricesEqual(got, want) {
					t.Fatalf("MoveMatrix(%s->%s, p=%d) mismatch", home, target, p)
				}
			}
		}
	}
}

func TestMoveMatrixProperty(t *testing.T) {
	f := func(px, py, pl, pe, pp uint8) bool {
		d := Dims{X: 1 + int(px%6), Y: 1 + int(py%6), L: 1 + int(pl%6), E: 1 + int(pe%4), S: 2}
		p := 1 + int(pp%12)
		got := MoveMatrix(d, "lxyes", "xyles", p)
		return matricesEqual(got, bruteMatrix(d, "lxyes", "xyles", p))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestMoveMatrixIdentityIsZero(t *testing.T) {
	d := DefaultConfig().Dims()
	for _, p := range []int{1, 16, 64, 128} {
		mat := MoveMatrix(d, "yxles", "yxles", p)
		if MovedElements(mat) != 0 {
			t.Errorf("p=%d: identity redistribution moves %d elements", p, MovedElements(mat))
		}
	}
}

func TestMoveMatrixConservation(t *testing.T) {
	// Total moved elements plus stay-at-home elements equals N:
	// row/column totals never exceed chunk sizes.
	d := Dims{X: 13, Y: 8, L: 5, E: 6, S: 2}
	p := 24
	n := d.n()
	mat := MoveMatrix(d, "lxyes", "xyles", p)
	for i := 0; i < p; i++ {
		var sent int
		for j := 0; j < p; j++ {
			sent += mat[i][j]
		}
		if chunk := chunkOf(n, p, i); sent > chunk {
			t.Errorf("rank %d sends %d of %d owned elements", i, sent, chunk)
		}
	}
	// And inbound totals match the target chunks.
	for j := 0; j < p; j++ {
		var recv int
		for i := 0; i < p; i++ {
			recv += mat[i][j]
		}
		if chunk := chunkOf(n, p, j); recv > chunk {
			t.Errorf("rank %d receives %d of %d target elements", j, recv, chunk)
		}
	}
}

func TestDefaultLayoutMovesEverythingAtScale(t *testing.T) {
	// The headline effect: lxyes needs a near-total transpose for the
	// (x,y)-local phase at 128 ranks, while yxles needs none.
	d := DefaultConfig().Dims()
	p := 128
	bad := MovedElements(MoveMatrix(d, "lxyes", Layout("lxyes").front("xy"), p))
	good := MovedElements(MoveMatrix(d, "yxles", Layout("yxles").front("xy"), p))
	if good != 0 {
		t.Errorf("yxles moves %d elements, want 0", good)
	}
	if bad < d.n()/2 {
		t.Errorf("lxyes moves only %d of %d elements", bad, d.n())
	}
}

func TestRunLayoutOrdering(t *testing.T) {
	// yxles must beat lxyes substantially on the Seaborg 8x16 slice,
	// with and without collisions, and collisions must cost extra.
	m := cluster.Seaborg(8, 16)
	timeFor := func(layout Layout, coll bool) float64 {
		cfg := DefaultConfig()
		cfg.Layout = layout
		cfg.Collisions = coll
		secs, err := Run(m, cfg)
		if err != nil {
			t.Fatalf("Run(%s): %v", layout, err)
		}
		return secs
	}
	lx := timeFor("lxyes", false)
	yx := timeFor("yxles", false)
	if yx*1.5 >= lx {
		t.Errorf("yxles (%v) should beat lxyes (%v) clearly", yx, lx)
	}
	lxC := timeFor("lxyes", true)
	yxC := timeFor("yxles", true)
	if lxC <= lx || yxC <= yx {
		t.Errorf("collisions should cost extra: %v<=%v or %v<=%v", lxC, lx, yxC, yx)
	}
	// Collision overhead compresses the ratio (paper: 3.4x -> 2.3x).
	if lxC/yxC >= lx/yx {
		t.Errorf("collision ratio %v should be below collisionless ratio %v", lxC/yxC, lx/yx)
	}
}

func TestRunExtrapolationConsistent(t *testing.T) {
	// A 5-step run must cost between a 3-step and a 10-step run, and
	// the production extrapolation must be monotone in steps.
	m := LinuxCluster(8)
	timeFor := func(steps int) float64 {
		cfg := DefaultConfig()
		cfg.Steps = steps
		secs, err := Run(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return secs
	}
	t3, t5, t10, t1000 := timeFor(3), timeFor(5), timeFor(10), timeFor(1000)
	if !(t3 < t5 && t5 < t10 && t10 < t1000) {
		t.Errorf("times not monotone in steps: %v %v %v %v", t3, t5, t10, t1000)
	}
	// Production ~ 100x the marginal step cost of the benchmark.
	perStep := (t10 - t3) / 7
	approx := t10 + 990*perStep
	if diff := (t1000 - approx) / t1000; diff > 0.01 || diff < -0.01 {
		t.Errorf("extrapolation inconsistent: t1000=%v approx=%v", t1000, approx)
	}
}

func TestTunedResolutionConfigBeatsDefault(t *testing.T) {
	// Table III shape: the tuned (negrid, ntheta, nodes) combination
	// beats the default (16, 26, 32) for the lxyes layout, where
	// redistribution granularity punishes the default.
	def := DefaultConfig() // lxyes
	full, err := Run(LinuxCluster(32), def)
	if err != nil {
		t.Fatal(err)
	}
	best := full
	for _, c := range []struct{ negrid, ntheta, nodes int }{
		{8, 22, 8}, {8, 22, 16}, {10, 20, 28}, {8, 16, 32},
	} {
		cfg := def
		cfg.Negrid, cfg.Ntheta = c.negrid, c.ntheta
		secs, err := Run(LinuxCluster(c.nodes), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if secs < best {
			best = secs
		}
	}
	if best >= full {
		t.Errorf("no tuned configuration (%v) beats the default (%v)", best, full)
	}
	t.Logf("default %.2fs best tuned %.2fs (%.1f%%)", full, best, 100*(full-best)/full)
}

func TestRunDeterministic(t *testing.T) {
	m := cluster.Seaborg(4, 16)
	cfg := DefaultConfig()
	a, err := Run(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("non-deterministic: %v vs %v", a, b)
	}
}

func TestConfigValidation(t *testing.T) {
	m := LinuxCluster(2)
	bad := DefaultConfig()
	bad.Layout = "zzzzz"
	if _, err := Run(m, bad); err == nil {
		t.Error("expected layout error")
	}
	bad = DefaultConfig()
	bad.Negrid = 0
	if _, err := Run(m, bad); err == nil {
		t.Error("expected negrid error")
	}
}

func TestResolutionSpace(t *testing.T) {
	sp := ResolutionSpace(64)
	if sp.Dims() != 3 {
		t.Fatalf("dims = %d", sp.Dims())
	}
	start := ResolutionStart(sp, 16, 26, 32)
	cfg := sp.MustDecode(start)
	if cfg.Int("negrid") != 16 || cfg.Int("ntheta") != 26 || cfg.Int("nodes") != 32 {
		t.Errorf("start decodes to %s", cfg.Format())
	}
}

func TestChunkOfCoversAll(t *testing.T) {
	for _, p := range []int{1, 3, 7, 64} {
		total := 0
		for i := 0; i < p; i++ {
			total += chunkOf(1000, p, i)
		}
		if total != 1000 {
			t.Errorf("p=%d: chunks cover %d", p, total)
		}
	}
}

func TestResolutionObjectiveKeepsEachMachine(t *testing.T) {
	// The workers of a campaign share one objective. A node count's
	// machine is built by the workers that meet it first, at most one
	// each, and by nobody after; every run on it returns what a run on
	// a machine of its own returns.
	var built sync.Map // nodes -> *atomic.Int32
	mf := func(nodes int) *cluster.Machine {
		v, _ := built.LoadOrStore(nodes, new(atomic.Int32))
		v.(*atomic.Int32).Add(1)
		return LinuxCluster(nodes)
	}
	sp := ResolutionSpace(64)
	obj := ResolutionObjective(mf, DefaultConfig())
	nodes := []int{2, 7, 32}
	const workers = 8
	run := func(w int) {
		for i, n := range nodes {
			negrid, ntheta := 8+2*((w+i)%4), 16+2*w
			got, err := obj(context.Background(), sp.MustDecode(ResolutionStart(sp, negrid, ntheta, n)))
			if err != nil {
				t.Error(err)
				return
			}
			cfg := DefaultConfig()
			cfg.Negrid, cfg.Ntheta = negrid, ntheta
			want, err := Run(LinuxCluster(n), cfg)
			if err != nil {
				t.Error(err)
				return
			}
			if got != want {
				t.Errorf("(%d, %d, %d): objective %v, Run %v", negrid, ntheta, n, got, want)
			}
		}
	}
	builds := func() []int32 {
		var out []int32
		for _, n := range nodes {
			v, _ := built.Load(n)
			out = append(out, v.(*atomic.Int32).Load())
		}
		return out
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			run(w)
		}(w)
	}
	wg.Wait()
	first := builds()
	for i, c := range first {
		if c < 1 || c > workers {
			t.Errorf("machine of %d nodes built %d times by %d workers", nodes[i], c, workers)
		}
	}
	for w := 0; w < workers; w++ {
		run(w)
	}
	if again := builds(); !slices.Equal(again, first) {
		t.Errorf("builds per node count %v after the workers, %v after a second pass: a kept machine was built again", first, again)
	}
}
