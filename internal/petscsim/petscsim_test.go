package petscsim

import (
	"context"
	"testing"

	"harmony/internal/cluster"
	"harmony/internal/core"
	"harmony/internal/search"
	"harmony/internal/space"
	"harmony/internal/sparse"
)

func TestSLESAppDefaultRuns(t *testing.T) {
	app := NewSLESApp(400, 4, 4, 40, 1)
	m := cluster.Seaborg(4, 1)
	secs, err := app.Run(m, app.DefaultPartition())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if secs <= 0 {
		t.Fatalf("time = %v", secs)
	}
	if _, err := app.Run(m, sparse.EvenPartition(app.A.N, app.P-1)); err == nil {
		t.Error("Run accepted a partition with one part too few")
	}
}

func TestSLESAppSpaceAndPartition(t *testing.T) {
	app := NewSLESApp(100, 4, 2, 10, 1)
	sp := app.Space()
	if sp.Dims() != 4 {
		t.Fatalf("dims = %d, want one weight per partition", sp.Dims())
	}
	// Extreme weights still decode to a valid partition.
	cfg := sp.MustDecode(space.Point{0, 999, 0, 999})
	part := app.PartitionFor(cfg)
	if err := part.Validate(100); err != nil {
		t.Errorf("decoded partition invalid: %v", err)
	}
	// Equal weights reproduce the even partition.
	even := app.PartitionFor(sp.MustDecode(app.EvenPoint()))
	for i, s := range app.DefaultPartition().Starts {
		if even.Starts[i] != s {
			t.Errorf("equal weights give %v, want %v", even.Starts, app.DefaultPartition().Starts)
			break
		}
	}
}

func TestSLESBalancedPartitionBeatsDefault(t *testing.T) {
	// Put all dense blocks in the first half: the default even split
	// loads the first ranks; boundaries that shrink their ranges must
	// win.
	app := NewSLESApp(600, 4, 3, 60, 7)
	m := cluster.Seaborg(4, 1)
	def, err := app.Run(m, app.DefaultPartition())
	if err != nil {
		t.Fatal(err)
	}
	// Tune briefly with the simplex; the tuned result must beat the
	// default configuration.
	res, err := core.Tune(context.Background(), app.Space(),
		search.NewSimplex(app.Space(), search.SimplexOptions{Start: app.EvenPoint(), Adaptive: true, Restarts: 4}),
		app.Objective(m), core.Options{MaxRuns: 60})
	if err != nil {
		t.Fatalf("Tune: %v", err)
	}
	if res.BestValue >= def {
		t.Errorf("tuned %v should beat default %v", res.BestValue, def)
	}
	t.Logf("default %.6f tuned %.6f improvement %.1f%%", def, res.BestValue, 100*(def-res.BestValue)/def)
}

func TestSLESObjectiveMatchesRun(t *testing.T) {
	app := NewSLESApp(200, 2, 1, 20, 3)
	m := cluster.Seaborg(2, 1)
	sp := app.Space()
	cfg := sp.MustDecode(space.Point{299, 499}) // uneven weights
	obj := app.Objective(m)
	got, err := obj(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := app.Run(m, app.PartitionFor(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("objective %v != run %v (simulation must be deterministic)", got, want)
	}
}

func TestCavityAppSolvesBratu(t *testing.T) {
	app := NewCavityApp(16, 16, 2, 2)
	conv, res, err := app.Solve(cluster.HomogeneousLab())
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !conv {
		t.Fatalf("Bratu solve did not converge (residual %v)", res)
	}
}

func TestCavityDecompositionCoversGrid(t *testing.T) {
	app := NewCavityApp(50, 50, 2, 2)
	xb, yb := app.DefaultBounds()
	ds := app.decompose(xb, yb)
	covered := make([]bool, app.Points())
	for _, d := range ds {
		for j := d.y0; j < d.y1; j++ {
			for i := d.x0; i < d.x1; i++ {
				idx := j*app.NX + i
				if covered[idx] {
					t.Fatalf("point (%d,%d) covered twice", i, j)
				}
				covered[idx] = true
			}
		}
	}
	for idx, c := range covered {
		if !c {
			t.Fatalf("point %d not covered", idx)
		}
	}
}

func TestCavityRunDeterministic(t *testing.T) {
	app := NewCavityApp(20, 20, 2, 2)
	m := cluster.HeterogeneousLab()
	xb, yb := app.DefaultBounds()
	a, err := app.Run(m, xb, yb)
	if err != nil {
		t.Fatal(err)
	}
	b, err := app.Run(m, xb, yb)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("non-deterministic: %v vs %v", a, b)
	}
}

func TestCavityHeterogeneousPrefersSkewedSplit(t *testing.T) {
	// Nodes 0,1 are slow (bottom row of the 2x2 rank grid). Giving
	// the bottom row fewer grid rows must beat the even split.
	app := NewCavityApp(40, 40, 2, 2)
	m := cluster.HeterogeneousLab()
	even, err := app.Run(m, []int{20}, []int{20})
	if err != nil {
		t.Fatal(err)
	}
	skewed, err := app.Run(m, []int{20}, []int{8}) // slow row gets 8/40 of the rows
	if err != nil {
		t.Fatal(err)
	}
	if skewed >= even {
		t.Errorf("skewed split %v should beat even split %v on the heterogeneous machine", skewed, even)
	}
	// And on the homogeneous machine the even split must win instead.
	mh := cluster.HomogeneousLab()
	evenH, err := app.Run(mh, []int{20}, []int{20})
	if err != nil {
		t.Fatal(err)
	}
	skewedH, err := app.Run(mh, []int{20}, []int{8})
	if err != nil {
		t.Fatal(err)
	}
	if evenH >= skewedH {
		t.Errorf("even split %v should beat skewed %v on the homogeneous machine", evenH, skewedH)
	}
}

func TestCavitySpaceRoundTrip(t *testing.T) {
	app := NewCavityApp(50, 50, 4, 2)
	sp := app.Space()
	if sp.Dims() != 6 { // 4 x-weights + 2 y-weights
		t.Fatalf("dims = %d, want 6", sp.Dims())
	}
	// Equal weights reproduce the even decomposition.
	xb, yb := app.BoundsFor(sp.MustDecode(app.EvenPoint()))
	wantX, wantY := app.DefaultBounds()
	for i := range wantX {
		if xb[i] != wantX[i] {
			t.Fatalf("even x-bounds %v, want %v", xb, wantX)
		}
	}
	for j := range wantY {
		if yb[j] != wantY[j] {
			t.Fatalf("even y-bounds %v, want %v", yb, wantY)
		}
	}
	// Skewed weights shift the boundary in the right direction.
	cfg := sp.MustDecode(space.Point{99, 499, 499, 499, 99, 899})
	xb, yb = app.BoundsFor(cfg)
	if xb[0] >= wantX[0] {
		t.Errorf("small first x-weight should pull boundary left: %v", xb)
	}
	if yb[0] >= wantY[0] {
		t.Errorf("small first y-weight should pull boundary down: %v", yb)
	}
}
