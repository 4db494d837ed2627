package main

import (
	"context"
	"fmt"

	"harmony/internal/cluster"
	"harmony/internal/paper"
	"harmony/internal/petscsim"
	"harmony/internal/sparse"
)

// runFig3 reproduces Fig. 3 and the Section IV text: SNES
// computation-distribution tuning on homogeneous and heterogeneous
// machines, small (2,500 points, 4 nodes) and large (40,000 points,
// 32 processors).
func runFig3(o options) error {
	small := petscsim.NewCavityApp(50, 50, 2, 2) // 2,500 grid points
	if err := fig3Case("homogeneous 4 nodes (Fig. 3a)", small, paper.Cavity(small, cluster.HomogeneousLab()),
		"paper: equal-size distributed arrays are already right on homogeneous nodes"); err != nil {
		return err
	}
	if err := fig3Case("heterogeneous 4 nodes (Fig. 3b)", small, paper.Cavity(small, cluster.HeterogeneousLab()),
		"paper: the faster bottom nodes should receive more grid points"); err != nil {
		return err
	}
	if !o.large && !o.quick {
		fmt.Println("(run with -large for the 40,000-point, 32-processor case)")
		return nil
	}
	nx := 200
	runs := 250
	if o.quick {
		nx, runs = 80, 60
	}
	large := petscsim.NewCavityApp(nx, nx, 8, 4)
	c := paper.Cavity(large, heterogeneous32())
	c.Options.MaxRuns = runs
	return fig3Case(fmt.Sprintf("heterogeneous %d points on 32 processors", nx*nx), large, c,
		"paper: up to 11.5% improvement over the default partitioning")
}

// heterogeneous32 is a 32-node machine with two processor
// generations, mirroring the paper's mixed lab hardware at scale.
func heterogeneous32() *cluster.Machine {
	g := make([]float64, 32)
	for i := range g {
		if i < 16 {
			g[i] = 0.3 // older half
		} else {
			g[i] = 0.8
		}
	}
	return &cluster.Machine{
		Name:   "cluster-heterogeneous-32x1",
		Nodes:  32,
		PPN:    1,
		Gflops: g,
		// Myrinet-class interconnect: at 32 processors the Newton-
		// Krylov reductions would otherwise drown the compute signal
		// the distribution tuning needs.
		Intra: cluster.Link{Latency: 1e-6, Bandwidth: 2.0e9, Overhead: 0.5e-6},
		Inter: cluster.Link{Latency: 8e-6, Bandwidth: 245e6, Overhead: 2e-6},
	}
}

func fig3Case(label string, app *petscsim.CavityApp, c paper.Campaign, note string) error {
	fmt.Printf("\n--- %s ---\n", label)
	fmt.Printf("grid: %dx%d points on %dx%d ranks; search space O(10^%.0f)\n",
		app.NX, app.NY, app.PX, app.PY, c.Space.LogSize())

	defTime, err := c.Default(context.Background())
	if err != nil {
		return err
	}
	res, err := c.Tune(context.Background())
	if err != nil {
		return err
	}
	xbDef, ybDef := app.DefaultBounds()
	xbT, ybT := app.BoundsFor(res.BestConfig)

	fmt.Printf("default bounds: x=%v y=%v -> %.4f s\n", xbDef, ybDef, defTime)
	fmt.Printf("tuned bounds:   x=%v y=%v -> %.4f s\n",
		repairedBounds(app.NX, xbT), repairedBounds(app.NY, ybT), res.BestValue)
	fmt.Printf("improvement: %.1f%% after %d runs\n", pct(defTime, res.BestValue), res.Runs)
	fmt.Printf("note: %s\n", note)
	if app.PX == 2 && app.PY == 2 {
		printCavityLayout(app, xbDef, ybDef, "default")
		printCavityLayout(app, repairedBounds(app.NX, xbT), repairedBounds(app.NY, ybT), "tuned")
	}
	return nil
}

// repairedBounds mirrors the application's boundary repair so the
// printed boundaries match what actually ran.
func repairedBounds(n int, bounds []int) []int {
	part := sparse.FromBoundaries(n, bounds)
	out := make([]int, 0, len(bounds))
	for i := 1; i < part.P(); i++ {
		out = append(out, part.Starts[i])
	}
	return out
}

// printCavityLayout draws the 2x2 rectangle decomposition like the
// paper's Fig. 3 sketches.
func printCavityLayout(app *petscsim.CavityApp, xb, yb []int, label string) {
	x, y := xb[0], yb[0]
	fmt.Printf("%s layout (points per node):\n", label)
	fmt.Printf("  top:    %5d | %5d\n", x*(app.NY-y), (app.NX-x)*(app.NY-y))
	fmt.Printf("  bottom: %5d | %5d\n", x*y, (app.NX-x)*y)
}
