// PETSc matrix-decomposition tuning (the paper's Section IV, Fig. 2)
// at laptop scale: a linear system with unevenly dense rows is solved
// on four ranks, and Harmony moves the decomposition boundaries off
// the default even split to balance the load.
//
//	go run ./examples/petsc-decomposition
package main

import (
	"context"
	"fmt"
	"log"

	"harmony"
	"harmony/internal/cluster"
	"harmony/internal/petscsim"
	"harmony/internal/search"
	"harmony/internal/sparse"
)

func main() {
	app := petscsim.NewSLESApp(600, 4, 3, 60, 11)
	m := cluster.Seaborg(4, 1)

	defPart := app.DefaultPartition()
	defTime, err := app.Run(m, defPart)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("matrix %dx%d with %d nonzeros, 3 dense sub-blocks\n", app.A.N, app.A.N, app.A.NNZ())
	fmt.Printf("default even decomposition %v: %.4f s\n", defPart.Starts, defTime)
	printLoad(app, defPart)

	sp := app.Space()
	res, err := harmony.Tune(context.Background(), sp,
		search.NewSimplex(sp, search.SimplexOptions{Start: app.EvenPoint(), Adaptive: true, Restarts: 4}),
		app.Objective(m), harmony.Options{MaxRuns: 60})
	if err != nil {
		log.Fatal(err)
	}
	tuned := app.PartitionFor(res.BestConfig)
	fmt.Printf("\ntuned decomposition %v: %.4f s (%.1f%% better after %d runs)\n",
		tuned.Starts, res.BestValue, 100*(defTime-res.BestValue)/defTime, res.Runs)
	printLoad(app, tuned)
	fmt.Println("\nthe tuned boundaries spread the dense sub-blocks' work evenly, like the")
	fmt.Println("dashed boundaries of the paper's Fig. 2(b).")
}

func printLoad(app *petscsim.SLESApp, part sparse.Partition) {
	hp, err := app.HaloPlan(part)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print("  per-rank nonzeros: ")
	for r := 0; r < app.P; r++ {
		fmt.Printf("%8d", hp.LocalNNZ(r))
	}
	fmt.Printf("   (max %d)\n", hp.MaxLocalNNZ())
}
