package main

import (
	"context"
	"fmt"

	"harmony/internal/core"
	"harmony/internal/gs2"
	"harmony/internal/paper"
)

// runFidelity is the second extension experiment: Section VII of the
// paper observes that resolution parameters trade accuracy for speed
// and proposes folding quantified fidelity into the objective
// function "so the system can automate this tradeoff". Here the GS2
// resolution tuning runs three ways: time only, time plus a weighted
// fidelity-error term, and time under a hard fidelity floor.
func runFidelity(o options) error {
	base := gs2.DefaultConfig() // lxyes benchmarking run
	c := paper.Resolution(base)
	if o.quick {
		c.Options.MaxRuns = 20
	}
	timeObj := c.Objective
	fidObj := gs2.FidelityObjective()

	tune := func(obj core.Objective) (*core.Result, error) {
		c.Objective = obj
		return c.Tune(context.Background())
	}
	show := func(label string, res *core.Result) {
		negrid := int(res.BestConfig.Int("negrid"))
		ntheta := int(res.BestConfig.Int("ntheta"))
		cfg := base
		cfg.Negrid, cfg.Ntheta = negrid, ntheta
		secs, err := gs2.Run(gs2.LinuxCluster(int(res.BestConfig.Int("nodes"))), cfg)
		if err != nil {
			secs = -1
		}
		fmt.Printf("%-28s tuned (%2d,%2d,%2d): time %6.1f s, fidelity error %.2f\n",
			label, negrid, ntheta, res.BestConfig.Int("nodes"),
			secs, gs2.FidelityError(negrid, ntheta))
	}

	fmt.Printf("GS2 benchmarking run, %q layout; fidelity error 1.0 = default resolution (16,26)\n\n", base.Layout)

	resTime, err := tune(timeObj)
	if err != nil {
		return err
	}
	show("time only:", resTime)

	// Weighted composite: 1 fidelity-error unit costs as much as 25
	// seconds of execution time.
	composite, err := core.Composite(
		core.Metric{Name: "time", Weight: 1, Measure: timeObj},
		core.Metric{Name: "fidelity", Weight: 25, Measure: fidObj},
	)
	if err != nil {
		return err
	}
	resComposite, err := tune(composite)
	if err != nil {
		return err
	}
	show("time + 25x fidelity:", resComposite)

	// Hard floor: reject anything with more than 1.2x the default
	// resolution error.
	floored, err := core.Composite(
		core.Metric{Name: "time", Weight: 1, Measure: timeObj},
		core.Metric{Name: "fidelity", Weight: 1, Measure: core.FidelityFloor(1.2, fidObj)},
	)
	if err != nil {
		return err
	}
	resFloor, err := tune(floored)
	if err != nil {
		return err
	}
	show("time, fidelity <= 1.2:", resFloor)

	fmt.Println("\nthe time-only tuner coarsens the resolution to the developer's floor; weighting")
	fmt.Println("or bounding fidelity pulls the tuned configuration back toward the default grid,")
	fmt.Println("automating the accuracy/performance trade-off the paper leaves to experts.")
	return nil
}
