// Package paper defines each of the paper's tuning campaigns once
// (§IV–VI): the parameter space an experiment tunes, the
// application's default configuration it starts from, how a
// configuration is measured, and the tuner setting and budget
// cmd/repro runs. Problem sizes, machines and layouts are arguments;
// a caller that runs a variant states only what it changes.
package paper

import (
	"context"

	"harmony/internal/cluster"
	"harmony/internal/core"
	"harmony/internal/gs2"
	"harmony/internal/petscsim"
	"harmony/internal/pop"
	"harmony/internal/search"
	"harmony/internal/space"
)

// Campaign is one tuning experiment.
type Campaign struct {
	Space *space.Space
	// Start is the application's default configuration.
	Start     space.Point
	Objective core.Objective
	// Strategy builds the search over Space from Start. Each Tune
	// calls it, so a Campaign tuned twice searches afresh each time,
	// and a variant that replaces it builds nothing it discards.
	Strategy func(sp *space.Space, start space.Point) search.Strategy
	// Options is the budget and the engine setting.
	Options core.Options
}

// Tune runs the campaign.
func (c Campaign) Tune(ctx context.Context) (*core.Result, error) {
	return core.Tune(ctx, c.Space, c.Strategy(c.Space, c.Start), c.Objective, c.Options)
}

// Default measures the application's default configuration: the
// objective at Start.
func (c Campaign) Default(ctx context.Context) (float64, error) {
	cfg, err := c.Space.Decode(c.Start)
	if err != nil {
		return 0, err
	}
	return c.Objective(ctx, cfg)
}

// Simplex is the Nelder–Mead setting o started from the campaign's
// Start.
func Simplex(o search.SimplexOptions) func(*space.Space, space.Point) search.Strategy {
	return func(sp *space.Space, start space.Point) search.Strategy {
		o := o
		o.Start = start
		return search.NewSimplex(sp, o)
	}
}

// SLES is Fig. 2's matrix-decomposition campaign: app's partition
// weights on app.P Seaborg ranks, from the even split, by an adaptive
// simplex with 4 restarts over 60 runs.
func SLES(app *petscsim.SLESApp) Campaign {
	return Campaign{
		Space:     app.Space(),
		Start:     app.EvenPoint(),
		Objective: app.Objective(cluster.Seaborg(app.P, 1)),
		Strategy:  Simplex(search.SimplexOptions{Adaptive: true, Restarts: 4}),
		Options:   core.Options{MaxRuns: 60},
	}
}

// Cavity is Fig. 3's computation-distribution campaign: app's grid
// boundaries on m, from the even split, by a simplex with a 0.35 step
// and 8 restarts (adaptive from 8 dimensions up) over 60 runs.
func Cavity(app *petscsim.CavityApp, m *cluster.Machine) Campaign {
	sp := app.Space()
	return Campaign{
		Space:     sp,
		Start:     app.EvenPoint(),
		Objective: app.Objective(m),
		Strategy:  Simplex(search.SimplexOptions{StepFraction: 0.35, Adaptive: sp.Dims() >= 8, Restarts: 8}),
		Options:   core.Options{MaxRuns: 60},
	}
}

// Blocks is Fig. 4's block-size campaign: POP's (bx, by) on m, from
// cfg's block, by a simplex with a 0.4 step and 6 restarts over 60
// runs.
func Blocks(m *cluster.Machine, cfg pop.Config) Campaign {
	return Campaign{
		Space:     pop.BlockSpace(),
		Start:     pop.BlockStart(cfg.BX, cfg.BY),
		Objective: pop.BlockObjective(m, cfg),
		Strategy:  Simplex(search.SimplexOptions{StepFraction: 0.4, Restarts: 6}),
		Options:   core.Options{MaxRuns: 60},
	}
}

// Namelist is Tables I–II's parameter campaign: POP's namelist on m
// with cfg's block, from the default namelist, by coordinate descent
// until it stops.
func Namelist(m *cluster.Machine, cfg pop.Config) Campaign {
	return Campaign{
		Space:     pop.NamelistSpace(),
		Start:     pop.NamelistStart(),
		Objective: pop.NamelistObjective(m, cfg),
		Strategy: func(sp *space.Space, start space.Point) search.Strategy {
			return search.NewCoordinate(sp, search.CoordinateOptions{Start: start})
		},
	}
}

// Resolution is the GS2 campaign of Tables III–IV, Fig. 6 and the
// fidelity extension: (negrid, ntheta, nodes) on the Myrinet Linux
// cluster, from base's resolution on 32 nodes, by a simplex with a 0.5
// step and 12 restarts over 35 runs.
func Resolution(base gs2.Config) Campaign {
	sp := gs2.ResolutionSpace(64)
	return Campaign{
		Space:     sp,
		Start:     gs2.ResolutionStart(sp, base.Negrid, base.Ntheta, 32),
		Objective: gs2.ResolutionObjective(gs2.LinuxCluster, base),
		Strategy:  Simplex(search.SimplexOptions{StepFraction: 0.5, Restarts: 12}),
		Options:   core.Options{MaxRuns: 35},
	}
}
