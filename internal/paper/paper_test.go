package paper

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"harmony/internal/cluster"
	"harmony/internal/core"
	"harmony/internal/gs2"
	"harmony/internal/petscsim"
	"harmony/internal/pop"
	"harmony/internal/search"
	"harmony/internal/space"
)

// TestDefaultIsTheDirectRun pins Default to each application's own
// default run, bit for bit, on the problems cmd/repro and the root
// pins measure: the even partition, the even grid boundaries, the
// configured POP block and namelist, and GS2's base resolution on 32
// nodes.
func TestDefaultIsTheDirectRun(t *testing.T) {
	type tc struct {
		name   string
		c      Campaign
		direct func() (float64, error)
	}
	var cases []tc
	for _, app := range []*petscsim.SLESApp{
		petscsim.NewSLESApp(600, 4, 3, 60, 1),
		petscsim.NewSLESApp(600, 4, 3, 60, 11),
		petscsim.NewBandSLESApp(4000, 32, 4, 120, 2),
		petscsim.NewBandSLESApp(8000, 32, 4, 120, 2),
		petscsim.NewBandSLESApp(21025, 32, 4, 120, 2),
	} {
		cases = append(cases, tc{fmt.Sprintf("sles-%dx%d", app.A.N, app.P), SLES(app), func() (float64, error) {
			return app.Run(cluster.Seaborg(app.P, 1), app.DefaultPartition())
		}})
	}
	for _, k := range []struct {
		n int
		m *cluster.Machine
	}{{50, cluster.HomogeneousLab()}, {50, cluster.HeterogeneousLab()}, {40, cluster.HeterogeneousLab()}} {
		app := petscsim.NewCavityApp(k.n, k.n, 2, 2)
		cases = append(cases, tc{fmt.Sprintf("cavity-%d-%s", k.n, k.m.Name), Cavity(app, k.m), func() (float64, error) {
			xb, yb := app.DefaultBounds()
			return app.Run(k.m, xb, yb)
		}})
	}
	pinBlocks := pop.DefaultConfig(720, 480)
	pinBlocks.Steps, pinBlocks.BarotropicIters = 2, 4
	landBlocks := pop.DefaultConfig(720, 480)
	landBlocks.Land = true
	namelist := pop.DefaultConfig(720, 480)
	namelist.BX, namelist.BY = 90, 120
	namelist.Steps, namelist.BarotropicIters = 3, 8
	for _, k := range []struct {
		name string
		m    *cluster.Machine
		cfg  pop.Config
		c    func(*cluster.Machine, pop.Config) Campaign
	}{
		{"pop-blocks", cluster.Seaborg(8, 4), pinBlocks, Blocks},
		{"pop-blocks-land", cluster.Seaborg(4, 8), landBlocks, Blocks},
		{"pop-namelist", cluster.Hockney(8, 4), namelist, Namelist},
	} {
		cases = append(cases, tc{k.name, k.c(k.m, k.cfg), func() (float64, error) { return pop.Run(k.m, k.cfg) }})
	}
	for _, steps := range []int{10, 1000} {
		for _, layout := range []gs2.Layout{"lxyes", "yxles"} {
			base := gs2.DefaultConfig()
			base.Layout, base.Steps = layout, steps
			cases = append(cases, tc{fmt.Sprintf("gs2-%s-%d", layout, steps), Resolution(base), func() (float64, error) {
				return gs2.Run(gs2.LinuxCluster(32), base)
			}})
		}
	}

	for _, c := range cases {
		got, err := c.c.Default(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		want, err := c.direct()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: Default %x, direct default run %x", c.name, math.Float64bits(got), math.Float64bits(want))
		}
	}
}

// trialLog renders a Result's accounting and every trial's exact bits.
func trialLog(res *core.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "runs=%d proposals=%d best=%v %x cost=%x\n",
		res.Runs, res.Proposals, res.Best, math.Float64bits(res.BestValue), math.Float64bits(res.TuningCost))
	for _, tr := range res.Trials {
		fmt.Fprintf(&b, "%d %d %v %x %t %v\n", tr.Proposal, tr.Run, tr.Point, math.Float64bits(tr.Value), tr.Cached, tr.Err)
	}
	return b.String()
}

// TestCampaignRetunes tunes each constructor's campaign, and a PRO
// variant on 4 workers, twice: each Tune builds a fresh strategy, so
// the two trial logs are identical.
func TestCampaignRetunes(t *testing.T) {
	sles := SLES(petscsim.NewSLESApp(600, 4, 3, 60, 11))
	pro := sles
	pro.Strategy = func(sp *space.Space, _ space.Point) search.Strategy {
		return search.NewPRO(sp, search.PROOptions{Seed: 11})
	}
	pro.Options = core.Options{MaxRuns: 40, Workers: 4}
	cavity := Cavity(petscsim.NewCavityApp(20, 20, 2, 2), cluster.HeterogeneousLab())
	cavity.Options.MaxRuns = 10
	popCfg := pop.DefaultConfig(360, 240)
	popCfg.BX, popCfg.BY = 45, 60
	popCfg.Steps, popCfg.BarotropicIters = 2, 4
	for name, c := range map[string]Campaign{
		"sles":       sles,
		"sles-pro":   pro,
		"cavity":     cavity,
		"blocks":     Blocks(cluster.Seaborg(4, 4), popCfg),
		"namelist":   Namelist(cluster.Hockney(4, 4), popCfg),
		"resolution": Resolution(gs2.DefaultConfig()),
	} {
		first, err := c.Tune(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		second, err := c.Tune(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if a, b := trialLog(first), trialLog(second); a != b {
			t.Errorf("%s tuned twice diverged:\n first %s\nsecond %s", name, a, b)
		}
	}
}

// TestResolutionRidge pins the shape of Table III's landscape at the
// default lxyes layout and 10 steps: (n, 16, n) for n = 8, 12, 16, 28
// is one ridge of equal times (to 0.01 %) at least 50 % below the
// default, and the ridge's axis neighbours are each at least 1.4× its
// time. It evaluates only these points, not the lattice.
func TestResolutionRidge(t *testing.T) {
	c := Resolution(gs2.DefaultConfig())
	eval := func(negrid, ntheta, nodes int) float64 {
		cfg, err := c.Space.Decode(gs2.ResolutionStart(c.Space, negrid, ntheta, nodes))
		if err != nil {
			t.Fatal(err)
		}
		v, err := c.Objective(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	def, err := c.Default(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ridge := eval(8, 16, 8)
	for _, n := range []int{12, 16, 28} {
		if v := eval(n, 16, n); math.Abs(v-ridge) > 1e-4*ridge {
			t.Errorf("(%d,16,%d) = %v s, want the ridge's %v s", n, n, v, ridge)
		}
	}
	if ridge > def/2 {
		t.Errorf("ridge %v s is %.1f %% below the default %v s, want ≥ 50 %%", ridge, 100*(1-ridge/def), def)
	}
	for _, p := range [][3]int{{8, 16, 4}, {16, 16, 8}, {8, 16, 16}} {
		if v := eval(p[0], p[1], p[2]); v < 1.4*ridge {
			t.Errorf("neighbour %v = %v s is %.3f× the ridge, want ≥ 1.4×", p, v, v/ridge)
		}
	}
}
