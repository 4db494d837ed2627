// Benchmarks regenerating the paper's experiments at reduced scale
// (the full-scale regeneration is cmd/repro), then component
// micro-benchmarks. BenchmarkPaperCampaigns runs the campaigns of
// internal/paper, Fig5GS2Layout the layout comparison and
// Fig6GS2Distribution the sampling pass: one iteration is one
// complete campaign or pass, so ns/op measures the cost of
// reproducing the experiment, and the custom metrics carry its
// headline result.
package harmony_test

import (
	"context"
	"fmt"
	"maps"
	"net"
	"slices"
	"testing"

	"harmony"
	"harmony/internal/cluster"
	"harmony/internal/core"
	"harmony/internal/gs2"
	"harmony/internal/paper"
	"harmony/internal/petscsim"
	"harmony/internal/pop"
	"harmony/internal/search"
	"harmony/internal/simmpi"
	"harmony/internal/space"
	"harmony/internal/sparse"
	"harmony/internal/trace"
)

// BenchmarkPaperCampaigns runs each campaign that
// campaign_regress_test.go pins, under the pin's name, plus Table I's
// namelist sweep and Table IV's production-run tuning. The
// %improvement metric is the tuned time against the campaign's
// Default.
func BenchmarkPaperCampaigns(b *testing.B) {
	builds := campaigns()
	builds["table1-pop-namelist"] = func() paper.Campaign {
		cfg := pop.DefaultConfig(360, 240)
		cfg.BX, cfg.BY = 45, 60
		cfg.Steps, cfg.BarotropicIters = 2, 4
		return paper.Namelist(cluster.Hockney(4, 4), cfg)
	}
	builds["table4-gs2-production"] = func() paper.Campaign {
		base := gs2.DefaultConfig()
		base.Steps = 1000
		return paper.Resolution(base)
	}
	for _, name := range slices.Sorted(maps.Keys(builds)) {
		b.Run(name, func(b *testing.B) {
			c := builds[name]()
			def, err := c.Default(context.Background())
			if err != nil {
				b.Fatal(err)
			}
			var tuned float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := c.Tune(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				tuned = res.BestValue
			}
			b.ReportMetric(100*(def-tuned)/def, "%improvement")
		})
	}
}

// BenchmarkSLESRun is the sparse/petscsim layer's per-evaluation
// micro-benchmark: one objective evaluation of the Fig. 2 large case —
// app.Run on the even 16-way partition of the 6000-row band matrix.
// Every run plans the partition from the band's reaches,
// O(P·maxReach), into a pooled plan, then does the cost-only CG run.
// The whole tuning campaign this is one step of is the bench workload
// sles-seq.
func BenchmarkSLESRun(b *testing.B) {
	app := petscsim.NewBandSLESApp(6000, 16, 4, 120, 2)
	m := cluster.Seaborg(16, 1)
	part := app.DefaultPartition()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := app.Run(m, part); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5GS2Layout measures the layout comparison of Fig. 5 on
// one environment.
func BenchmarkFig5GS2Layout(b *testing.B) {
	m := cluster.Seaborg(8, 16)
	var lx, yx float64
	for i := 0; i < b.N; i++ {
		for _, l := range []gs2.Layout{"lxyes", "yxles"} {
			cfg := gs2.DefaultConfig()
			cfg.Layout = l
			secs, err := gs2.Run(m, cfg)
			if err != nil {
				b.Fatal(err)
			}
			if l == "lxyes" {
				lx = secs
			} else {
				yx = secs
			}
		}
	}
	if yx > 0 {
		b.ReportMetric(lx/yx, "layout-speedup")
	}
}

// BenchmarkFig6GS2Distribution samples the GS2 configuration space
// systematically, as in Fig. 6.
func BenchmarkFig6GS2Distribution(b *testing.B) {
	base := gs2.DefaultConfig()
	base.Steps = 1000
	var frac float64
	for i := 0; i < b.N; i++ {
		sp := gs2.ResolutionSpace(32)
		sys := search.NewSystematic(sp, 100)
		_, err := core.Tune(context.Background(), sp, sys,
			gs2.ResolutionObjective(gs2.LinuxCluster, base), core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		sum := trace.Summarize(sys.Values)
		frac = trace.FractionBelow(sys.Values, sum.Min*1.6)
	}
	b.ReportMetric(100*frac, "%within-1.6x-of-best")
}

// --- Component micro-benchmarks ---

// BenchmarkSimplexProposals measures the raw proposal rate of the
// tuning kernel on a cheap objective.
func BenchmarkSimplexProposals(b *testing.B) {
	sp := space.MustNew(
		space.IntParam("x", 0, 1000, 1),
		space.IntParam("y", 0, 1000, 1),
		space.IntParam("z", 0, 1000, 1),
	)
	s := search.NewSimplex(sp, search.SimplexOptions{Restarts: 1 << 30})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pt, ok := s.Next()
		if !ok {
			b.Fatal("simplex stopped despite unlimited restarts")
		}
		d0 := float64(pt[0] - 700)
		d1 := float64(pt[1] - 123)
		d2 := float64(pt[2] - 400)
		s.Report(pt, d0*d0+d1*d1+d2*d2)
	}
}

// BenchmarkSimMPIPingPong measures one message round trip between two
// ranks: the tightest Send/Recv dependency chain, where every receive
// forces a scheduler handoff. The payload is handed back and forth
// with SendOwned, so the steady state allocates nothing.
func BenchmarkSimMPIPingPong(b *testing.B) {
	m := cluster.Seaborg(1, 2)
	b.ReportAllocs()
	b.ResetTimer()
	_, err := simmpi.Run(m, 2, func(r *simmpi.Rank) {
		buf := []float64{1}
		for i := 0; i < b.N; i++ {
			if r.ID() == 0 {
				r.SendOwned(1, 0, buf)
				buf = r.Recv(1, 1)
			} else {
				buf = r.Recv(0, 0)
				r.SendOwned(0, 1, buf)
			}
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSimMPIContextSwitch passes a token around a ring: a deep
// Send/Recv chain where every rank blocks on its predecessor, so one
// lap costs about one scheduler handoff per rank. The per-op number
// is the raw cost of parking one rank and resuming the next.
func BenchmarkSimMPIContextSwitch(b *testing.B) {
	for _, n := range []int{32, 128, 480} {
		b.Run(fmt.Sprintf("ranks=%d", n), func(b *testing.B) {
			m := cluster.Seaborg((n+15)/16, 16)
			b.ReportAllocs()
			b.ResetTimer()
			_, err := simmpi.Run(m, n, func(r *simmpi.Rank) {
				next := (r.ID() + 1) % r.Size()
				prev := (r.ID() + r.Size() - 1) % r.Size()
				for i := 0; i < b.N; i++ {
					if r.ID() == 0 {
						r.SendBytes(next, 0, 8)
						r.Recv(prev, 0)
					} else {
						r.Recv(prev, 0)
						r.SendBytes(next, 0, 8)
					}
				}
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkSimMPIRunOverhead measures a whole Run of a trivial
// program on a pooled steady-state world: one resume and one yield
// per parked rank coroutine, and stats assembly — the fixed cost every
// evaluation pays before any simulated work happens.
func BenchmarkSimMPIRunOverhead(b *testing.B) {
	m := cluster.Seaborg(8, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := simmpi.Run(m, 32, func(r *simmpi.Rank) {}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimMPIAllreduce measures the virtual-time allreduce.
func BenchmarkSimMPIAllreduce(b *testing.B) {
	m := cluster.Seaborg(4, 8)
	b.ResetTimer()
	_, err := simmpi.Run(m, 32, func(r *simmpi.Rank) {
		for i := 0; i < b.N; i++ {
			r.Allreduce1(simmpi.Sum, float64(r.ID()))
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkDistMatVec measures one distributed sparse matrix-vector
// product, simulation costs included.
func BenchmarkDistMatVec(b *testing.B) {
	a := sparse.Poisson2D(100, 100)
	part := sparse.EvenPartition(a.N, 8)
	dm, err := sparse.NewDistMatrix(a, part)
	if err != nil {
		b.Fatal(err)
	}
	x := make([]float64, a.N)
	for i := range x {
		x[i] = float64(i % 17)
	}
	m := cluster.Seaborg(8, 1)
	b.ResetTimer()
	_, err = simmpi.Run(m, 8, func(r *simmpi.Rank) {
		xl := dm.Scatter(r.ID(), x)
		for i := 0; i < b.N; i++ {
			dm.MatVec(r, 7, xl)
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkOnlineProtocol measures a fetch/report round trip through
// the TCP server.
func BenchmarkOnlineProtocol(b *testing.B) {
	srv := harmony.NewServer()
	srv.Logf = func(string, ...any) {}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	c, err := harmony.Dial(ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	sess, err := c.Register(harmony.Registration{
		App:   "bench",
		Space: harmony.MustNewSpace(harmony.IntParam("x", 0, 1000, 1)),
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		values, converged, err := sess.Fetch()
		if err != nil {
			b.Fatal(err)
		}
		if converged {
			continue
		}
		_ = values
		if err := sess.Report(float64(i % 100)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPROProposals measures the raw proposal rate of the PRO
// population search.
func BenchmarkPROProposals(b *testing.B) {
	sp := space.MustNew(
		space.IntParam("x", 0, 1000, 1),
		space.IntParam("y", 0, 1000, 1),
		space.IntParam("z", 0, 1000, 1),
	)
	s := search.NewPRO(sp, search.PROOptions{Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pt, ok := s.Next()
		if !ok {
			b.StopTimer()
			s = search.NewPRO(sp, search.PROOptions{Seed: int64(i)})
			b.StartTimer()
			continue
		}
		d0 := float64(pt[0] - 700)
		d1 := float64(pt[1] - 123)
		d2 := float64(pt[2] - 400)
		s.Report(pt, d0*d0+d1*d1+d2*d2)
	}
}

// BenchmarkDistMatVecWorkspace is BenchmarkDistMatVec through a held
// workspace: steady-state operator application as the solvers drive
// it. The allocation report is the tentpole's headline — 0 allocs/op
// once the workspace and the world's payload free lists are warm.
func BenchmarkDistMatVecWorkspace(b *testing.B) {
	a := sparse.Poisson2D(100, 100)
	part := sparse.EvenPartition(a.N, 8)
	dm, err := sparse.NewDistMatrix(a, part)
	if err != nil {
		b.Fatal(err)
	}
	x := make([]float64, a.N)
	for i := range x {
		x[i] = float64(i % 17)
	}
	m := cluster.Seaborg(8, 1)
	b.ReportAllocs()
	b.ResetTimer()
	_, err = simmpi.Run(m, 8, func(r *simmpi.Rank) {
		ws := dm.AcquireWorkspace(r.ID())
		defer dm.ReleaseWorkspace(r.ID(), ws)
		xl := dm.Scatter(r.ID(), x)
		for i := 0; i < b.N; i++ {
			dm.MatVecInto(ws, r, 7, xl)
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}
