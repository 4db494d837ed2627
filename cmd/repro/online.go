package main

import (
	"fmt"
	"net"
	"sort"
	"time"

	"harmony/internal/client"
	"harmony/internal/gs2"
	"harmony/internal/server"
	"harmony/internal/space"
)

// runOnline is the paper's stated future work (Section IX): compare
// on-line and off-line tuning of the same parameter. The parameter is
// the GS2 data layout, which the code can switch at runtime.
//
// Off-line: separate 10-step benchmarking runs per candidate layout
// (each pays initialisation), then one production run with the best.
//
// On-line: a single production run connected to a live Harmony
// server; every 10-step tuning interval fetches the layout to use
// next and reports the measured interval time; once the search
// converges, the rest of the run uses the best layout. Only one
// initialisation is paid, but the early intervals run with bad
// layouts.
func runOnline(o options) error {
	const (
		benchSteps = 10
		prodSteps  = 1000
	)
	m := gs2.LinuxCluster(32)
	layouts := gs2.Layouts()

	// Per-layout costs from the simulator: one benchmarking run
	// (initialisation + 10 steps) and the marginal per-step time.
	benchTime := make(map[gs2.Layout]float64, len(layouts))
	stepTime := make(map[gs2.Layout]float64, len(layouts))
	for _, l := range layouts {
		cfg := gs2.DefaultConfig()
		cfg.Layout = l
		cfg.Steps = benchSteps
		tb, err := gs2.Run(m, cfg)
		if err != nil {
			return err
		}
		cfg.Steps = 2 * benchSteps
		tb2, err := gs2.Run(m, cfg)
		if err != nil {
			return err
		}
		benchTime[l] = tb
		stepTime[l] = (tb2 - tb) / benchSteps
	}
	initTime := benchTime[layouts[0]] - float64(benchSteps)*stepTime[layouts[0]]

	// --- Off-line: one short run per layout, then production. ---
	offTuning := 0.0
	best := layouts[0]
	for _, l := range layouts {
		offTuning += benchTime[l]
		if benchTime[l] < benchTime[best] {
			best = l
		}
	}
	offProduction := initTime + float64(prodSteps)*stepTime[best]
	offTotal := offTuning + offProduction

	// --- On-line: one production run against a live server. ---
	// The server runs with the fault-tolerance knobs a production
	// deployment would use: idle sessions are leased and overdue
	// reports re-issued, so a crashed client cannot wedge tuning.
	srv := server.New()
	srv.Logf = func(string, ...any) {}
	srv.SessionTimeout = time.Minute
	srv.ReportTimeout = 30 * time.Second
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		<-errc
	}()
	c, err := client.Dial(ln.Addr().String())
	if err != nil {
		return err
	}
	defer c.Close()
	layoutNames := make([]string, len(layouts))
	for i, l := range layouts {
		layoutNames[i] = string(l)
	}
	sort.Strings(layoutNames)
	sess, err := c.Register(client.Registration{
		App:      "gs2-online",
		Space:    space.MustNew(space.EnumParam("layout", layoutNames...)),
		Strategy: "exhaustive",
	})
	if err != nil {
		return err
	}
	// A rogue straggler: a second client of the same session fetches
	// the first configuration, goes silent while tuning moves on, and
	// finally reports an absurdly good time for the configuration it
	// held. Tag matching must drop that report instead of crediting it
	// to whatever is in flight by then.
	rogueC, err := client.Dial(ln.Addr().String())
	if err != nil {
		return err
	}
	defer rogueC.Close()
	rogue := rogueC.Attach(sess.ID())
	if _, _, err := rogue.Fetch(); err != nil {
		return err
	}

	onTotal := initTime // one initialisation
	steps := 0
	intervals := 0
	for steps < prodSteps {
		values, converged, err := sess.Fetch()
		if err != nil {
			return err
		}
		l := gs2.Layout(values["layout"])
		if converged {
			onTotal += float64(prodSteps-steps) * stepTime[l]
			break
		}
		interval := benchSteps
		if steps+interval > prodSteps {
			interval = prodSteps - steps
		}
		cost := float64(interval) * stepTime[l]
		onTotal += cost
		steps += interval
		intervals++
		if err := sess.Report(cost); err != nil {
			return err
		}
		if intervals == 2 {
			// The search has moved past the rogue's configuration:
			// its straggling report is now stale and must be dropped.
			if err := rogue.Report(1e-9); err != nil {
				return err
			}
		}
	}
	onBest, _, err := sess.Best()
	if err != nil {
		return err
	}
	stats := srv.Stats()

	fmt.Printf("tunable: GS2 data layout (%d candidates), default %s\n", len(layouts), gs2.DefaultLayout)
	fmt.Printf("production run: %d steps; tuning interval: %d steps\n\n", prodSteps, benchSteps)
	fmt.Printf("off-line (representative short runs):\n")
	fmt.Printf("  tuning: %d benchmarking runs, %.1f s; best layout %s\n", len(layouts), offTuning, best)
	fmt.Printf("  tuned production run: %.1f s\n", offProduction)
	fmt.Printf("  total: %.1f s\n\n", offTotal)
	fmt.Printf("on-line (tuned during the production run):\n")
	fmt.Printf("  %d tuning intervals inside the run; best layout %s\n", intervals, onBest["layout"])
	fmt.Printf("  total: %.1f s (no separate tuning runs, one initialisation)\n\n", onTotal)
	untuned := initTime + float64(prodSteps)*stepTime[gs2.DefaultLayout]
	fmt.Printf("untuned production run with the %s default: %.1f s\n", gs2.DefaultLayout, untuned)
	fmt.Printf("on-line vs off-line total: %.1f s vs %.1f s\n\n", onTotal, offTotal)
	fmt.Printf("fault tolerance: a rogue client reported 1e-9 s for a retired configuration\n")
	fmt.Printf("  server counters: %d fetches, %d reports accepted, %d stale reports dropped\n",
		stats.Fetches, stats.ReportsAccepted, stats.ReportsDroppedStale)
	if stats.ReportsDroppedStale == 0 {
		return fmt.Errorf("online: the rogue straggler's report was not dropped")
	}
	return nil
}
