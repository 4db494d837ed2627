// Command repro regenerates every table and figure of the paper's
// evaluation on the simulated substrate.
//
// Usage:
//
//	repro [flags] <experiment>
//
// Experiments: fig2, fig3, fig4, fig5, fig6, table1, table2, table3,
// table4, online, fidelity, parallel, all.
//
// Flags:
//
//	-quick      shrink problem sizes and budgets (seconds instead of
//	            minutes; used by tests)
//	-large      also run the large-problem variants of fig2/fig3
//	-seed N     random seed for seeded strategies
//	-workers N  worker pool size for the parallel experiment (at
//	            least 2: it compares 1 worker against N)
//	-cpuprofile f  write a CPU profile of the run to f
//	-memprofile f  write a final heap profile to f
//
// Absolute simulated seconds are not expected to match the paper's
// testbeds; the shapes (who wins, by what factor, where the optimum
// moves) are the reproduction target. EXPERIMENTS.md records both.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"harmony/internal/profile"
)

type options struct {
	quick   bool
	large   bool
	seed    int64
	workers int
}

var experiments = map[string]struct {
	run  func(o options) error
	desc string
}{
	"fig2":     {runFig2, "PETSc matrix-decomposition tuning (SLES)"},
	"fig3":     {runFig3, "PETSc computation-distribution tuning (SNES)"},
	"fig4":     {runFig4, "POP block-size tuning across topologies"},
	"table1":   {runTable1, "POP parameter changes through iterations"},
	"table2":   {runTable2, "POP parameters before/after tuning"},
	"fig5":     {runFig5, "GS2 layout tuning across environments"},
	"table3":   {runTable3, "GS2 benchmarking-run tuning"},
	"table4":   {runTable4, "GS2 production-run tuning"},
	"fig6":     {runFig6, "GS2 configuration-performance distribution"},
	"online":   {runOnline, "extension: on-line vs off-line tuning (the paper's future work)"},
	"fidelity": {runFidelity, "extension: fidelity-aware objectives (the paper's Section VII)"},
	"parallel": {runParallel, "extension: parallel tuning clients (PRO fan-out and speculative simplex)"},
}

var experimentOrder = []string{
	"fig2", "fig3", "fig4", "table1", "table2", "fig5", "table3", "table4", "fig6", "online", "fidelity", "parallel",
}

func main() {
	var o options
	flag.BoolVar(&o.quick, "quick", false, "shrink problem sizes and budgets")
	flag.BoolVar(&o.large, "large", false, "also run large-problem variants")
	flag.Int64Var(&o.seed, "seed", 1, "seed for randomised strategies")
	flag.IntVar(&o.workers, "workers", 4, "worker pool size for the parallel experiment")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a final heap profile to this file")
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() != 1 {
		usage()
		os.Exit(2)
	}
	stopProfiles, err := profile.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "repro: %v\n", err)
		os.Exit(1)
	}
	name := flag.Arg(0)
	runErr := func() error {
		if name == "all" {
			for _, n := range experimentOrder {
				if err := runOne(n, o); err != nil {
					return fmt.Errorf("%s: %w", n, err)
				}
			}
			return nil
		}
		if err := runOne(name, o); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	}()
	if err := stopProfiles(); err != nil {
		fmt.Fprintf(os.Stderr, "repro: %v\n", err)
	}
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "repro %v\n", runErr)
		os.Exit(1)
	}
}

func runOne(name string, o options) error {
	exp, ok := experiments[name]
	if !ok {
		return fmt.Errorf("unknown experiment %q (try: %s, all)", name, strings.Join(experimentOrder, ", "))
	}
	banner(fmt.Sprintf("%s — %s", name, exp.desc))
	start := time.Now()
	if err := exp.run(o); err != nil {
		return err
	}
	fmt.Printf("[%s completed in %.1fs wall time]\n\n", name, time.Since(start).Seconds())
	return nil
}

func usage() {
	fmt.Fprintf(os.Stderr, "usage: repro [-quick] [-large] [-seed N] [-workers N] [-cpuprofile f] [-memprofile f] <experiment>\n\nexperiments:\n")
	names := make([]string, 0, len(experiments))
	for n := range experiments {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-8s %s\n", n, experiments[n].desc)
	}
	fmt.Fprintf(os.Stderr, "  %-8s run everything in paper order\n", "all")
}

func banner(s string) {
	line := strings.Repeat("=", len(s)+4)
	fmt.Printf("%s\n| %s |\n%s\n", line, s, line)
}

func pct(base, tuned float64) float64 {
	if base <= 0 {
		return 0
	}
	return 100 * (base - tuned) / base
}
