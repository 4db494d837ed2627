// Command bench is the repository's benchmark: whole tuning campaigns
// through core.Tune and whole on-line sessions against an in-process
// harmonyd, six named workloads, every metric printed by name with its
// unit, results checked by oracles that are independent of the code
// under test. BENCHMARK.json at the repository root declares the same
// workloads and metrics for the driver; README.md in this directory
// explains them.
//
// The driver's form measures one workload and prints one JSON object
// as the last line of standard output:
//
//	bench -workload <name> -seed <n> -seconds <s> -trace <0|1>
//
// -trace 0 prints the end-to-end metrics, from repetitions whose only
// instrumentation is two clock reads around an op. -trace 1 repeats
// the repetition with timing decorators around every call into a
// layer, writes the spans to bench/out/trace-<workload>.jsonl and
// prints the per-layer metrics.
//
// Without -workload every workload runs, repetitions interleaved
// round-robin, and a table is printed (-json: one row per workload).
// -selfcheck N runs every workload 2 × N times in child processes, N
// seeds, and fails when a metric does not repeat within its bound.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "measure this workload only and print the driver's result line")
		seed         = flag.Int64("seed", 11, "seed every campaign and session seed is derived from")
		seconds      = flag.Float64("seconds", 10, "how long the timed repetitions of each workload run")
		trace        = flag.Int("trace", 0, "1: traced pass, per-layer metrics; 0: end-to-end metrics")
		asJSON       = flag.Bool("json", false, "without -workload: print one JSON row per workload")
		quick        = flag.Bool("quick", false, "tiny sizes, for smoke tests; the numbers mean nothing")
		selfcheck    = flag.Int("selfcheck", 0, "run every workload twice for each of this many seeds and compare against the bounds")
		outDir       = flag.String("out", filepath.Join("bench", "out"), "directory for trace files")
	)
	flag.Parse()
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}

	// All load comes from this one process: at most W driver goroutines,
	// connections and engine workers, and no more running threads.
	workers := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(workers)

	cfg := config{
		env:     env{seed: *seed, workers: workers, sz: fullSizes(), outDir: *outDir},
		seconds: *seconds,
	}
	if *quick {
		cfg.sz = quickSizes()
	}

	var err error
	ok := true
	switch {
	case *selfcheck > 0:
		ok, err = runSelfcheck(os.Stdout, cfg, *selfcheck)
	case *workloadName != "":
		ok, err = runOne(os.Stdout, *workloadName, cfg, *trace == 1)
	default:
		ok, err = runAll(os.Stdout, cfg, *trace == 1, *asJSON)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

// runOne is the driver's form: one workload, one pass, one result line.
func runOne(out *os.File, name string, cfg config, traced bool) (bool, error) {
	printHeader(out, cfg, false)
	var m *measurement
	defs, table := endToEnd, untracedTable()
	if traced {
		lm, err := measureTraced(name, cfg)
		if err != nil {
			return false, err
		}
		m, defs, table = lm, perLayer, perLayer
	} else {
		ms, err := measureUntraced([]string{name}, cfg)
		if err != nil {
			return false, err
		}
		m = ms[0]
	}
	for _, d := range defs {
		if v := m.values[d.Name]; math.IsNaN(v) || math.IsInf(v, 0) {
			m.errs = append(m.errs, fmt.Errorf("%s: %s is %v", name, d.Name, v))
			m.values[d.Name] = 0
		}
	}
	printTable(out, m, table)
	fmt.Fprintln(out, resultLine(m, defs))
	return m.correct(), nil
}

// runAll measures every workload in one process.
func runAll(out *os.File, cfg config, traced, asJSON bool) (bool, error) {
	if !asJSON {
		printHeader(out, cfg, true)
	}
	var names []string
	for _, def := range workloadDefs {
		names = append(names, def.Name)
	}
	ms, err := measureUntraced(names, cfg)
	if err != nil {
		return false, err
	}
	ok := true
	for _, m := range ms {
		defs := untracedTable()
		if traced {
			// The traced pass has a set-up of its own: it follows the
			// untraced pass instead of sharing a server or caches with it.
			lm, err := measureTraced(m.workload, cfg)
			if err != nil {
				return false, err
			}
			for k, v := range lm.values {
				m.values[k] = v
			}
			m.errs = append(m.errs, lm.errs...)
			defs = append(append([]metricDef(nil), endToEnd...), perLayer...)
		}
		ok = ok && m.correct()
		if asJSON {
			fmt.Fprintln(out, jsonRow(m, defs))
		} else {
			printTable(out, m, defs)
		}
	}
	return ok, nil
}

// untracedTable is what the untraced pass shows: the end-to-end
// metrics and the demoted ones it measures beside them, which the result
// line leaves to the traced pass.
func untracedTable() []metricDef {
	return append(append([]metricDef(nil), endToEnd...), demoted...)
}

// printHeader records what the numbers were measured on, so that a
// later reader can tell a regression from a different host.
func printHeader(out *os.File, cfg config, full bool) {
	fmt.Fprintf(out, "bench: go=%s os/arch=%s/%s nproc=%d GOMAXPROCS=%d W=%d seed=%d seconds=%g commit=%s\n",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0),
		cfg.workers, cfg.seed, cfg.seconds, commit())
	if full {
		// The driver's form reads nothing outside its checkout.
		fmt.Fprintf(out, "bench: cpu=%q\n", cpuModel())
	}
}

// commit reads the checked-out commit from .git, when there is one.
func commit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if !strings.HasPrefix(ref, "ref: ") {
		return ref
	}
	hash, err := os.ReadFile(filepath.Join(".git", strings.TrimPrefix(ref, "ref: ")))
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(hash))
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "model name") {
			if _, v, ok := strings.Cut(line, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return "unknown"
}

func printTable(out *os.File, m *measurement, defs []metricDef) {
	fmt.Fprintf(out, "\n%s: GOMAXPROCS %d, %d repetitions, %d set-ups", m.workload, m.procs, m.reps, m.setups)
	if m.opsPerRep > 0 {
		fmt.Fprintf(out, ", %d ops per repetition, e2e.op_tail_ms is p%g", m.opsPerRep, m.tailP)
	}
	fmt.Fprintln(out)
	for _, d := range defs {
		v, ok := m.values[d.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(out, "  %-28s %14.6g %-10s", d.Name, v, d.Unit)
		xs := m.series[d.Name]
		if len(xs) > 0 {
			fmt.Fprintf(out, " [repetitions: median %.6g, q1 %.6g, q3 %.6g]", median(xs), quantile(xs, 0.25), quantile(xs, 0.75))
		}
		fmt.Fprintln(out)
		if len(xs) > 0 {
			fmt.Fprintf(out, "  %-28s %s\n", "  per repetition", compact(xs))
		}
	}
	for _, err := range m.errs {
		fmt.Fprintf(out, "  ORACLE FAILED: %v\n", err)
	}
}

// resultLine is the driver's contract: correct, attempted, failed and
// every declared metric with its value as measured and its unit.
func resultLine(m *measurement, defs []metricDef) string {
	var b strings.Builder
	fmt.Fprintf(&b, `{"correct": %t, "attempted": %d, "failed": %d, "metrics": {`, m.correct(), max(m.attempted, 1), m.failed)
	for i, d := range defs {
		if i > 0 {
			b.WriteString(", ")
		}
		value, _ := json.Marshal(m.values[d.Name])
		fmt.Fprintf(&b, `%q: {"value": %s, "unit": %q}`, d.Name, value, d.Unit)
	}
	b.WriteString("}}")
	return b.String()
}

// jsonRow is one workload as a machine-readable row: the bookkeeping,
// then every metric in declared order, the same keys on every row.
func jsonRow(m *measurement, defs []metricDef) string {
	var b strings.Builder
	fmt.Fprintf(&b, `{"workload": %q, "correct": %t, "gomaxprocs": %d, "reps": %d, "ops_per_rep": %d, "tail_percentile": %g`,
		m.workload, m.correct(), m.procs, m.reps, m.opsPerRep, m.tailP)
	for _, d := range defs {
		value, _ := json.Marshal(m.values[d.Name])
		fmt.Fprintf(&b, `, %q: %s`, d.Name, value)
		if xs := m.series[d.Name]; len(xs) > 0 {
			q1, _ := json.Marshal(quantile(xs, 0.25))
			q3, _ := json.Marshal(quantile(xs, 0.75))
			fmt.Fprintf(&b, `, %q: [%s, %s]`, d.Name+".quartiles", q1, q3)
		}
	}
	b.WriteString("}")
	return b.String()
}
