// Command htune is the generic off-line tuning driver: the
// "representative short runs" mode this paper added to Active
// Harmony. Given a JSON specification of the tunable parameters and a
// command template, htune runs the command once per tuning iteration
// with the parameter values substituted, measures its performance,
// and searches for the best configuration — no modification of the
// tuned program required.
//
// Usage:
//
//	htune [-history file] [-cache file] [-workers N] [-async] [-async-depth N]
//	      [-run-timeout d] [-metrics] [-v] spec.json
//
// Specification format:
//
//	{
//	  "app": "myapp",
//	  "machine": "cluster-a",
//	  "strategy": "simplex",            // simplex|pro|coordinate|random|systematic|exhaustive|ensemble
//	  "max_runs": 40,
//	  "seed": 1,                        // seed of the randomised strategies
//	  "metric": "time",                 // "time" (wall clock) or "stdout" (last number printed)
//	  "params": [
//	    {"name": "threads", "kind": "int", "min": 1, "max": 64, "step": 1},
//	    {"name": "alg", "kind": "enum", "values": ["heap", "quick"]}
//	  ],
//	  "command": ["./run.sh", "--threads={threads}", "--alg={alg}"]
//	}
//
// The spec describes the program and its parameters; how the tuning
// runs is given by flags. A field the format above does not define is
// an error.
//
// Every occurrence of {name} in the command arguments is replaced by
// the parameter's value. In addition the environment of the child
// process receives HT_<NAME>=<value> for every parameter, so scripts
// can read parameters without argument plumbing.
//
// With -history, prior tuning results for the same app are used to
// seed the search, and the outcome of this session is appended.
//
// -run-timeout bounds each benchmarking run: a configuration that
// hangs the program (a pathological layout, a livelocked solver) is
// killed at the deadline and counted as a failed run instead of
// wedging the whole tuning session. -workers N launches up to N
// benchmarking runs of distinct configurations at once (the command
// must tolerate concurrent invocations), and -async lets pipelined
// strategies issue up to -async-depth configurations ahead of their
// results instead of draining each round. -metrics appends a
// machine-readable "htune.<name> <value>" summary to stdout for
// scripts and dashboards.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"time"

	"flag"

	"harmony/internal/core"
	"harmony/internal/history"
	"harmony/internal/profile"
	"harmony/internal/proto"
	"harmony/internal/search"
	"harmony/internal/space"
)

// Spec is the htune input file.
type Spec struct {
	App      string            `json:"app"`
	Machine  string            `json:"machine"`
	Strategy string            `json:"strategy"`
	MaxRuns  int               `json:"max_runs"`
	Metric   string            `json:"metric"`
	Seed     int64             `json:"seed"`
	Params   []proto.ParamSpec `json:"params"`
	Command  []string          `json:"command"`
}

// cliOptions collects the command-line knobs passed down to run.
type cliOptions struct {
	historyPath string
	cachePath   string
	cacheNS     string
	workers     int
	async       bool
	asyncDepth  int
	runTimeout  time.Duration
	metrics     bool
	verbose     bool
}

func main() {
	var opts cliOptions
	var cpuprofile, memprofile string
	flag.StringVar(&opts.historyPath, "history", "", "tuning-history file for seeding and recording")
	flag.StringVar(&opts.cachePath, "cache", "", "persistent evaluation-cache file: repeated configurations are answered from prior sessions instead of re-run")
	flag.StringVar(&opts.cacheNS, "cache-ns", "", "evaluation-cache namespace: campaigns in different namespaces never share measurements (empty = shared)")
	flag.IntVar(&opts.workers, "workers", 0, "evaluations in flight: benchmarking runs launched concurrently; the command must tolerate concurrent invocations (0/1 = one at a time)")
	flag.BoolVar(&opts.async, "async", false, "bound the window at -async-depth and let pipelined strategies issue ahead, instead of draining each round before the next")
	flag.IntVar(&opts.asyncDepth, "async-depth", 0, "window bound under -async: issued configurations awaiting their result (0 = default)")
	flag.DurationVar(&opts.runTimeout, "run-timeout", 0, "kill a benchmarking run exceeding this and count it failed (0 = no limit)")
	flag.BoolVar(&opts.metrics, "metrics", false, "append a machine-readable htune.<name> <value> summary")
	flag.BoolVar(&opts.verbose, "v", false, "log each run")
	flag.StringVar(&cpuprofile, "cpuprofile", "", "write a CPU profile of the tuning session to this file")
	flag.StringVar(&memprofile, "memprofile", "", "write a heap profile taken at session end to this file")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: htune [-history file] [-cache file] [-cache-ns name] [-workers N] [-async] [-async-depth N] [-run-timeout d] [-metrics] [-cpuprofile file] [-memprofile file] [-v] spec.json")
		os.Exit(2)
	}
	stopProfiles, err := profile.Start(cpuprofile, memprofile)
	if err != nil {
		log.Fatalf("htune: %v", err)
	}
	runErr := run(flag.Arg(0), opts)
	if err := stopProfiles(); err != nil {
		log.Printf("htune: %v", err)
	}
	if runErr != nil {
		log.Fatalf("htune: %v", runErr)
	}
}

func run(specPath string, cli cliOptions) error {
	historyPath := cli.historyPath
	data, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	// A field the spec does not define is an error, not ignored: a
	// spec that still sets "workers" would otherwise silently run one
	// evaluation at a time.
	var spec Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return fmt.Errorf("parsing %s: %w", specPath, err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("parsing %s: data after the spec", specPath)
	}
	if len(spec.Command) == 0 {
		return fmt.Errorf("spec has no command")
	}
	sp, err := proto.DecodeSpace(spec.Params)
	if err != nil {
		return err
	}
	if spec.MaxRuns == 0 {
		spec.MaxRuns = 40
	}

	var store *history.Store
	var seeds []space.Point
	if historyPath != "" {
		store, err = history.Open(historyPath)
		if err != nil {
			return err
		}
		seeds = store.SeedsFor(spec.App, spec.Machine, sp, sp.Dims())
		if len(seeds) > 0 {
			fmt.Printf("htune: seeding search with %d prior configurations\n", len(seeds))
		}
	}

	strat, err := search.New(spec.Strategy, sp, spec.Seed, spec.MaxRuns, seeds)
	if err != nil {
		return err
	}
	opt := core.Options{
		MaxRuns: spec.MaxRuns, Workers: cli.workers,
		Async: cli.async, AsyncDepth: cli.asyncDepth,
	}
	var evalCache *history.EvalCache
	if cli.cachePath != "" {
		evalCache, err = history.OpenEvalCache(cli.cachePath)
		if err != nil {
			return err
		}
		if n := evalCache.Len(); n > 0 {
			fmt.Printf("htune: evaluation cache holds %d prior measurements\n", n)
		}
		opt.Cache = evalCache.BoundNS(spec.App, spec.Machine, cli.cacheNS, sp)
	}
	if cli.verbose {
		opt.Logf = func(format string, args ...any) {
			fmt.Printf(format+"\n", args...)
		}
	}
	res, err := core.Tune(context.Background(), sp, strat, objective(spec, cli.runTimeout), opt)
	if err != nil {
		return err
	}

	if res.Best == nil {
		return fmt.Errorf("all %d runs failed; nothing to tune", res.Runs)
	}
	fmt.Printf("htune: best configuration after %d runs (%d failures):\n", res.Runs, res.Failures)
	fmt.Printf("  %s\n", res.BestConfig.Format())
	fmt.Printf("  objective %.6g (first run %.6g, improvement %.1f%%, speedup %.2fx)\n",
		res.BestValue, res.FirstValue, 100*res.Improvement(), res.Speedup())
	fmt.Printf("  total tuning cost: %.1f s of application time\n", res.TuningCost)
	if res.SpeculativeRuns > 0 {
		fmt.Printf("  speculative runs: %d launched ahead of need, %d used\n", res.SpeculativeRuns, res.SpeculativeHits)
	}
	if cli.workers > 1 {
		fmt.Printf("  window: worker occupancy %.0f%%, %d starved refills, %d idle slots\n",
			100*res.WorkerOccupancy, res.QueueStarved, res.IdleSlots)
	}
	if evalCache != nil {
		fmt.Printf("  evaluation cache: %d hits, %d misses (%d entries)\n", res.CacheHits, res.CacheMisses, evalCache.Len())
		if err := evalCache.Save(); err != nil {
			return err
		}
	}

	if store != nil {
		if err := store.Add(history.Record{
			App: spec.App, Machine: spec.Machine,
			Best: res.BestConfig.Map(), BestValue: res.BestValue, Runs: res.Runs,
		}); err != nil {
			return err
		}
		fmt.Printf("htune: recorded result in %s\n", historyPath)
	}
	if cli.metrics {
		writeMetrics(os.Stdout, spec, res)
	}
	return nil
}

// writeMetrics emits the tuning outcome as expvar-style lines, the
// same "<prefix>.<name> <value>" shape harmonyd dumps for its server
// counters, so one scraper handles both tools.
func writeMetrics(w io.Writer, spec Spec, res *core.Result) {
	fmt.Fprintf(w, "htune.app %s\n", spec.App)
	fmt.Fprintf(w, "htune.runs %d\n", res.Runs)
	fmt.Fprintf(w, "htune.failures %d\n", res.Failures)
	fmt.Fprintf(w, "htune.best_value %g\n", res.BestValue)
	fmt.Fprintf(w, "htune.first_value %g\n", res.FirstValue)
	fmt.Fprintf(w, "htune.improvement %g\n", res.Improvement())
	fmt.Fprintf(w, "htune.speedup %g\n", res.Speedup())
	fmt.Fprintf(w, "htune.tuning_cost_s %g\n", res.TuningCost)
	fmt.Fprintf(w, "htune.cache.hits %d\n", res.CacheHits)
	fmt.Fprintf(w, "htune.cache.misses %d\n", res.CacheMisses)
	fmt.Fprintf(w, "htune.worker_occupancy %g\n", res.WorkerOccupancy)
	fmt.Fprintf(w, "htune.queue_starved %d\n", res.QueueStarved)
	fmt.Fprintf(w, "htune.idle_slots %d\n", res.IdleSlots)
	best := res.BestConfig.Map()
	names := make([]string, 0, len(best))
	for name := range best {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "htune.best.%s %s\n", name, best[name])
	}
}

// objective launches one benchmarking run of the command with the
// configuration substituted and returns its measured performance.
// With runTimeout > 0 the run is killed at the deadline and reported
// as a failure, so one hung configuration cannot wedge the session.
func objective(spec Spec, runTimeout time.Duration) core.Objective {
	return func(ctx context.Context, cfg space.Config) (float64, error) {
		if runTimeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, runTimeout)
			defer cancel()
		}
		values := cfg.Map()
		sub := substitution(values)
		args := make([]string, len(spec.Command)-1)
		for i, tmpl := range spec.Command[1:] {
			args[i] = sub.Replace(tmpl)
		}
		cmd := exec.CommandContext(ctx, sub.Replace(spec.Command[0]), args...)
		if runTimeout > 0 {
			// Without this, a killed shell whose orphaned children still
			// hold the stdout pipe keeps Output blocked long past the
			// deadline; WaitDelay force-closes the pipes soon after the
			// context expires.
			cmd.WaitDelay = time.Second
		}
		cmd.Env = os.Environ()
		names := make([]string, 0, len(values))
		for name := range values {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			cmd.Env = append(cmd.Env, "HT_"+strings.ToUpper(name)+"="+values[name])
		}
		start := time.Now()
		out, err := cmd.Output()
		elapsed := time.Since(start).Seconds()
		if err != nil {
			return 0, fmt.Errorf("command failed: %w", err)
		}
		if spec.Metric == "stdout" {
			return lastFloat(string(out))
		}
		return elapsed, nil
	}
}

// substitution replaces each {name} placeholder by its value in one
// pass: substituted text is never rescanned, so a value that spells
// another placeholder stays as written whatever the map order.
func substitution(values map[string]string) *strings.Replacer {
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	pairs := make([]string, 0, 2*len(names))
	for _, name := range names {
		pairs = append(pairs, "{"+name+"}", values[name])
	}
	return strings.NewReplacer(pairs...)
}

// lastFloat parses the last whitespace-separated token of the output
// that is a valid number.
func lastFloat(out string) (float64, error) {
	fields := strings.Fields(out)
	for i := len(fields) - 1; i >= 0; i-- {
		if v, err := strconv.ParseFloat(fields[i], 64); err == nil {
			return v, nil
		}
	}
	return 0, fmt.Errorf("no numeric value in command output %q", strings.TrimSpace(out))
}
