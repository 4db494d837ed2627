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
//	htune [-history file] spec.json
//
// Specification format:
//
//	{
//	  "app": "myapp",
//	  "machine": "cluster-a",
//	  "strategy": "simplex",            // simplex|pro|coordinate|random|systematic|exhaustive|ensemble
//	  "max_runs": 40,
//	  "metric": "time",                 // "time" (wall clock) or "stdout" (last number printed)
//	  "params": [
//	    {"name": "threads", "kind": "int", "min": 1, "max": 64, "step": 1},
//	    {"name": "alg", "kind": "enum", "values": ["heap", "quick"]}
//	  ],
//	  "command": ["./run.sh", "--threads={threads}", "--alg={alg}"]
//	}
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
// wedging the whole tuning session. -metrics appends a
// machine-readable "htune.<name> <value>" summary to stdout for
// scripts and dashboards.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"flag"

	"harmony/internal/core"
	"harmony/internal/history"
	"harmony/internal/proto"
	"harmony/internal/search"
	"harmony/internal/space"
	"harmony/internal/surrogate"
)

// Spec is the htune input file.
type Spec struct {
	App      string `json:"app"`
	Machine  string `json:"machine"`
	Strategy string `json:"strategy"`
	MaxRuns  int    `json:"max_runs"`
	// Workers is the number of evaluations in flight: benchmarking
	// runs of distinct configurations launched concurrently. The
	// command must tolerate concurrent invocations. 0 or 1 runs one
	// at a time; the -workers flag overrides.
	Workers int `json:"workers"`
	// Async bounds the window of issued configurations at AsyncDepth
	// and lets pipelined strategies issue ahead of their outstanding
	// results, instead of issuing one round and draining it before the
	// next. Results are committed to the strategy in issue order
	// either way. The -async flag overrides.
	Async bool `json:"async"`
	// AsyncDepth is the window bound of an Async session (0 = engine
	// default); the -async-depth flag overrides.
	AsyncDepth int               `json:"async_depth"`
	Metric     string            `json:"metric"`
	Seed       int64             `json:"seed"`
	Params     []proto.ParamSpec `json:"params"`
	Command    []string          `json:"command"`
}

// cliOptions collects the command-line knobs passed down to run.
type cliOptions struct {
	historyPath   string
	cachePath     string
	cacheNS       string
	workers       int
	async         bool
	asyncDepth    int
	runTimeout    time.Duration
	surrogate     bool
	surrogateKeep float64
	metrics       bool
	verbose       bool
}

func main() {
	var opts cliOptions
	var cpuprofile, memprofile string
	flag.StringVar(&opts.historyPath, "history", "", "tuning-history file for seeding and recording")
	flag.StringVar(&opts.cachePath, "cache", "", "persistent evaluation-cache file: repeated configurations are answered from prior sessions instead of re-run")
	flag.StringVar(&opts.cacheNS, "cache-ns", "", "evaluation-cache namespace: campaigns in different namespaces never share measurements (empty = shared)")
	flag.IntVar(&opts.workers, "workers", 0, "evaluations in flight: benchmarking runs launched concurrently (overrides the spec; 0/1 = one at a time)")
	flag.BoolVar(&opts.async, "async", false, "bound the window at -async-depth and let pipelined strategies issue ahead, instead of draining each round before the next (overrides the spec)")
	flag.IntVar(&opts.asyncDepth, "async-depth", 0, "window bound under -async: issued configurations awaiting their result (overrides the spec; 0 = default)")
	flag.DurationVar(&opts.runTimeout, "run-timeout", 0, "kill a benchmarking run exceeding this and count it failed (0 = no limit)")
	flag.BoolVar(&opts.surrogate, "surrogate", false, "screen proposals with the analytic performance model for the spec's app: only the top-ranked fraction of each round is actually run (errors when no model covers the app)")
	flag.Float64Var(&opts.surrogateKeep, "surrogate-keep", 0, "fraction of each proposal round the surrogate actually runs, 0 < keep <= 1 (0 = default)")
	flag.BoolVar(&opts.metrics, "metrics", false, "append a machine-readable htune.<name> <value> summary")
	flag.BoolVar(&opts.verbose, "v", false, "log each run")
	flag.StringVar(&cpuprofile, "cpuprofile", "", "write a CPU profile of the tuning session to this file")
	flag.StringVar(&memprofile, "memprofile", "", "write a heap profile taken at session end to this file")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: htune [-history file] [-cache file] [-cache-ns name] [-workers N] [-async] [-async-depth N] [-run-timeout d] [-surrogate] [-surrogate-keep f] [-metrics] [-cpuprofile file] [-memprofile file] [-v] spec.json")
		os.Exit(2)
	}
	stopProfiles, err := startProfiles(cpuprofile, memprofile)
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

// startProfiles starts CPU profiling and arranges a heap snapshot,
// returning a function that finalises both.
func startProfiles(cpuprofile, memprofile string) (func() error, error) {
	var cpuFile *os.File
	if cpuprofile != "" {
		f, err := os.Create(cpuprofile)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		cpuFile = f
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return err
			}
		}
		if memprofile != "" {
			f, err := os.Create(memprofile)
			if err != nil {
				return err
			}
			defer f.Close()
			runtime.GC() // materialise final live-set statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				return err
			}
		}
		return nil
	}, nil
}

func run(specPath string, cli cliOptions) error {
	historyPath := cli.historyPath
	data, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var spec Spec
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("parsing %s: %w", specPath, err)
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
	if cli.workers > 0 {
		spec.Workers = cli.workers
	}
	if cli.async {
		spec.Async = true
	}
	if cli.asyncDepth > 0 {
		spec.AsyncDepth = cli.asyncDepth
	}
	opt := core.Options{
		MaxRuns: spec.MaxRuns, Workers: spec.Workers,
		Async: spec.Async, AsyncDepth: spec.AsyncDepth,
	}
	if cli.surrogate {
		model := surrogate.For(spec.App)
		if model == nil {
			return fmt.Errorf("-surrogate: no analytic model covers app %q", spec.App)
		}
		opt.Surrogate = &core.SurrogateOptions{Model: model, Keep: cli.surrogateKeep}
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
	if spec.Workers > 1 {
		fmt.Printf("  window: worker occupancy %.0f%%, %d starved refills, %d idle slots\n",
			100*res.WorkerOccupancy, res.QueueStarved, res.IdleSlots)
	}
	if cli.surrogate {
		fmt.Printf("  surrogate: %d proposals pruned by the model, %d run, %d fallbacks\n",
			res.SurrogatePruned, res.SurrogateKept, res.SurrogateFallbacks)
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
	fmt.Fprintf(w, "htune.surrogate.pruned %d\n", res.SurrogatePruned)
	fmt.Fprintf(w, "htune.surrogate.kept %d\n", res.SurrogateKept)
	fmt.Fprintf(w, "htune.surrogate.fallbacks %d\n", res.SurrogateFallbacks)
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
		args := make([]string, len(spec.Command)-1)
		for i, tmpl := range spec.Command[1:] {
			args[i] = substitute(tmpl, values)
		}
		cmd := exec.CommandContext(ctx, substitute(spec.Command[0], values), args...)
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

func substitute(tmpl string, values map[string]string) string {
	out := tmpl
	for name, v := range values {
		out = strings.ReplaceAll(out, "{"+name+"}", v)
	}
	return out
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
