package main

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"time"
)

// config is what one invocation asks for.
type config struct {
	env
	seconds float64 // how long the timed repetitions of one workload run
}

// setupBudget bounds how long a run keeps setting up again to take a
// median: short set-ups are the noisy ones and fit several times.
const setupBudget = 4 * time.Second

// measurement is everything one workload reported.
type measurement struct {
	workload  string
	values    metricSet            // end-to-end medians, or per-layer numbers
	series    map[string][]float64 // timings of the untraced pass: every repetition's value, in order
	reps      int
	setups    int
	procs     int // GOMAXPROCS the workload ran under
	opsPerRep int
	tailP     float64 // which percentile the op latency tail is
	attempted int
	failed    int
	errs      []error // oracle misses; empty means correct
}

func (m *measurement) correct() bool { return len(m.errs) == 0 }

// runner takes one workload through set-up, repetitions and oracles.
// Repetitions are driven from outside (step) so that several runners
// can be interleaved round-robin and drift hits every workload alike.
type runner struct {
	cfg   config
	name  string
	w     workload
	procs int // GOMAXPROCS while this workload runs

	setupS   []float64
	warm     *repResult
	reps     []*repResult
	measured time.Duration
}

func newRunner(name string, cfg config) (*runner, error) {
	w, err := newWorkload(name, cfg.env)
	if err != nil {
		return nil, err
	}
	return &runner{cfg: cfg, name: name, w: w, procs: threads(name, cfg.workers)}, nil
}

// prepare is everything before the first timed repetition, the
// discarded warm-up repetition included, so lazily filled caches and
// work moved into set-up both show in setup_s. It sets up again, and
// takes the median, while that is cheap and would be equally cold.
func (r *runner) prepare(repeat bool) error {
	runtime.GOMAXPROCS(r.procs)
	var total time.Duration
	for {
		t0 := time.Now()
		if err := r.w.setup(); err != nil {
			return err
		}
		warm, err := r.w.rep(nil)
		if err != nil {
			return err
		}
		took := time.Since(t0)
		total += took
		r.warm = warm
		r.setupS = append(r.setupS, took.Seconds())
		if !repeat || r.w.coldOnce() || len(r.setupS) >= 5 || total+took > setupBudget {
			return nil
		}
		if err := r.w.close(); err != nil {
			return err
		}
	}
}

func (r *runner) done() bool {
	return len(r.reps) >= r.cfg.sz.minReps && r.measured.Seconds() >= r.cfg.seconds
}

// step runs one timed repetition after a collection, so one
// repetition's garbage is not collected on the next one's clock.
func (r *runner) step() error {
	runtime.GOMAXPROCS(r.procs)
	t0 := time.Now()
	runtime.GC()
	rep, err := r.w.rep(nil)
	if err != nil {
		return err
	}
	r.reps = append(r.reps, rep)
	r.measured += time.Since(t0)
	return nil
}

// finish condenses the repetitions into the end-to-end metrics and
// applies the oracles.
func (r *runner) finish() (*measurement, error) {
	runtime.GOMAXPROCS(r.procs)
	m := &measurement{
		workload: r.name, values: metricSet{}, series: map[string][]float64{},
		reps: len(r.reps), setups: len(r.setupS), procs: r.procs,
	}
	series := m.series
	for _, rep := range r.reps {
		m.attempted += rep.attempted
		m.failed += rep.failed
		series["e2e.evals_per_s"] = append(series["e2e.evals_per_s"], float64(rep.evals)/rep.wall.Seconds())
		series["e2e.op_p50_ms"] = append(series["e2e.op_p50_ms"], median(rep.ops))
		t, p := tail(rep.ops)
		series["e2e.op_tail_ms"] = append(series["e2e.op_tail_ms"], t)
		m.tailP, m.opsPerRep = p, len(rep.ops)
		series["alloc_kb_per_eval"] = append(series["alloc_kb_per_eval"], float64(rep.allocBytes)/1024/float64(rep.evals))
	}
	for name, xs := range series {
		m.values[name] = median(xs)
	}
	m.values["setup_s"] = median(r.setupS)
	if wall, ok := steadyWall(r.reps); ok {
		m.values["e2e.evals_per_s"] = float64(r.reps[0].evals) / wall
	} else {
		m.errs = append(m.errs, fmt.Errorf("%s: repetitions of the same work were cut into different segments", r.name))
	}
	last := r.reps[len(r.reps)-1]
	m.values["best_over_default"] = last.bestOverDefault()
	m.values["cost_to_best_s"] = last.costToBest()

	// Same seed, same results: every repetition, the warm-up included,
	// must agree on every deterministic field.
	for i, rep := range r.reps {
		if err := checkSame(fmt.Sprintf("%s: repetition %d against the warm-up", r.name, i+1), rep.prints, r.warm.prints); err != nil {
			m.errs = append(m.errs, err)
			break
		}
	}
	if err := r.w.verify(last); err != nil {
		m.errs = append(m.errs, fmt.Errorf("%s: %w", r.name, err))
	}
	if m.failed > 0 {
		m.errs = append(m.errs, fmt.Errorf("%s: %d of %d operations failed on a workload chosen to have none", r.name, m.failed, m.attempted))
	}
	return m, r.w.close()
}

// steadySlices is how many slices a lane of segments is gathered into.
// A slice is then some 50 to 100 ms of work: short enough that one
// repetition in five or ten gets through it undisturbed even on a busy
// host, and no shorter, so that what the program itself does only now
// and then (the on-line workloads collect their heap every 20 ms) is in
// every sample and is not taken for noise.
const steadySlices = 20

// steadyWall is the wall-clock of one repetition with the host's
// interference taken out. Every repetition does the same work, cut into
// the same segments (repResult.lanes), and what a busy neighbour or a
// descheduled virtual CPU does to a stretch of it is only ever to
// lengthen it. So a lane is gathered into steadySlices slices of
// consecutive segments, each slice counts with the shortest time any
// repetition took over it, a lane is the sum of its slices and the
// repetition as long as its longest lane. The median over whole
// repetitions, which this replaces, moved with the host by a fifth
// between runs of the same code.
func steadyWall(reps []*repResult) (wall float64, ok bool) {
	for _, rep := range reps[1:] {
		if len(rep.lanes) != len(reps[0].lanes) {
			return 0, false
		}
		for l, lane := range rep.lanes {
			if len(lane) != len(reps[0].lanes[l]) {
				return 0, false
			}
		}
	}
	for l, lane := range reps[0].lanes {
		n := len(lane)
		slices := min(steadySlices, n)
		var sum float64
		for s := 0; s < slices; s++ {
			from, to := s*n/slices, (s+1)*n/slices
			best := math.Inf(1)
			for _, rep := range reps {
				var took float64
				for _, seg := range rep.lanes[l][from:to] {
					took += seg
				}
				best = min(best, took)
			}
			sum += best
		}
		wall = max(wall, sum)
	}
	return wall, wall > 0
}

// measureUntraced is the first pass over the named workloads: set-ups
// in order, then timed repetitions round-robin across the workloads, so
// drift hits every row equally, then the oracles.
func measureUntraced(names []string, cfg config) ([]*measurement, error) {
	var runners []*runner
	for _, name := range names {
		r, err := newRunner(name, cfg)
		if err != nil {
			return nil, err
		}
		if err := r.prepare(true); err != nil {
			return nil, err
		}
		runners = append(runners, r)
	}
	for busy := true; busy; {
		busy = false
		for _, r := range runners {
			if !r.done() {
				busy = true
				if err := r.step(); err != nil {
					return nil, err
				}
			}
		}
	}
	var ms []*measurement
	for _, r := range runners {
		m, err := r.finish()
		if err != nil {
			return nil, err
		}
		ms = append(ms, m)
	}
	return ms, nil
}

// measureTraced is the second pass: the same repetition with the
// decorators on, paired with an untraced one so the cost of tracing is
// known. End-to-end metrics never come from here.
func measureTraced(name string, cfg config) (*measurement, error) {
	r, err := newRunner(name, cfg)
	if err != nil {
		return nil, err
	}
	if err := r.prepare(false); err != nil {
		return nil, err
	}
	t0 := time.Now()
	var plain, traced *repResult
	var plains []*repResult
	var tr *tracer
	var slowdown []float64
	for pairs := 0; pairs == 0 || (pairs < 3 && time.Since(t0).Seconds() < cfg.seconds/2); pairs++ {
		// Alternate which side of a pair runs first.
		for side := 0; side < 2; side++ {
			runtime.GC()
			if side == pairs%2 {
				plain, err = r.w.rep(nil)
				plains = append(plains, plain)
			} else {
				tr = newTracer()
				traced, err = r.w.rep(tr)
			}
			if err != nil {
				return nil, err
			}
		}
		// Per evaluation: a traced repetition may do fewer passes.
		slowdown = append(slowdown, (traced.wall.Seconds()/float64(traced.evals))/(plain.wall.Seconds()/float64(plain.evals)))
	}

	m := &measurement{workload: name, values: metricSet{}, reps: len(slowdown), procs: r.procs, attempted: traced.attempted, failed: traced.failed}
	v := m.values
	v["trace.wall_s"] = traced.wall.Seconds()
	v["trace.overhead_frac"] = median(slowdown) - 1
	v["e2e.failed_frac"] = ratio(float64(traced.failed), float64(traced.attempted))
	if wall, ok := steadyWall(plains); ok {
		v["e2e.evals_per_s"] = float64(plain.evals) / wall
	}
	v["e2e.op_p50_ms"] = median(plain.ops)
	v["e2e.op_tail_ms"], m.tailP = tail(plain.ops)
	m.opsPerRep = len(plain.ops)
	spanMetrics(tr, traced, v)
	if err := r.w.layers(traced, plain, v); err != nil {
		return nil, err
	}
	if err := tr.writeTrace(filepath.Join(cfg.outDir, "trace-"+name+".jsonl")); err != nil {
		return nil, err
	}

	// Tracing must be transparent: decorated and bare repetitions agree.
	if err := checkSame(name+": traced repetition against the untraced one", traced.prints, plain.prints); err != nil {
		m.errs = append(m.errs, err)
	}
	if err := r.w.verify(traced); err != nil {
		m.errs = append(m.errs, fmt.Errorf("%s: %w", name, err))
	}
	return m, r.w.close()
}

// spanMetrics derives the per-layer numbers that come from spans:
// each layer's self time, and per-call statistics by span name.
func spanMetrics(tr *tracer, rep *repResult, v metricSet) {
	v["trace.spans"] = float64(len(tr.spans))
	self := selfTimes(tr.spans)
	var sum, sims float64
	for _, l := range spanLayers {
		v[l.metric] = self[l.layer]
		sum += self[l.layer]
	}
	for _, l := range simLayers {
		sims += self[l]
	}
	v["trace.self_sum_frac"] = ratio(sum, rep.wall.Seconds())
	v["sim.self_frac"] = ratio(sims, rep.wall.Seconds())
	v["core.overhead_ns_per_eval"] = ratio(self["core"]*1e9, float64(rep.evals))

	meanOf := func(span string, scale float64) float64 { return mean(tr.durations(span)) / scale }
	v["search.ask_ns"] = meanOf("search.ask", 1)
	v["search.tell_ns"] = meanOf("search.tell", 1)
	v["search.stall_frac"] = ratio(float64(tr.counts["search.ask_stalled"]), float64(tr.counts["search.ask_calls"]))
	v["history.lookup_ns"] = meanOf("history.lookup", 1)
	v["history.store_ns"] = meanOf("history.store", 1)
	v["surrogate.predict_ns"] = meanOf("surrogate.predict", 1)
	for _, sim := range simLayers {
		v[sim+".run_ms"] = meanOf(sim+".run", 1e6)
	}
	for _, call := range []string{"register", "fetch", "report", "best", "done"} {
		v["server."+call+"_us"] = median(tr.durations("client."+call)) / 1e3
	}
}
