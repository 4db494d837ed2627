package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"
)

// workloadDef names a workload and records why it exists. The names
// are fixed: later issues refer to them.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadDefs = []workloadDef{
	{"sles-seq", "Fig. 2 large, sequential engine, cold plan cache: kernel-bound (sparse/ksp/simmpi p2p), the plain single-threaded baseline. op = one objective call; e2e.op_tail_ms = p75 of 80 ops per repetition"},
	{"gs2-pipeline", "Table 3 by the ensemble on the async engine, cold EvalCache per campaign: collectives, concurrent engine, history writes. op = one objective call; e2e.op_tail_ms = p99 of 2400 ops"},
	{"pop-surrogate-rounds", "Fig. 4 by PRO on the round engine behind the surrogate gate: third engine, pruning, short evaluations where run overhead shows. op = one objective call; e2e.op_tail_ms = p99 of ~1270 ops"},
	{"warm-retune", "gs2, pop and simplex campaigns replayed from a pre-filled EvalCache: engine + strategy + history reads, no simulator runs; bypasses what the first three stress. op = one core.Tune; tail = p99.9 of 11k"},
	{"online-shared-binary", "in-process harmonyd, binary mux, W closed-loop drivers x 128 shared simplex sessions with register/done churn: shard dispatch, binary codec. op = fetch+report round; tail = p99.9 of 25000 W ops"},
	{"online-window-json", "same server over JSON lines, async ensemble and parallel PRO sessions through 4 attached handles: window and fan-out paths, JSON codec; bypasses binary. op = fetch+report; tail = p99.9 of 16000 W"},
}

// threads is the GOMAXPROCS a workload runs under. An evaluation of
// petscsim or pop is one simulated-MPI run, and simmpi executes one rank
// at a time, handing a token from goroutine to goroutine: between
// hand-offs there are microseconds of work. With a second P the Go
// scheduler moves the one runnable rank to whichever thread is idle, so
// every hand-off becomes a cross-CPU wake-up, and on the 2-core VM this
// was calibrated on that made both workloads slower (sles-seq 34 against
// 46 evaluations/s, pop-surrogate-rounds 1100 against 1300) and twice as
// unsteady (interquartile range over ten runs 14 % and 22 % of the
// median against 8 % and 10 %). What is measured there is the
// hypervisor's wake-up latency, not this program, so these two run on one
// P: the engines, their worker goroutines and the round barriers are all
// still there. gs2 evaluations are long enough to run side by side
// (1700 against 1000 evaluations/s), and the replay and on-line workloads
// repeat well at W.
func threads(name string, workers int) int {
	switch name {
	case "sles-seq", "pop-surrogate-rounds":
		return 1
	}
	return workers
}

// sizes fix the work of one repetition. They are the same for every
// seed and every host, so counts repeat exactly; -quick shrinks them
// until the whole set runs inside a unit test.
type sizes struct {
	quick        bool
	gs2Campaigns int // gs2-pipeline: ensemble campaigns per repetition
	gs2MaxRuns   int
	popCampaigns int // pop-surrogate-rounds: PRO campaigns per repetition
	retuneGS2    int // warm-retune: how many of the gs2 campaigns it replays
	retunePOP    int // ... and of the pop campaigns (surrogate off)
	retunePasses int // replays of the whole set per repetition
	tracePasses  int // ... in a traced repetition (a span per call is three spans per evaluation)
	sharedLive   int // online-shared-binary: live sessions per driver
	sharedRounds int // ... and rounds per driver per repetition
	windowLive   int // online-window-json: live sessions per driver
	windowRounds int
	minReps      int
}

func fullSizes() sizes {
	return sizes{
		gs2Campaigns: 40, gs2MaxRuns: 60, popCampaigns: 120,
		retuneGS2: 12, retunePOP: 80, retunePasses: 120, tracePasses: 12,
		sharedLive: 128, sharedRounds: 25000, windowLive: 32, windowRounds: 16000,
		minReps: 3,
	}
}

func quickSizes() sizes {
	return sizes{
		quick:        true,
		gs2Campaigns: 2, gs2MaxRuns: 12, popCampaigns: 3,
		retuneGS2: 1, retunePOP: 2, retunePasses: 3, tracePasses: 2,
		sharedLive: 4, sharedRounds: 200, windowLive: 3, windowRounds: 160,
		minReps: 2,
	}
}

// env is what every workload is built from.
type env struct {
	seed    int64
	workers int // W = min(nproc, 4): engine workers, driver goroutines, connections
	sz      sizes
	outDir  string // where traces and the persistence probe's file go
}

// deriveSeed gives every campaign and session its own seed as a pure
// function of the benchmark seed (splitmix64 over the three inputs).
func deriveSeed(seed int64, stream, i int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(stream+1) + 0xbf58476d1ce4e5b9*uint64(i+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z >> 1) // non-negative
}

// panelSeed and panelShare: three campaigns (or sessions) in four take
// their seed from a fixed panel and one in four from -seed. Every seed
// still changes the inputs, but the aggregate search-quality metrics,
// which are dominated by when a randomised search happens to find its
// best and move by a fifth between fully independent sets of 40
// campaigns, stay comparable across seeds to within their bound.
const (
	panelSeed  = 11
	panelShare = 4
)

// inputSeed is the seed of campaign or session i of a stream.
func inputSeed(seed int64, stream, i int) int64 {
	if i%panelShare != 0 {
		seed = panelSeed
	}
	return deriveSeed(seed, stream, i)
}

// Seed streams.
const (
	streamGS2 = iota
	streamPOP
	streamShared
	streamWindow
)

// repResult is what one repetition of fixed work yields.
type repResult struct {
	wall       time.Duration
	allocBytes uint64
	evals      int       // charged evaluations (off-line) or accepted reports (on-line)
	ops        []float64 // op latencies, ms; empty in a traced repetition
	attempted  int
	failed     int
	prints     []string // deterministic results of this repetition; equal across same-seed repetitions
	// lanes divide the repetition into timed segments, seconds each.
	// Segment i of lane l is the same work in every repetition of a
	// workload; a lane's segments follow one another and add up to the
	// repetition's wall-clock, and lanes run side by side (one per on-line
	// driver, a single one off-line). steadyWall reads them.
	lanes [][]float64

	outcomes []*outcome       // off-line campaigns, in order
	sessions []*sessionRecord // on-line sessions that converged, per driver in order
	cache    *evalCache       // the evaluation cache the repetition used, if any
	hits     int64            // ... and its lookups answered and missed during the repetition
	misses   int64
	srv      serverCounters // server counters accumulated over the repetition
	sent     int64          // reports the drivers sent
	live     int64          // sessions registered when the timed part began
}

// bestOverDefault is the geometric mean over a repetition's campaigns
// or sessions of best measured value ÷ default value.
func (r *repResult) bestOverDefault() float64 {
	var ratios []float64
	for _, o := range r.outcomes {
		ratios = append(ratios, o.bestValue/o.defaultValue)
	}
	for _, s := range r.sessions {
		ratios = append(ratios, s.bestPerf/s.first)
	}
	return geomean(ratios)
}

// costToBest is the mean tuning cost to the final best over a
// repetition's campaigns or sessions. Campaigns of different
// applications differ by four orders of magnitude in objective scale
// (a gs2 run costs hundreds of virtual seconds, a pop run a fraction of
// one), so the mean is taken per application and the applications are
// combined geometrically; with one application, as in every workload
// but warm-retune, it is the plain mean.
func (r *repResult) costToBest() float64 {
	byApp := map[string][]float64{}
	var apps []string
	for _, o := range r.outcomes {
		if _, seen := byApp[o.app]; !seen {
			apps = append(apps, o.app)
		}
		byApp[o.app] = append(byApp[o.app], o.costToBest)
	}
	var sessions []float64
	for _, s := range r.sessions {
		sessions = append(sessions, s.costToBest)
	}
	means := []float64{}
	for _, app := range apps {
		means = append(means, mean(byApp[app]))
	}
	if len(sessions) > 0 {
		means = append(means, mean(sessions))
	}
	return geomean(means)
}

// workload is one named set of inputs.
type workload interface {
	// setup builds everything a run needs before its first repetition.
	setup() error
	// rep runs one repetition; a non-nil tracer turns the decorators on.
	rep(tr *tracer) (*repResult, error)
	// verify applies the oracles that need runs of their own.
	verify(last *repResult) error
	// layers adds the per-layer numbers that do not come from spans:
	// exported counters and the probes of the layers that do this
	// workload's work. r is the traced repetition, plain the untraced
	// one it is paired with.
	layers(r, plain *repResult, m metricSet) error
	// coldOnce reports that set-up fills process-global caches, so that
	// setting up a second time in one process would measure a warm path.
	coldOnce() bool
	close() error
}

func newWorkload(name string, e env) (workload, error) {
	switch name {
	case "sles-seq":
		return &offline{env: e, campaigns: []*campaign{slesCampaign(e.sz.quick)}, passes: 1, opSegments: true}, nil
	case "gs2-pipeline":
		return &offline{env: e, campaigns: gs2Campaigns(e, e.sz.gs2Campaigns), passes: 1, coldCache: true, w1: true, globalPlans: true}, nil
	case "pop-surrogate-rounds":
		return &offline{env: e, campaigns: popCampaigns(e, e.sz.popCampaigns, true), passes: 1, w1: true, globalPlans: true}, nil
	case "warm-retune":
		cs := gs2Campaigns(e, e.sz.retuneGS2)
		cs = append(cs, popCampaigns(e, e.sz.retunePOP, false)...)
		cs = append(cs, gs2SimplexCampaign(2000))
		return &offline{env: e, campaigns: cs, passes: e.sz.retunePasses, replay: true, globalPlans: true}, nil
	case "online-shared-binary":
		return &online{env: e, binary: true, live: e.sz.sharedLive, rounds: e.sz.sharedRounds, stream: streamShared}, nil
	case "online-window-json":
		return &online{env: e, window: true, live: e.sz.windowLive, rounds: e.sz.windowRounds, stream: streamWindow}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func gs2Campaigns(e env, n int) []*campaign {
	cs := make([]*campaign, n)
	for i := range cs {
		cs[i] = gs2EnsembleCampaign(i, inputSeed(e.seed, streamGS2, i), e.workers, e.sz.gs2MaxRuns)
	}
	return cs
}

func popCampaigns(e env, n int, withSurrogate bool) []*campaign {
	cs := make([]*campaign, n)
	for i := range cs {
		cs[i] = popPROCampaign(1000+i, inputSeed(e.seed, streamPOP, i), e.workers, withSurrogate)
	}
	return cs
}

// offline is a workload made of whole core.Tune campaigns.
type offline struct {
	env
	campaigns []*campaign
	passes    int  // times the campaign list runs in one repetition
	coldCache bool // a fresh EvalCache per repetition: every evaluation is a miss + Store
	replay    bool // campaigns are answered from a cache filled in set-up; op = one Tune call
	// opSegments: the repetition is one sequential campaign, so it is cut
	// into its objective calls rather than its core.Tune calls.
	opSegments bool
	w1         bool // verify Workers 1 against W on the first campaign
	// globalPlans: the simulators' plan caches are process-global with no
	// public reset, so only the first set-up in a process is cold.
	globalPlans bool

	warm        *evalCache // replay: the pre-filled cache
	cold        []*outcome // replay: the campaigns that filled it
	coldMissMS  float64    // replay: median objective latency while filling
	persistPath string
}

func (w *offline) coldOnce() bool { return w.globalPlans }
func (w *offline) close() error   { return nil }

func (w *offline) setup() error {
	w.persistPath = filepath.Join(w.outDir, "evalcache-probe.json")
	if !w.replay {
		return nil
	}
	var err error
	if w.warm, err = newEvalCache(""); err != nil {
		return err
	}
	w.cold = w.cold[:0]
	fill := &opLog{}
	for _, c := range w.campaigns {
		t, err := c.tune(hooks{ops: fill, cache: w.warm})
		if err != nil {
			return err
		}
		o, err := c.condense(t)
		if err != nil {
			return err
		}
		w.cold = append(w.cold, o)
	}
	w.coldMissMS = median(fill.ms)
	return nil
}

func (w *offline) rep(tr *tracer) (*repResult, error) {
	r := &repResult{cache: w.warm}
	if w.coldCache {
		path := ""
		if tr != nil {
			path = w.persistPath // the traced pass also times Save/Open on what it stored
		}
		var err error
		if r.cache, err = newEvalCache(path); err != nil {
			return nil, err
		}
	}
	passes := w.passes
	if tr != nil && w.replay {
		passes = min(passes, w.sz.tracePasses)
	}
	ops := &opLog{}
	h := hooks{tr: tr, parent: -1, cache: r.cache}
	if tr == nil && !w.replay {
		h.ops = ops
	}
	var firstErr error
	var first []*tuned     // the first pass of every campaign
	var segments []float64 // one per core.Tune call
	var hits0, misses0 int64
	if r.cache != nil {
		hits0, misses0 = r.cache.counters()
	}
	err := timed(r, func() {
		if tr != nil {
			h.parent = tr.begin("bench.rep", -1, 0)
			defer tr.end(h.parent)
		}
		for pass := 0; pass < passes; pass++ {
			for i, c := range w.campaigns {
				t0 := time.Now()
				t, err := c.tune(h)
				if err != nil {
					firstErr = err
					return
				}
				took := time.Since(t0)
				segments = append(segments, took.Seconds())
				if w.replay && tr == nil {
					ops.add(took)
				}
				runs, best := t.brief()
				r.evals += runs
				if pass == 0 {
					first = append(first, t)
				} else if r0, b0 := first[i].brief(); runs != r0 || !sameBits(best, b0) {
					r.failed++ // a later pass of the same campaign must repeat the first
				}
			}
		}
	})
	if err != nil {
		return nil, err
	}
	if firstErr != nil {
		return nil, firstErr
	}
	if r.cache != nil {
		hits, misses := r.cache.counters()
		r.hits, r.misses = hits-hits0, misses-misses0
	}
	for i, t := range first {
		o, err := w.campaigns[i].condense(t)
		if err != nil {
			return nil, err
		}
		r.outcomes = append(r.outcomes, o)
		r.prints = append(r.prints, o.fingerprint)
		r.failed += o.failures
	}
	r.attempted = r.evals
	r.ops = ops.ms
	if w.opSegments && tr == nil {
		// One campaign on the sequential engine: its objective calls come
		// one after another in an order the seed fixes, so each is a
		// segment of its own.
		segments = segments[:0]
		for _, op := range ops.ms {
			segments = append(segments, op/1e3)
		}
	}
	r.lanes = [][]float64{closeLane(segments, r.wall)}
	return r, nil
}

// closeLane appends to a lane's segments what is left of the wall-clock
// they were cut from: the time between them.
func closeLane(segments []float64, wall time.Duration) []float64 {
	rest := wall.Seconds()
	for _, s := range segments {
		rest -= s
	}
	return append(segments, max(rest, 0))
}

// timed runs fn between two clock reads and two TotalAlloc reads.
func timed(r *repResult, fn func()) error {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	fn()
	r.wall = time.Since(t0)
	runtime.ReadMemStats(&after)
	r.allocBytes = after.TotalAlloc - before.TotalAlloc
	if r.wall <= 0 {
		return fmt.Errorf("repetition took no measurable time")
	}
	return nil
}

func (w *offline) verify(last *repResult) error {
	for i, o := range last.outcomes {
		c := w.campaigns[i]
		v, err := c.remeasure(o.bestConfig)
		if err != nil {
			return fmt.Errorf("campaign %d: re-running BestConfig: %w", o.id, err)
		}
		if err := checkCampaign(o, v); err != nil {
			return err
		}
		if w.replay {
			if err := checkReplay(w.cold[i], o); err != nil {
				return err
			}
		}
	}
	if w.replay {
		// The cold campaigns in set-up missed and stored; since then
		// every lookup must have hit.
		coldRuns := 0
		for _, o := range w.cold {
			coldRuns += o.runs
		}
		if _, misses := w.warm.counters(); misses != int64(coldRuns) {
			return fmt.Errorf("warm cache: %d misses, want the %d of the cold fill and none since", misses, coldRuns)
		}
	}
	if w.coldCache && last.hits != 0 {
		return fmt.Errorf("cold cache: %d hits in a repetition whose every evaluation should miss", last.hits)
	}
	if w.w1 {
		c := w.campaigns[0]
		t, err := c.withWorkers(1).tune(hooks{})
		if err != nil {
			return err
		}
		o, err := c.condense(t)
		if err != nil {
			return err
		}
		if err := checkSame(fmt.Sprintf("campaign %d at Workers 1 against %d", c.id, w.workers),
			[]string{o.fingerprint}, []string{last.outcomes[0].fingerprint}); err != nil {
			return err
		}
	}
	return nil
}

func (w *offline) layers(r, plain *repResult, m metricSet) error {
	var proposals, runs, pruned, kept, fallbacks, specRuns, specHits, starved, idle int
	var occupancy, predicted, measured []float64
	for _, o := range r.outcomes {
		proposals += o.proposals
		runs += o.runs
		pruned += o.pruned
		kept += o.kept
		fallbacks += o.fallbacks
		specRuns += o.specRuns
		specHits += o.specHits
		starved += o.starved
		idle += o.idle
		occupancy = append(occupancy, o.occupancy)
		predicted = append(predicted, o.predicted...)
		measured = append(measured, o.measured...)
	}
	m["search.proposals"] = float64(proposals)
	m["search.useful_frac"] = ratio(float64(runs), float64(proposals))
	m["core.occupancy"] = mean(occupancy)
	m["core.queue_starved"] = float64(starved)
	m["core.idle_slots"] = float64(idle)
	m["core.spec_runs"] = float64(specRuns)
	m["core.spec_hit_frac"] = ratio(float64(specHits), float64(specRuns))
	m["surrogate.predictions"] = float64(pruned + kept)
	m["surrogate.pruned_frac"] = ratio(float64(pruned), float64(pruned+kept))
	m["surrogate.fallbacks"] = float64(fallbacks)
	if pruned+kept > 0 {
		// Computed from one campaign: evaluations it would have charged
		// without the gate ÷ evaluations it did charge.
		m["surrogate.evals_avoided_x"] = ratio(float64(runs+pruned), float64(runs))
		m["surrogate.rank_corr"] = spearman(predicted, measured)
	}
	if r.cache != nil {
		m["history.hit_frac"] = ratio(float64(r.hits), float64(r.hits+r.misses))
		m["history.saved_s"] = float64(r.hits) * w.coldMissMS / 1e3
		var err error
		if m["history.save_ms"], m["history.open_ms"], m["history.file_kb"], err = r.cache.persist(); err != nil {
			return err
		}
	}
	if w.w1 {
		// Engine scaling: the same untraced repetition at Workers W and at
		// Workers 1, both with W threads to run on whatever the workload's
		// own GOMAXPROCS is.
		own := runtime.GOMAXPROCS(w.workers)
		one := *w
		one.campaigns = make([]*campaign, len(w.campaigns))
		for i, c := range w.campaigns {
			one.campaigns[i] = c.withWorkers(1)
		}
		rW, err := w.rep(nil)
		if err != nil {
			return err
		}
		r1, err := one.rep(nil)
		if err != nil {
			return err
		}
		runtime.GOMAXPROCS(own)
		perS1 := float64(r1.evals) / r1.wall.Seconds()
		perSW := float64(rW.evals) / rW.wall.Seconds()
		m["core.parallel_eff"] = perSW / (float64(w.workers) * perS1)
	}

	// simmpi's own account of a run, where the simulator exposes it: the
	// default configuration and the best the first campaign found.
	c, o := w.campaigns[0], r.outcomes[0]
	if frac, msgs, bytes, ok, err := c.waitFrac(c.defaultConfig()); err != nil {
		return err
	} else if ok {
		m["simmpi.wait_frac_default"], m["simmpi.msgs_per_eval"], m["simmpi.bytes_per_eval"] = frac, msgs, bytes
		if m["simmpi.wait_frac_best"], _, _, _, err = c.waitFrac(o.bestConfig); err != nil {
			return err
		}
	}

	// Probes of the layers that do this workload's work.
	sims := make(map[string]bool)
	for _, c := range w.campaigns {
		sims[c.sim] = true
	}
	if w.replay {
		m["space.key_ns"], m["space.decode_ns"] = probeSpace()
		return nil
	}
	mp, err := probeSimmpi()
	if err != nil {
		return err
	}
	m["simmpi.run_overhead_us"] = mp.runOverheadUS
	if sims["petscsim"] {
		m["simmpi.pingpong_ns"], m["simmpi.handoff_ns"] = mp.pingpongNS, mp.handoffNS
		sp, err := probeSparse()
		if err != nil {
			return err
		}
		m["sparse.plan_build_ms"], m["sparse.matvec_us"] = sp.planBuildMS, sp.matvecUS
		m["sparse.matvec_allocs"], m["sparse.nnz_per_s"] = sp.matvecAllocs, sp.nnzPerS
		m["ksp.solve_ms"], m["ksp.iterations"] = sp.solveMS, sp.iterations
	}
	if sims["gs2"] || sims["pop"] {
		m["simmpi.allreduce_ns"], m["simmpi.alltoallv_us"] = mp.allreduceNS, mp.alltoallvUS
	}
	if sims["gs2"] {
		if m["gs2.run_cold_ms"], m["gs2.plan_cold_ms"], err = probeGS2(int(w.seed)); err != nil {
			return err
		}
	}
	if sims["pop"] {
		if m["pop.layout_cold_ms"], err = probePOP(); err != nil {
			return err
		}
	}
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
