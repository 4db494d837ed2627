package main

// adapters.go holds every call the benchmark makes into the program
// under test, and is the only file that imports harmony/internal/...:
// a change that narrows or renames an API breaks the benchmark here
// and nowhere else. The rest of the package sees campaigns, sessions
// and probes through the plain types declared in this file.

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"net"
	"os"
	"runtime"
	"strconv"
	"sync"
	"time"

	"harmony/internal/client"
	"harmony/internal/cluster"
	"harmony/internal/core"
	"harmony/internal/gs2"
	"harmony/internal/history"
	"harmony/internal/ksp"
	"harmony/internal/petscsim"
	"harmony/internal/pop"
	"harmony/internal/proto"
	"harmony/internal/search"
	"harmony/internal/server"
	"harmony/internal/simmpi"
	"harmony/internal/space"
	"harmony/internal/sparse"
	"harmony/internal/surrogate"
)

// ---------------------------------------------------------------
// Off-line campaigns: core.Tune + Options, the app Objective/Run
// constructors, the strategy constructors.
// ---------------------------------------------------------------

// campaign is one off-line tuning campaign, rebuilt from scratch on
// every tune call so strategy and application state never leak
// between repetitions.
type campaign struct {
	id  int
	sim string // simulator layer its objective runs: petscsim, gs2 or pop
	// app and machine are the evaluation identity an EvalCache binds to.
	app, machine string
	opt          core.Options
	// build returns the space, a fresh strategy and a fresh objective.
	build func() (*space.Space, search.Strategy, core.Objective)
	// defaultPoint is the paper's default configuration in the space.
	defaultPoint func(sp *space.Space) space.Point
	// runStats, when the simulator exposes it, re-runs a configuration
	// and returns the simulated-MPI statistics of that run.
	runStats func(cfg space.Config) (simmpi.Stats, error)
}

// slesCampaign is Fig. 2 large (or its 4-rank small variant under
// -quick): adaptive simplex from the even decomposition on the
// sequential engine. The application is built inside build, so every
// tune call pays matrix assembly and a cold sparse.PlanCache the way
// one htune invocation does.
func slesCampaign(quick bool) *campaign {
	newApp := func() *petscsim.SLESApp { return petscsim.NewBandSLESApp(6000, 16, 4, 120, 2) }
	m := cluster.Seaborg(16, 1)
	maxRuns := 80
	if quick {
		newApp = func() *petscsim.SLESApp { return petscsim.NewSLESApp(600, 4, 3, 60, 11) }
		m = cluster.Seaborg(4, 1)
		maxRuns = 12
	}
	// ref answers questions about the problem (its default point, the
	// statistics of one run); it is never the application being tuned.
	ref := newApp()
	return &campaign{
		sim: "petscsim", app: "fig2-sles-large", machine: m.Fingerprint(),
		opt: core.Options{MaxRuns: maxRuns},
		build: func() (*space.Space, search.Strategy, core.Objective) {
			app := newApp()
			sp := app.Space()
			return sp, search.NewSimplex(sp, search.SimplexOptions{
				Start: app.EvenPoint(), StepFraction: 0.2, Adaptive: true, Restarts: 8}), app.Objective(m)
		},
		defaultPoint: func(*space.Space) space.Point { return ref.EvenPoint() },
		runStats: func(cfg space.Config) (simmpi.Stats, error) {
			return ref.RunStats(m, ref.PartitionFor(cfg))
		},
	}
}

func gs2Base() gs2.Config { return gs2.DefaultConfig() } // Table 3: 10-step benchmarking runs

// gs2EnsembleCampaign is Table 3 searched by the bandit ensemble on
// the pipelined engine.
func gs2EnsembleCampaign(id int, seed int64, workers, maxRuns int) *campaign {
	return &campaign{
		id: id, sim: "gs2", app: "table3-gs2", machine: "myrinet-linux-ppn2",
		opt: core.Options{MaxRuns: maxRuns, Workers: workers, Async: true, AsyncDepth: 8},
		build: func() (*space.Space, search.Strategy, core.Objective) {
			sp := gs2.ResolutionSpace(64)
			return sp, search.NewEnsemble(sp, search.EnsembleOptions{Seed: seed, Budget: maxRuns}),
				gs2.ResolutionObjective(gs2.LinuxCluster, gs2Base())
		},
		defaultPoint: func(sp *space.Space) space.Point { return gs2.ResolutionStart(sp, 16, 26, 32) },
	}
}

// gs2SimplexCampaign is Table 3 as the paper ran it: the simplex from
// the default resolution, on the sequential engine.
func gs2SimplexCampaign(id int) *campaign {
	return &campaign{
		id: id, sim: "gs2", app: "table3-gs2", machine: "myrinet-linux-ppn2",
		opt: core.Options{MaxRuns: 35},
		build: func() (*space.Space, search.Strategy, core.Objective) {
			sp := gs2.ResolutionSpace(64)
			return sp, search.NewSimplex(sp, search.SimplexOptions{
					Start: gs2.ResolutionStart(sp, 16, 26, 32), StepFraction: 0.5, Restarts: 12}),
				gs2.ResolutionObjective(gs2.LinuxCluster, gs2Base())
		},
		defaultPoint: func(sp *space.Space) space.Point { return gs2.ResolutionStart(sp, 16, 26, 32) },
	}
}

func popBase() (pop.Config, *cluster.Machine) {
	cfg := pop.DefaultConfig(720, 480)
	cfg.Steps, cfg.BarotropicIters = 2, 4
	return cfg, cluster.Seaborg(8, 4)
}

// popPROCampaign is Fig. 4 searched by PRO from the default block size
// on the round engine, with or without the analytic surrogate.
// MaxProposals is 3 × MaxRuns rather than the default 10 ×: on this
// 40 × 30 lattice one PRO campaign in twelve collapses onto points it
// has already measured and re-proposes them until the proposal budget
// ends it, and at 400 proposals those few campaigns were most of the
// workload's time and all of its seed-to-seed variation.
func popPROCampaign(id int, seed int64, workers int, withSurrogate bool) *campaign {
	base, m := popBase()
	c := &campaign{
		id: id, sim: "pop", app: "fig4-pop", machine: m.Fingerprint(),
		// Workers ≥ 2 selects the round engine whatever the host has.
		opt: core.Options{MaxRuns: 40, MaxProposals: 120, Workers: max(workers, 2)},
		build: func() (*space.Space, search.Strategy, core.Objective) {
			sp := pop.BlockSpace()
			return sp, search.NewPRO(sp, search.PROOptions{Seed: seed, Start: pop.BlockStart(base.BX, base.BY)}),
				pop.BlockObjective(m, base)
		},
		defaultPoint: func(*space.Space) space.Point { return pop.BlockStart(base.BX, base.BY) },
		runStats: func(cfg space.Config) (simmpi.Stats, error) {
			run := base
			run.BX, run.BY = int(cfg.Int("bx")), int(cfg.Int("by"))
			return pop.RunStats(m, run)
		},
	}
	if withSurrogate {
		c.opt.Surrogate = &core.SurrogateOptions{Model: surrogate.For(c.app)}
	}
	return c
}

// withWorkers returns the campaign at another worker count, for the
// Workers 1 vs W determinism oracle and core.parallel_eff.
func (c *campaign) withWorkers(n int) *campaign {
	d := *c
	d.opt.Workers = n
	return &d
}

// evalCache is the cross-campaign evaluation cache (history.EvalCache);
// each campaign binds it under its own namespace.
type evalCache struct {
	c    *history.EvalCache
	path string
}

// newEvalCache returns an empty cache: in memory, or backed by path
// (which must not exist yet) when the run also times persistence.
func newEvalCache(path string) (*evalCache, error) {
	if path == "" {
		return &evalCache{c: history.NewEvalCache()}, nil
	}
	c, err := history.OpenEvalCache(path)
	if err != nil {
		return nil, err
	}
	return &evalCache{c: c, path: path}, nil
}

func (e *evalCache) counters() (hits, misses int64) { return e.c.Counters() }

// persist saves the cache to its path, opens it again, and removes the
// file: the history layer's disk path, timed on the entries a
// repetition really produced.
func (e *evalCache) persist() (saveMS, openMS, fileKB float64, err error) {
	if e.path == "" {
		return 0, 0, 0, nil
	}
	t0 := time.Now()
	if err := e.c.Save(); err != nil {
		return 0, 0, 0, err
	}
	saveMS = ms(time.Since(t0))
	t0 = time.Now()
	back, err := history.OpenEvalCache(e.path)
	if err != nil {
		return 0, 0, 0, err
	}
	openMS = ms(time.Since(t0))
	if back.Len() != e.c.Len() {
		return 0, 0, 0, fmt.Errorf("history: saved %d evaluations, read back %d", e.c.Len(), back.Len())
	}
	st, err := os.Stat(e.path)
	if err != nil {
		return 0, 0, 0, err
	}
	return saveMS, openMS, float64(st.Size()) / 1024, os.Remove(e.path)
}

// hooks select what a tune call is instrumented with. The zero value
// is the bare program.
type hooks struct {
	tr     *tracer    // traced pass: decorators around every layer boundary
	parent int        // span that causes the campaign (the repetition)
	ops    *opLog     // untraced pass, op = one objective call: two clock reads around it
	cache  *evalCache // evaluation cache bound under the campaign's namespace
}

// opLog collects op latencies in milliseconds from concurrent workers.
type opLog struct {
	mu sync.Mutex
	ms []float64
}

func (l *opLog) add(d time.Duration) {
	l.mu.Lock()
	l.ms = append(l.ms, ms(d))
	l.mu.Unlock()
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// tuned is a finished core.Tune call, before it is condensed.
type tuned struct {
	sp    *space.Space
	res   *core.Result
	preds map[string]float64 // traced surrogate scores by point key
}

// brief is the cheap identity of a result: enough to see that a later
// pass of one campaign repeated the first, without hashing its trials
// inside the timed region.
func (t *tuned) brief() (runs int, bestValue float64) { return t.res.Runs, t.res.BestValue }

// tune runs the campaign through core.Tune.
func (c *campaign) tune(h hooks) (*tuned, error) {
	sp, strat, obj := c.build()
	opt := c.opt
	if h.cache != nil {
		opt.Cache = h.cache.c.BoundNS(c.app, c.machine, "campaign-"+strconv.Itoa(c.id), sp)
	}
	var preds map[string]float64
	root := -1
	switch {
	case h.tr != nil:
		root = h.tr.begin("core.tune", h.parent, c.id)
		sc := scope{h.tr, root, c.id}
		strat = traceStrategy(strat, sc)
		obj = traceObjective(obj, c.sim+".run", sc)
		if opt.Cache != nil {
			opt.Cache = &tracedCache{opt.Cache, sc}
		}
		if opt.Surrogate != nil {
			preds = make(map[string]float64)
			so := *opt.Surrogate
			so.Model = &tracedSurrogate{inner: so.Model, sc: sc, preds: preds}
			opt.Surrogate = &so
		}
	case h.ops != nil:
		inner := obj
		obj = func(ctx context.Context, cfg space.Config) (float64, error) {
			t0 := time.Now()
			v, err := inner(ctx, cfg)
			h.ops.add(time.Since(t0))
			return v, err
		}
	}
	res, err := core.Tune(context.Background(), sp, strat, obj, opt)
	if root >= 0 {
		h.tr.end(root)
	}
	if err != nil {
		return nil, fmt.Errorf("campaign %d (%s): %w", c.id, c.app, err)
	}
	return &tuned{sp, res, preds}, nil
}

// outcome is what the benchmark keeps of a core.Result: the fields the
// metrics and the oracles read, as plain values.
type outcome struct {
	id                        int
	app                       string // the application tuned; campaigns of one app share an objective scale
	best                      string // lattice point key
	bestConfig                space.Config
	bestValue                 float64
	runs, proposals, failures int
	tuningCost                float64
	bestAtRun                 int
	fingerprint               string // every deterministic Result field and the whole trial log

	defaultValue   float64 // default configuration, as the campaign measured or the app re-ran it
	startIsDefault bool    // the first evaluated configuration was the default
	bestMeasured   bool    // a non-pruned trial at Best carries BestValue bit for bit
	costToBest     float64 // tuning cost charged up to and including run BestAtRun

	cacheHits, cacheMisses  int
	pruned, kept, fallbacks int
	specRuns, specHits      int
	starved, idle           int
	occupancy               float64
	predicted, measured     []float64 // surrogate score vs measurement on kept trials
}

// condense extracts the outcome of a tuned campaign.
func (c *campaign) condense(t *tuned) (*outcome, error) {
	sp, res, preds := t.sp, t.res, t.preds
	o := &outcome{
		id: c.id, app: c.app, best: res.Best.Key(), bestConfig: res.BestConfig,
		bestValue: res.BestValue,
		runs:      res.Runs, proposals: res.Proposals, failures: res.Failures,
		tuningCost: res.TuningCost, bestAtRun: res.BestAtRun,
		fingerprint: fingerprint(res),
		cacheHits:   res.CacheHits, cacheMisses: res.CacheMisses,
		pruned: res.SurrogatePruned, kept: res.SurrogateKept, fallbacks: res.SurrogateFallbacks,
		specRuns: res.SpeculativeRuns, specHits: res.SpeculativeHits,
		starved: res.QueueStarved, idle: res.IdleSlots, occupancy: res.WorkerOccupancy,
	}
	def := c.defaultPoint(sp).Key()
	o.defaultValue = math.NaN()
	reachedBest := false
	for i := range res.Trials {
		t := &res.Trials[i]
		key := t.Point.Key()
		if t.Pruned {
			continue
		}
		if key == o.best && math.Float64bits(t.Value) == math.Float64bits(res.BestValue) {
			o.bestMeasured = true
		}
		if key == def && t.Err == nil && math.IsNaN(o.defaultValue) {
			o.defaultValue = t.Value
		}
		if t.Run == 0 {
			continue // answered from the session memo: charged nothing
		}
		if t.Run == 1 {
			o.startIsDefault = key == def
		}
		if !reachedBest {
			if t.Err == nil {
				o.costToBest += t.Value
			}
			o.costToBest += c.opt.RunOverhead
			reachedBest = t.Run == res.BestAtRun
		}
		if p, ok := preds[key]; ok && t.Err == nil {
			o.predicted = append(o.predicted, p)
			o.measured = append(o.measured, t.Value)
		}
	}
	if math.IsNaN(o.defaultValue) {
		// The search never visited the default: measure it directly.
		v, err := c.remeasure(sp.MustDecode(c.defaultPoint(sp)))
		if err != nil {
			return nil, fmt.Errorf("campaign %d default configuration: %w", c.id, err)
		}
		o.defaultValue = v
	}
	return o, nil
}

// remeasure evaluates a configuration on a freshly built objective,
// outside any engine, cache or decorator.
func (c *campaign) remeasure(cfg space.Config) (float64, error) {
	_, _, obj := c.build()
	return obj(context.Background(), cfg)
}

// waitFrac re-runs a configuration where the simulator exposes its
// statistics and returns Σ WaitTime ÷ Σ RankClocks with the message
// and byte counts of that run.
func (c *campaign) waitFrac(cfg space.Config) (frac, msgs, bytes float64, ok bool, err error) {
	if c.runStats == nil {
		return 0, 0, 0, false, nil
	}
	st, err := c.runStats(cfg)
	if err != nil {
		return 0, 0, 0, false, err
	}
	var wait, clocks float64
	for i := range st.RankClocks {
		wait += st.WaitTime[i]
		clocks += st.RankClocks[i]
	}
	if clocks > 0 {
		frac = wait / clocks
	}
	return frac, float64(st.Messages), float64(st.BytesSent), true, nil
}

func (c *campaign) defaultConfig() space.Config {
	sp, _, _ := c.build()
	return sp.MustDecode(c.defaultPoint(sp))
}

// fingerprint condenses every field of a Result that is a function of
// strategy, seed and depth alone, the whole trial log included, so two
// results compare with ==. QueueStarved and IdleSlots are left out:
// they are deterministic too, but count unfilled worker slots, so
// they depend on Workers and on cache state by design.
func fingerprint(res *core.Result) string {
	h := sha256.New()
	var buf [8]byte
	add := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	flag := func(b bool) {
		if b {
			add(1)
		} else {
			add(0)
		}
	}
	for i := range res.Trials {
		t := &res.Trials[i]
		add(uint64(t.Proposal))
		add(uint64(t.Run))
		for _, c := range t.Point {
			add(uint64(c))
		}
		add(math.Float64bits(t.Value))
		flag(t.Cached)
		flag(t.Pruned)
		flag(t.Err != nil)
	}
	return fmt.Sprintf("runs=%d proposals=%d failures=%d best=%s bestValue=%x bestAtRun=%d cost=%x converged=%t pruned=%d kept=%d trials=%x",
		res.Runs, res.Proposals, res.Failures, res.Best.Key(), math.Float64bits(res.BestValue),
		res.BestAtRun, math.Float64bits(res.TuningCost), res.Converged,
		res.SurrogatePruned, res.SurrogateKept, h.Sum(nil)[:8])
}

// ---------------------------------------------------------------
// Timing decorators for the traced pass. Each wraps one interface of
// the program from outside and records a span per call.
// ---------------------------------------------------------------

// scope is where a decorator's spans hang: the tracer, the span that
// causes them, and the campaign they belong to.
type scope struct {
	tr     *tracer
	parent int
	id     int
}

func (s scope) span(name string) func() {
	i := s.tr.begin(name, s.parent, s.id)
	return func() { s.tr.end(i) }
}

func traceObjective(obj core.Objective, name string, sc scope) core.Objective {
	return func(ctx context.Context, cfg space.Config) (float64, error) {
		defer sc.span(name)()
		return obj(ctx, cfg)
	}
}

// traceStrategy wraps a strategy in the decorator that exposes exactly
// the contracts the original implements, because the engines choose
// their code path by type assertion: hiding AsyncStrategy or
// BatchStrategy behind a plain Strategy would change what is measured.
func traceStrategy(s search.Strategy, sc scope) search.Strategy {
	base := tracedStrategy{s, sc}
	if as, ok := s.(search.AsyncStrategy); ok {
		return &tracedAsync{base, as}
	}
	if bs, ok := s.(search.BatchStrategy); ok {
		return &tracedBatch{base, bs}
	}
	return &base
}

type tracedStrategy struct {
	inner search.Strategy
	sc    scope
}

func (t *tracedStrategy) Name() string                       { return t.inner.Name() }
func (t *tracedStrategy) Best() (space.Point, float64, bool) { return t.inner.Best() }

func (t *tracedStrategy) Next() (space.Point, bool) {
	defer t.sc.span("search.ask")()
	return t.inner.Next()
}

func (t *tracedStrategy) Report(pt space.Point, v float64) {
	defer t.sc.span("search.tell")()
	t.inner.Report(pt, v)
}

type tracedBatch struct {
	tracedStrategy
	bs search.BatchStrategy
}

func (t *tracedBatch) NextBatch() []space.Point {
	defer t.sc.span("search.ask")()
	return t.bs.NextBatch()
}

func (t *tracedBatch) ReportBatch(pts []space.Point, vs []float64) {
	defer t.sc.span("search.tell")()
	t.bs.ReportBatch(pts, vs)
}

type tracedAsync struct {
	tracedStrategy
	as search.AsyncStrategy
}

func (t *tracedAsync) Ask() (space.Point, bool) {
	defer t.sc.span("search.ask")()
	pt, ok := t.as.Ask()
	t.sc.tr.count("search.ask_calls", 1)
	if !ok && !t.as.Done() {
		t.sc.tr.count("search.ask_stalled", 1)
	}
	return pt, ok
}

func (t *tracedAsync) Commit(pt space.Point, v float64) {
	defer t.sc.span("search.tell")()
	t.as.Commit(pt, v)
}

func (t *tracedAsync) Done() bool { return t.as.Done() }

type tracedCache struct {
	inner core.PointCache
	sc    scope
}

func (t *tracedCache) Lookup(pt space.Point) (float64, bool) {
	defer t.sc.span("history.lookup")()
	return t.inner.Lookup(pt)
}

func (t *tracedCache) Store(pt space.Point, v float64) {
	defer t.sc.span("history.store")()
	t.inner.Store(pt, v)
}

// tracedSurrogate also keeps every score, so the kept trials can be
// rank-correlated against their measurements afterwards. The engines
// score from their coordinating goroutine only.
type tracedSurrogate struct {
	inner core.Surrogate
	sc    scope
	preds map[string]float64
}

func (t *tracedSurrogate) Predict(pt space.Point, cfg space.Config) (float64, bool) {
	defer t.sc.span("surrogate.predict")()
	v, ok := t.inner.Predict(pt, cfg)
	if ok {
		t.preds[pt.Key()] = v
	}
	return v, ok
}

// ---------------------------------------------------------------
// On-line sessions: server.New/Serve, client.Dial/DialMux, Register,
// Attach and the four session calls.
// ---------------------------------------------------------------

// tuningServer is an in-process harmonyd on a loopback port.
type tuningServer struct {
	srv    *server.Server
	addr   string
	served chan error
}

func startServer() (*tuningServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	s := &tuningServer{srv: server.New(), addr: ln.Addr().String(), served: make(chan error, 1)}
	s.srv.Logf = func(string, ...any) {}
	go func() { s.served <- s.srv.Serve(ln) }()
	return s, nil
}

// close stops the server and waits for its accept loop and handlers.
func (s *tuningServer) close() error {
	err := s.srv.Close()
	if serr := <-s.served; err == nil {
		err = serr
	}
	return err
}

// serverCounters are the server.Stats fields the benchmark reads.
type serverCounters struct {
	sessionsActive, fetches, accepted, droppedStale   int64
	reissued, forfeited, queueStarved, asyncCommitted int64
}

func (s *tuningServer) counters() serverCounters {
	st := s.srv.Stats()
	return serverCounters{
		sessionsActive: st.SessionsActive, fetches: st.Fetches,
		accepted: st.ReportsAccepted, droppedStale: st.ReportsDroppedStale,
		reissued: st.ProposalsReissued, forfeited: st.ProposalsForfeited,
		queueStarved: st.QueueStarved, asyncCommitted: st.AsyncCommitted,
	}
}

// session is the protocol-independent session surface; client.Session
// and client.MuxSession both provide it.
type session interface {
	ID() string
	Fetch() (values map[string]string, converged bool, err error)
	Report(perf float64) error
	Best() (values map[string]string, perf float64, err error)
	Done() error
}

// sessionConn is one client connection, binary-multiplexed or JSON.
type sessionConn interface {
	register(reg registration) (session, error)
	attach(id string) session
	close() error
}

// registration is what the on-line workloads vary between sessions.
type registration struct {
	strategy string // "simplex", "pro" or "ensemble"
	seed     int64
	maxRuns  int
	parallel bool
	async    bool
}

func (r registration) wire() client.Registration {
	strat := map[string]string{
		"simplex": proto.StrategySimplex, "pro": proto.StrategyPRO, "ensemble": proto.StrategyEnsemble,
	}[r.strategy]
	reg := client.Registration{
		App: "bench-bowl", Space: bowlSpace(), Strategy: strat, Seed: r.seed,
		MaxRuns: r.maxRuns, Parallel: r.parallel, Async: r.async,
	}
	if r.async {
		reg.AsyncDepth = 8
	}
	return reg
}

// bowlSpace is harmonyload's space: large enough that searches take
// their full budget, small enough that the protocol dominates.
func bowlSpace() *space.Space {
	return space.MustNew(space.IntParam("x", 0, 40, 1), space.IntParam("y", 0, 40, 1))
}

type muxConn struct{ m *client.Mux }

func dialBinary(addr string) (sessionConn, error) {
	m, err := client.DialMux(addr)
	if err != nil {
		return nil, err
	}
	return muxConn{m}, nil
}

func (c muxConn) register(reg registration) (session, error) { return c.m.Register(reg.wire()) }
func (c muxConn) attach(id string) session                   { return c.m.Attach(id) }
func (c muxConn) close() error                               { return c.m.Close() }

type jsonConn struct{ c *client.Client }

func dialJSON(addr string) (sessionConn, error) {
	c, err := client.Dial(addr)
	if err != nil {
		return nil, err
	}
	return jsonConn{c}, nil
}

func (c jsonConn) register(reg registration) (session, error) { return c.c.Register(reg.wire()) }
func (c jsonConn) attach(id string) session                   { return c.c.Attach(id) }
func (c jsonConn) close() error                               { return c.c.Close() }

// pipeListener hands Server.Serve the far ends of net.Pipe pairs, so
// the same server code runs without the loopback TCP stack.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *pipeListener) dial() (net.Conn, error) {
	a, b := net.Pipe()
	select {
	case l.conns <- b:
		return a, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error   { l.once.Do(func() { close(l.done) }); return nil }
func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// pipeRoundUS is the median fetch→report round of a shared simplex
// session over net.Pipe, binary or JSON: server and codec without TCP.
func pipeRoundUS(binaryProto bool, rounds int) (float64, error) {
	ln := newPipeListener()
	srv := server.New()
	srv.Logf = func(string, ...any) {}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	nc, err := ln.dial()
	if err != nil {
		return 0, err
	}
	var conn sessionConn
	if binaryProto {
		m, err := client.NewMuxFromConn(nc)
		if err != nil {
			return 0, err
		}
		conn = muxConn{m}
	} else {
		conn = jsonConn{client.NewFromConn(proto.NewConn(nc))}
	}
	us := make([]float64, 0, rounds)
	var sess session
	for len(us) < rounds {
		if sess == nil {
			if sess, err = conn.register(registration{strategy: "simplex", maxRuns: 40}); err != nil {
				return 0, err
			}
		}
		t0 := time.Now()
		vals, converged, err := sess.Fetch()
		if err != nil {
			return 0, err
		}
		if converged {
			if err := sess.Done(); err != nil {
				return 0, err
			}
			sess = nil
			continue
		}
		if err := sess.Report(bowl(vals, 25, 5)); err != nil {
			return 0, err
		}
		us = append(us, float64(time.Since(t0))/1e3)
	}
	_ = conn.close() // probe teardown; the measurements are already in
	err = srv.Close()
	<-served
	return median(us), err
}

// bowl is harmonyload's zero-cost objective with a movable optimum.
func bowl(values map[string]string, cx, cy int) float64 {
	x, _ := strconv.Atoi(values["x"])
	y, _ := strconv.Atoi(values["y"])
	dx, dy := float64(x-cx), float64(y-cy)
	return 10 + dx*dx + dy*dy
}

// ---------------------------------------------------------------
// Fixed-input probes: exported functions of one layer, called
// directly, so a layer has a number that does not depend on which
// campaign happened to exercise it.
// ---------------------------------------------------------------

// timeN returns the mean duration in nanoseconds of n calls.
func timeN(n int, fn func()) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	return float64(time.Since(t0)) / float64(n)
}

// mallocs returns heap allocations per call over n calls.
func mallocs(n int, fn func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n)
}

func probeSpace() (keyNS, decodeNS float64) {
	sp := gs2.ResolutionSpace(64)
	pt := gs2.ResolutionStart(sp, 16, 26, 32)
	keyNS = timeN(20000, func() { _ = pt.Key() })
	decodeNS = timeN(20000, func() { _, _ = sp.Decode(pt) })
	return keyNS, decodeNS
}

type sparseProbe struct {
	planBuildMS, matvecUS, matvecAllocs, nnzPerS float64
	solveMS, iterations                          float64
}

// probeSparse times plan construction, the workspace MatVec and a CG
// solve on Poisson2D 100² over 8 ranks, as the root micro-benchmarks do.
func probeSparse() (sparseProbe, error) {
	var p sparseProbe
	a := sparse.Poisson2D(100, 100)
	part := sparse.EvenPartition(a.N, 8)
	var dm *sparse.DistMatrix
	var err error
	p.planBuildMS = timeN(5, func() { dm, err = sparse.NewDistMatrix(a, part) }) / 1e6
	if err != nil {
		return p, err
	}
	x := make([]float64, a.N)
	for i := range x {
		x[i] = float64(i % 17)
	}
	m := cluster.Seaborg(8, 1)
	const iters = 200
	_, err = simmpi.Run(m, 8, func(r *simmpi.Rank) {
		ws := dm.AcquireWorkspace(r.ID())
		defer dm.ReleaseWorkspace(r.ID(), ws)
		xl := dm.Scatter(r.ID(), x)
		dm.MatVecInto(ws, r, 7, xl) // warm the workspace and the payload free lists
		if r.ID() == 0 {
			t0 := time.Now()
			// Process-wide mallocs while all eight ranks iterate: the whole
			// world's allocations per distributed product.
			p.matvecAllocs = mallocs(iters, func() { dm.MatVecInto(ws, r, 7, xl) })
			p.matvecUS = float64(time.Since(t0)) / iters / 1e3
		} else {
			for i := 0; i < iters; i++ {
				dm.MatVecInto(ws, r, 7, xl)
			}
		}
	})
	if err != nil {
		return p, err
	}
	if p.matvecUS > 0 {
		p.nnzPerS = float64(a.NNZ()) / (p.matvecUS / 1e6) // computed from the matrix size, not counted
	}
	b := make([]float64, a.N)
	for i := range b {
		b[i] = 1
	}
	var its int
	t0 := time.Now()
	_, err = simmpi.Run(m, 8, func(r *simmpi.Rank) {
		_, res := ksp.CG(r, dm, dm.Scatter(r.ID(), b), 1e-8, 500)
		if r.ID() == 0 {
			its = res.Iterations
		}
	})
	p.solveMS, p.iterations = ms(time.Since(t0)), float64(its)
	return p, err
}

type simmpiProbe struct {
	runOverheadUS, pingpongNS, handoffNS, allreduceNS, alltoallvUS float64
}

func probeSimmpi() (simmpiProbe, error) {
	var p simmpiProbe
	var firstErr error
	keep := func(_ simmpi.Stats, err error) {
		if firstErr == nil {
			firstErr = err
		}
	}
	m32 := cluster.Seaborg(8, 4)
	p.runOverheadUS = timeN(200, func() { keep(simmpi.Run(m32, 32, func(*simmpi.Rank) {})) }) / 1e3

	const n = 5000
	t0 := time.Now()
	keep(simmpi.Run(cluster.Seaborg(1, 2), 2, func(r *simmpi.Rank) {
		buf := []float64{1}
		for i := 0; i < n; i++ {
			if r.ID() == 0 {
				r.SendOwned(1, 0, buf)
				buf = r.Recv(1, 1)
			} else {
				buf = r.Recv(0, 0)
				r.SendOwned(0, 1, buf)
			}
		}
	}))
	p.pingpongNS = float64(time.Since(t0)) / n

	const laps = 500
	t0 = time.Now()
	keep(simmpi.Run(cluster.Seaborg(2, 16), 32, func(r *simmpi.Rank) {
		next, prev := (r.ID()+1)%r.Size(), (r.ID()+r.Size()-1)%r.Size()
		for i := 0; i < laps; i++ {
			if r.ID() == 0 {
				r.SendBytes(next, 0, 8)
				r.Recv(prev, 0)
			} else {
				r.Recv(prev, 0)
				r.SendBytes(next, 0, 8)
			}
		}
	}))
	p.handoffNS = float64(time.Since(t0)) / (laps * 32)

	const reds = 2000
	t0 = time.Now()
	keep(simmpi.Run(cluster.Seaborg(4, 8), 32, func(r *simmpi.Rank) {
		for i := 0; i < reds; i++ {
			r.Allreduce1(simmpi.Sum, float64(r.ID()))
		}
	}))
	p.allreduceNS = float64(time.Since(t0)) / reds

	const a2a = 200
	t0 = time.Now()
	keep(simmpi.Run(gs2.LinuxCluster(32), 64, func(r *simmpi.Rank) {
		row := make([]int, r.Size())
		for i := range row {
			row[i] = 4096
		}
		for i := 0; i < a2a; i++ {
			r.AlltoallvBytesRow(row)
		}
	}))
	p.alltoallvUS = float64(time.Since(t0)) / a2a / 1e3
	return p, firstErr
}

// probeGS2 times the first evaluation of a shape no campaign visits
// (odd ntheta is off the tuning lattice) and the redistribution-plan
// computation it pays for.
func probeGS2(salt int) (runColdMS, planColdMS float64, err error) {
	cfg := gs2Base()
	cfg.Ntheta = 27 + 2*(salt%20)
	t0 := time.Now()
	if _, err = gs2.Run(gs2.LinuxCluster(32), cfg); err != nil {
		return 0, 0, err
	}
	runColdMS = ms(time.Since(t0))
	d := gs2Base().Dims()
	planColdMS = timeN(3, func() { gs2.MoveMatrix(d, gs2.DefaultLayout, "xyles", 64) }) / 1e6
	return runColdMS, planColdMS, nil
}

func probePOP() (layoutColdMS float64, err error) {
	cfg, m := popBase()
	layoutColdMS = timeN(20, func() {
		if _, lerr := cfg.Layout(m.Procs()); lerr != nil {
			err = lerr
		}
	}) / 1e6
	return layoutColdMS, err
}

type codecProbe struct{ encodeNS, decodeNS, bytesPerMsg, allocsPerMsg float64 }

// probeProto pushes a fixed config-reply + report pair through each
// codec on an in-memory buffer.
func probeProto() (bin, js codecProbe, err error) {
	pair := []*proto.Message{
		{Type: proto.TypeConfig, Seq: 7, Values: map[string]string{"x": "25", "y": "5"}, Gen: 12, Tag: 3},
		{Type: proto.TypeReport, Seq: 8, Session: "s1234", Perf: 123.456, Gen: 12, Tag: 3},
	}
	const n = 5000
	fail := func(e error) {
		if err == nil {
			err = e
		}
	}

	frame := &proto.Frame{ID: 1, Msgs: pair}
	var wire []byte
	bin.encodeNS = timeN(n, func() {
		var e error
		if wire, e = proto.AppendFrame(wire[:0], frame); e != nil {
			fail(e)
		}
	}) / 2
	bin.bytesPerMsg = float64(len(wire)) / 2
	decodeBin := func() {
		if _, e := proto.ReadFrame(bufio.NewReader(bytes.NewReader(wire))); e != nil {
			fail(e)
		}
	}
	bin.decodeNS = timeN(n, decodeBin) / 2
	bin.allocsPerMsg = (mallocs(n, func() {
		wire, _ = proto.AppendFrame(wire[:0], frame)
	}) + mallocs(n, decodeBin)) / 2

	var buf rwBuffer
	conn := proto.NewConn(&buf)
	encodeJSON := func() {
		buf.Reset()
		for _, m := range pair {
			if e := conn.Send(m); e != nil {
				fail(e)
			}
		}
	}
	js.encodeNS = timeN(n, encodeJSON) / 2
	js.bytesPerMsg = float64(buf.Len()) / 2
	line := append([]byte(nil), buf.Bytes()...)
	decodeJSON := func() {
		rc := proto.NewConn(&rwBuffer{*bytes.NewBuffer(append([]byte(nil), line...))})
		for range pair {
			if _, e := rc.Recv(); e != nil {
				fail(e)
			}
		}
	}
	js.decodeNS = timeN(n, decodeJSON) / 2
	js.allocsPerMsg = (mallocs(n, encodeJSON) + mallocs(n, decodeJSON)) / 2
	return bin, js, err
}

// rwBuffer lets proto.Conn frame messages over a bytes.Buffer.
type rwBuffer struct{ bytes.Buffer }

func (*rwBuffer) Close() error { return nil }
