// Package server implements the Active Harmony tuning server: the
// Adaptation Controller behind the on-line tuning protocol.
//
// Applications register a parameter space, then fetch configurations
// and report measured performance while they run. A session is
// dispatched one of two ways:
//
//   - The single slot, by generation. One session may be shared by
//     several clients (for example one per node of a parallel job);
//     the server hands every client the same configuration and
//     advances the search only when all expected reports for that
//     configuration have arrived, aggregating them by taking the worst
//     (a parallel application moves at the speed of its slowest rank).
//   - The window, by tag (window.go): the on-line driver of
//     core.Window, the machine core.Tune drives off-line. A session
//     registered with Parallel or Async fans distinct candidates out to
//     concurrent clients — each fetch receives its own tagged
//     configuration — and their values commit to the strategy in the
//     order it issued them. Parallel issues one whole search round,
//     which is how the paper's PRO algorithm exploits many tuning
//     clients at once; Async bounds the window by a depth instead, so
//     no client waits at a round barrier.
//
// # Fault model
//
// The server assumes clients can crash, hang, or report late at any
// point, and degrades the search rather than wedging it:
//
//   - Every shared configuration carries a generation (proto.Gen) and
//     every window hand-out a tag; a report for a retired generation or
//     tag is acknowledged and dropped, never credited to the wrong
//     measurement.
//   - Sessions are leased: when SessionTimeout is set, a session
//     nobody has touched within the timeout is garbage-collected.
//   - Outstanding work has a straggler deadline: when ReportTimeout
//     is set, an overdue configuration or candidate is handed out
//     again (up to MaxReissues times) and then forfeited with a +Inf
//     penalty so the search always advances.
//
// Deadlines are evaluated lazily against the injected Clock whenever
// a message for the session arrives (or eagerly via ExpireNow), so
// the server needs no background goroutines and tests can drive time
// deterministically.
package server

import (
	"bufio"
	"container/heap"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"harmony/internal/core"
	"harmony/internal/history"
	"harmony/internal/proto"
	"harmony/internal/search"
	"harmony/internal/space"
)

// defaultMaxReissues is how many times an overdue proposal is
// re-issued before it is forfeited with a penalty value.
const defaultMaxReissues = 3

// penaltyValue is reported to the strategy for a proposal that was
// forfeited without receiving any measurement. +Inf never displaces
// the incumbent best and ranks the point worse than every genuine
// evaluation, so the search advances without being biased toward the
// unmeasured configuration.
var penaltyValue = math.Inf(1)

// Server is a Harmony tuning server. Create with New, start with
// Serve or ListenAndServe. The exported configuration fields must be
// set before the server starts serving.
type Server struct {
	// Logf receives diagnostic output; defaults to log.Printf. Set to
	// a no-op to silence.
	Logf func(format string, args ...any)

	// Clock supplies the wall clock used for leases and straggler
	// deadlines; defaults to time.Now. Tests inject a fake clock.
	Clock func() time.Time

	// SessionTimeout is the lease on an idle session: a session no
	// client has fetched, reported, or queried within this window is
	// garbage-collected. 0 disables expiry.
	SessionTimeout time.Duration

	// ReportTimeout bounds how long the server waits for outstanding
	// reports before treating their clients as stragglers: an overdue
	// shared configuration or window candidate is re-issued, and
	// forfeited with a penalty after MaxReissues expiries. Set it
	// above the longest expected evaluation; a slow-but-alive client
	// keeps its configuration (and generation) across re-issues, so
	// its report still lands. 0 disables the deadline.
	ReportTimeout time.Duration

	// MaxReissues is how many straggler expiries a proposal survives
	// before it is forfeited. <= 0 selects the default (3).
	MaxReissues int

	// Cache, if non-nil, answers proposals from the persistent
	// evaluation cache: a session whose (app, machine, space)
	// identity matches a prior measurement receives the cached value
	// through the strategy without the configuration ever being
	// handed to a client. Cached proposals still count against the
	// session's MaxRuns — the run-cost accounting is identical for
	// every cache state. Completed full-report measurements are
	// stored back; forfeits and failures never are.
	Cache *history.EvalCache

	// Surrogate resolves an application name to an analytic performance
	// model, for sessions that register with proto.Message.Surrogate.
	// When it returns a model, the session's fetch path screens every
	// proposal with core.SurrogateGate — the exact pruning rules of the
	// off-line engine — and answers the search at the predicted value
	// for configurations the model ranks confidently worse, without
	// handing them to any client. Best replies always come from genuine
	// measurements (the session shadows its measured best). Nil, or a
	// resolver returning nil for the app, ignores the flag.
	Surrogate func(app string) core.Surrogate

	// SurrogateKeep is the default fraction of proposals a surrogate
	// session actually evaluates when the registration does not choose
	// one; 0 selects core.DefaultSurrogateKeep.
	SurrogateKeep float64

	// AsyncDepth is the default pipeline window of sessions that
	// register with proto.Message.Async without choosing a depth of
	// their own: how many candidates may be in flight at once before
	// the oldest must commit. <= 0 selects core.DefaultAsyncDepth.
	AsyncDepth int

	// Shards is the number of independent session shards (see
	// shard.go). Each session lives on exactly one shard, selected by
	// hashing its id, and every protocol message locks only that
	// shard — no cross-shard locks exist on the dispatch path. Set
	// before serving; <= 0 selects DefaultShards.
	Shards int

	stats      counters
	shardsOnce sync.Once
	shards     []*shard
	nextID     atomic.Int64

	mu     sync.Mutex // guards ln, closed, conns — never session state
	ln     net.Listener
	closed bool
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
}

type session struct {
	mu       sync.Mutex
	id       string
	num      int64 // numeric part of id: deadline-queue tie-break
	app      string
	space    *space.Space
	strategy search.Strategy

	// Fault-tolerance plumbing, copied from the server at register
	// time. clock nil means time.Now; stats nil (sessions built
	// directly in tests) is allocated lazily by stat().
	clock         func() time.Time
	reportTimeout time.Duration
	maxReissues   int
	stats         *counters
	lastActive    time.Time // lease bookkeeping, guarded by mu

	pending         space.Point // configuration currently being measured
	gen             int         // generation of pending; stamped on config replies
	pendingSince    time.Time   // when pending was first handed out
	pendingExpiries int         // straggler deadlines missed by pending
	reports         []float64   // reports received for pending
	reporters       int         // reports needed before advancing
	converged       bool
	runs            int
	maxRuns         int

	// win makes the session a tagged one (window.go). Nil for a
	// shared-configuration session, which uses the single pending slot
	// above. All strategy calls stay under mu either way — strategies
	// are engine-locked and carry no locking of their own.
	win *window

	// cache is the session's view of the server's evaluation cache,
	// bound to (app, machine, namespace, space) at register time; nil
	// when the server has no cache.
	cache *history.BoundCache

	// Surrogate screening state (nil gate disables the layer). Pruned
	// proposals are answered to the strategy at the model's predicted
	// value and never charged to runs, so the strategy's own best may
	// hold a prediction; measuredPt/measuredVal shadow the best
	// genuinely measured configuration, and best replies use the
	// shadow. surPrunes counts the shared slot's prunes against its cap
	// (an adversarial model must not spin fetch forever; a window has
	// the machine's proposal cap).
	surGate     *core.SurrogateGate
	surPrunes   int
	measuredPt  space.Point
	measuredVal float64
	measuredOK  bool

	// stragglerArmed records whether a straggler deadline entry for
	// this session is queued on its shard. Guarded by the owning
	// shard's mutex, NOT ss.mu (it belongs to the shard's deadline
	// queue, which session methods never touch).
	stragglerArmed bool
}

// New constructs a server with no sessions.
func New() *Server {
	return &Server{
		Logf:  log.Printf,
		Clock: time.Now,
		conns: make(map[net.Conn]struct{}),
	}
}

func (s *Server) now() time.Time {
	if s.Clock != nil {
		return s.Clock()
	}
	return time.Now()
}

// ListenAndServe listens on addr (for example "127.0.0.1:0") and
// serves until Close. It returns the error from Accept after Close.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve accepts connections on ln until Close. Calling Serve on a
// server that is already closed (or that is closed concurrently
// during startup) returns nil after closing the listener: shutdown
// races resolve cleanly.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		// The listener was never served; nothing acts on its close
		// error during a shutdown race.
		_ = ln.Close()
		return nil
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handle(conn)
		}()
	}
}

// Addr returns the listener address, useful with ":0".
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Close stops accepting, closes all live connections, and waits for
// handlers to finish.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	ln := s.ln
	//harmonyvet:ignore maporder connection teardown is order-independent: closing live conns in any order only unblocks their handlers, and the reported error is the listener's
	for c := range s.conns {
		_ = c.Close() // best-effort teardown; the listener close error is the one reported
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.wg.Wait()
	return err
}

func (s *Server) handle(conn net.Conn) {
	defer func() {
		// The peer may already have hung up; the handler exits either way.
		_ = conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	// Sniff the protocol: JSON line messages open with '{', the
	// binary frame protocol opens with its handshake magic. One port
	// serves both.
	br := bufio.NewReader(conn)
	first, err := br.Peek(1)
	if err != nil {
		if err != io.EOF {
			s.Logf("harmony server: peek: %v", err)
		}
		return
	}
	if first[0] == proto.BinMagic[0] {
		s.handleBinary(conn, br)
		return
	}
	pc := proto.NewConnReader(conn, br)
	for {
		msg, err := pc.Recv()
		if err != nil {
			if err != io.EOF {
				s.Logf("harmony server: recv: %v", err)
			}
			return
		}
		reply := s.dispatch(msg)
		if err := pc.Send(reply); err != nil {
			s.Logf("harmony server: send: %v", err)
			return
		}
	}
}

func errorReply(format string, args ...any) *proto.Message {
	return &proto.Message{Type: proto.TypeError, Error: fmt.Sprintf(format, args...)}
}

func (s *Server) dispatch(msg *proto.Message) *proto.Message {
	switch msg.Type {
	case proto.TypeRegister:
		return s.register(msg)
	case proto.TypeFetch:
		return s.withSession(msg, (*session).fetch)
	case proto.TypeReport:
		return s.withSession(msg, func(ss *session, m *proto.Message) *proto.Message {
			return ss.report(m)
		})
	case proto.TypeBest:
		return s.withSession(msg, (*session).best)
	case proto.TypeDone:
		return s.done(msg)
	default:
		return errorReply("unknown message type %q", msg.Type)
	}
}

// sortedSessionIDs returns the ids of the session table in
// registration order ("s9" before "s10"), so sweeps and expiry logs
// visit sessions deterministically rather than in map order. The
// caller holds s.mu.
func sortedSessionIDs(sessions map[string]*session) []string {
	ids := make([]string, 0, len(sessions))
	for id := range sessions {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		a, aerr := strconv.Atoi(strings.TrimPrefix(ids[i], "s"))
		b, berr := strconv.Atoi(strings.TrimPrefix(ids[j], "s"))
		if aerr == nil && berr == nil && a != b {
			return a < b
		}
		return ids[i] < ids[j]
	})
	return ids
}

// ExpireNow applies lease and straggler deadlines immediately across
// every shard and returns the number of sessions garbage-collected.
// Deadlines are otherwise applied incrementally per shard when a
// message arrives (see expireDue); operators with long quiet periods
// (harmonyd's stats ticker) and tests call this to make abandoned
// sessions and rounds progress without client traffic. The sweep
// visits sessions in registration order across all shards, so expiry
// logs and counters stay reproducible.
func (s *Server) ExpireNow() int {
	now := s.now()
	shards := s.shardTable()
	all := make(map[string]*session)
	for _, sh := range shards {
		sh.mu.Lock()
		for id, ss := range sh.sessions {
			all[id] = ss
		}
		sh.mu.Unlock()
	}
	n := 0
	for _, id := range sortedSessionIDs(all) {
		if s.expireOne(all[id], now) {
			n++
		}
	}
	return n
}

// expireOne applies lease then straggler deadlines to one session,
// returning whether it was garbage-collected. Takes the session's
// shard lock, so concurrent dispatches stay correct. The expiry log
// line is emitted only after the shard lock is released: Logf is an
// injected callback that may block or re-enter the server, so
// lockorder forbids calling it under a shard lock.
func (s *Server) expireOne(ss *session, now time.Time) bool {
	sh := s.shardFor(ss.id)
	expired, idle := s.expireOneShard(sh, ss, now)
	if expired {
		s.Logf("harmony server: session %s lease expired after %v idle", ss.id, idle)
	}
	return expired
}

// expireOneShard is expireOne's locked region: it reports whether the
// session's lease expired and, if so, for how long it had been idle,
// leaving the logging to the caller.
func (s *Server) expireOneShard(sh *shard, ss *session, now time.Time) (bool, time.Duration) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.sessions[ss.id]; !ok {
		return false, 0 // collected since the snapshot
	}
	if s.SessionTimeout > 0 {
		ss.mu.Lock()
		last := ss.effectiveLastActiveLocked(now)
		ss.mu.Unlock()
		if idle := now.Sub(last); idle > s.SessionTimeout {
			delete(sh.sessions, ss.id)
			s.stats.sessionsExpired.Add(1)
			return true, idle
		}
	}
	ss.mu.Lock()
	ss.expireStragglersLocked(now)
	ss.mu.Unlock()
	return false, 0
}

func (s *Server) register(msg *proto.Message) *proto.Message {
	sp, err := proto.DecodeSpace(msg.Space)
	if err != nil {
		return errorReply("register: %v", err)
	}
	strat, err := buildStrategy(msg, sp)
	if err != nil {
		return errorReply("register: %v", err)
	}
	reporters := msg.Reporters
	if reporters <= 0 {
		reporters = 1
	}
	now := s.now()
	ss := &session{
		id: "", app: msg.App, space: sp, strategy: strat,
		reporters: reporters, maxRuns: msg.MaxRuns,
		clock:         s.now,
		reportTimeout: s.ReportTimeout,
		maxReissues:   s.MaxReissues,
		stats:         &s.stats,
		lastActive:    now,
	}
	if s.Cache != nil {
		ss.cache = s.Cache.BoundNS(msg.App, msg.Machine, msg.CacheNS, sp)
	}
	if msg.Surrogate && s.Surrogate != nil {
		if model := s.Surrogate(msg.App); model != nil {
			keep := msg.SurrogateKeep
			if keep == 0 {
				keep = s.SurrogateKeep
			}
			ss.surGate = core.NewSurrogateGate(&core.SurrogateOptions{Model: model, Keep: keep})
		}
	}
	switch {
	case msg.Async:
		// Async wins when both are requested: the pipeline is the round
		// window without its barrier.
		depth := msg.AsyncDepth
		if depth <= 0 {
			depth = s.AsyncDepth
		}
		if depth <= 0 {
			depth = core.DefaultAsyncDepth
		}
		ss.openWindow(search.AsAsync(strat), depth, 1)
	case msg.Parallel:
		ss.openWindow(search.AsAsync(search.AsBatch(strat)), core.Unbounded, core.Unbounded)
	}
	num := s.nextID.Add(1)
	id := "s" + strconv.FormatInt(num, 10)
	ss.id, ss.num = id, num
	sh := s.shardFor(id)
	s.expireDue(sh, now)
	sh.mu.Lock()
	sh.sessions[id] = ss
	if s.SessionTimeout > 0 {
		heap.Push(&sh.dq, deadlineEntry{at: now.Add(s.SessionTimeout), num: num, id: id, kind: leaseEntry})
	}
	sh.mu.Unlock()
	s.Logf("harmony server: registered session %s app=%q strategy=%s dims=%d", id, msg.App, strat.Name(), sp.Dims())
	return &proto.Message{Type: proto.TypeRegistered, Session: id}
}

func buildStrategy(msg *proto.Message, sp *space.Space) (search.Strategy, error) {
	switch msg.Strategy {
	case "", proto.StrategySimplex:
		return search.NewSimplex(sp, search.SimplexOptions{}), nil
	case proto.StrategyCoordinate:
		return search.NewCoordinate(sp, search.CoordinateOptions{}), nil
	case proto.StrategyRandom:
		max := msg.MaxRuns
		if max == 0 {
			max = 100
		}
		return search.NewRandom(sp, msg.Seed, max), nil
	case proto.StrategySystematic:
		budget := msg.MaxRuns
		if budget == 0 {
			budget = 100
		}
		return search.NewSystematic(sp, budget), nil
	case proto.StrategyPRO:
		return search.NewPRO(sp, search.PROOptions{Seed: msg.Seed}), nil
	case proto.StrategyEnsemble:
		budget := msg.MaxRuns
		if budget == 0 {
			budget = search.DefaultEnsembleBudget
		}
		return search.NewEnsemble(sp, search.EnsembleOptions{Seed: msg.Seed, Budget: budget}), nil
	case proto.StrategyExhaustive:
		if sp.Size() > 1_000_000 {
			return nil, fmt.Errorf("space too large for exhaustive search (%d points)", sp.Size())
		}
		return search.NewExhaustive(sp), nil
	default:
		return nil, fmt.Errorf("unknown strategy %q", msg.Strategy)
	}
}

func (s *Server) withSession(msg *proto.Message, fn func(*session, *proto.Message) *proto.Message) *proto.Message {
	sh := s.shardFor(msg.Session)
	s.expireDue(sh, s.now())
	sh.mu.Lock()
	ss, ok := sh.sessions[msg.Session]
	sh.mu.Unlock()
	if !ok {
		return errorReply("unknown session %q", msg.Session)
	}
	reply := fn(ss, msg)
	// The message may have issued new work (a pending configuration,
	// window hand-outs): make sure a straggler deadline is queued.
	s.armStraggler(sh, ss)
	return reply
}

func (s *Server) done(msg *proto.Message) *proto.Message {
	sh := s.shardFor(msg.Session)
	sh.mu.Lock()
	_, ok := sh.sessions[msg.Session]
	delete(sh.sessions, msg.Session)
	sh.mu.Unlock()
	if !ok {
		return errorReply("unknown session %q", msg.Session)
	}
	return &proto.Message{Type: proto.TypeOK}
}

func (ss *session) now() time.Time {
	if ss.clock != nil {
		return ss.clock()
	}
	return time.Now()
}

// stat returns the session's counter block, allocating a private one
// for sessions constructed directly (tests) without a server.
func (ss *session) stat() *counters {
	if ss.stats == nil {
		ss.stats = new(counters)
	}
	return ss.stats
}

func (ss *session) reissueLimit() int {
	if ss.maxReissues > 0 {
		return ss.maxReissues
	}
	return defaultMaxReissues
}

// noteMeasuredLocked shadows the best genuinely measured value of a
// surrogate or window session. With a surrogate, the strategy's own
// best may be a model prediction (pruned proposals are answered at
// their predicted value); behind a window a round-structured strategy
// only learns values at full-round commits — and never hears of a
// round the budget cut short — so its best lags the measurements the
// session already holds. Best replies read this shadow instead. The
// point is copied: rounds and strategies may reuse their backing
// arrays.
func (ss *session) noteMeasuredLocked(pt space.Point, v float64) {
	if (ss.surGate == nil && ss.win == nil) || math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	if !ss.measuredOK || v < ss.measuredVal {
		ss.measuredPt = append(space.Point(nil), pt...)
		ss.measuredVal = v
		ss.measuredOK = true
	}
}

// expireStragglersLocked applies the straggler deadline to whatever
// the session is waiting on. Shared-config sessions: an overdue
// pending configuration with partial reports is finalised with the
// survivors' aggregate; with no reports it is re-issued (same point,
// same generation, fresh deadline) and, past the re-issue limit,
// forfeited with a penalty. Window sessions handle each hand-out in
// expireWindowLocked.
func (ss *session) expireStragglersLocked(now time.Time) {
	if ss.reportTimeout <= 0 {
		return
	}
	if ss.win != nil {
		ss.expireWindowLocked(now)
		return
	}
	if ss.pending == nil || now.Sub(ss.pendingSince) < ss.reportTimeout {
		return
	}
	if len(ss.reports) > 0 {
		// Some reporters made it, the rest are overdue: the slowest
		// surviving rank's measurement stands in for the crashed ones
		// so the search advances instead of waiting forever.
		ss.finishPendingLocked()
		ss.stat().proposalsForfeited.Add(1)
		return
	}
	ss.pendingExpiries++
	if ss.pendingExpiries <= ss.reissueLimit() {
		ss.pendingSince = now
		ss.stat().proposalsReissued.Add(1)
		return
	}
	ss.strategy.Report(ss.pending, penaltyValue)
	ss.pending = nil
	ss.reports = ss.reports[:0]
	ss.stat().proposalsForfeited.Add(1)
}

// fetch returns the configuration the application should use next.
// All clients of the session receive the same configuration until
// enough reports arrive; the reply's Gen identifies the configuration
// generation so late reports can be matched.
func (ss *session) fetch(*proto.Message) *proto.Message {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	now := ss.now()
	ss.lastActive = now
	ss.stat().fetches.Add(1)
	ss.expireStragglersLocked(now)
	if ss.win != nil {
		return ss.fetchWindowLocked(now)
	}
	for ss.pending == nil {
		if ss.converged || (ss.maxRuns > 0 && ss.runs >= ss.maxRuns) {
			return ss.bestOrCurrentLocked()
		}
		pt, ok := ss.strategy.Next()
		if !ok {
			ss.converged = true
			return ss.bestOrCurrentLocked()
		}
		cfg, err := ss.space.Decode(pt)
		if err != nil {
			// The proposal was never handed out: charge no run, so a
			// decode failure cannot inflate run accounting or trip
			// maxRuns early. The strategy keeps the point pending and
			// the next fetch surfaces the same error.
			return errorReply("fetch: %v", err)
		}
		if ss.cache != nil {
			if v, ok := ss.cache.Lookup(pt); ok {
				// Answered from the evaluation cache: the run is
				// charged (the paper's cost model counts it), the
				// strategy advances, and the loop pulls the next
				// proposal without any client round-trip.
				ss.runs++
				ss.stat().cacheHits.Add(1)
				ss.noteMeasuredLocked(pt, v)
				ss.strategy.Report(pt, v)
				continue
			}
			ss.stat().cacheMisses.Add(1)
		}
		if ss.surGate != nil {
			if score, ok := ss.surGate.Score(pt, cfg); !ok {
				// Outside the model's competence: evaluate it for real.
				ss.stat().surrogateFallback.Add(1)
			} else if !ss.surGate.Keep([]float64{score})[0] && ss.surPrunes < core.DefaultMaxProposals(ss.maxRuns) {
				// Confidently worse than the best configuration the
				// session committed to measure: answer the strategy at
				// the predicted value, charge no run, and pull the next
				// proposal without any client round-trip. Capped: a model
				// that rejects everything must degrade to evaluation, not
				// spin this loop until convergence.
				ss.surPrunes++
				ss.stat().surrogatePruned.Add(1)
				ss.strategy.Report(pt, score)
				continue
			} else {
				ss.surGate.Committed(score)
				ss.stat().surrogateKept.Add(1)
			}
		}
		ss.pending = pt
		ss.reports = ss.reports[:0]
		ss.runs++
		ss.gen++
		ss.pendingSince = now
		ss.pendingExpiries = 0
		return &proto.Message{Type: proto.TypeConfig, Values: cfg.Map(), Gen: ss.gen}
	}
	if ss.converged || (ss.maxRuns > 0 && ss.runs >= ss.maxRuns) {
		return ss.bestOrCurrentLocked()
	}
	cfg, err := ss.space.Decode(ss.pending)
	if err != nil {
		return errorReply("fetch: %v", err)
	}
	return &proto.Message{Type: proto.TypeConfig, Values: cfg.Map(), Gen: ss.gen}
}

// bestOrCurrentLocked replies with the best-known configuration and
// the converged flag set, so clients can settle on the tuned values.
// Surrogate and window sessions settle on the best measured
// configuration: the strategy's best may be a point the model scored
// but nothing ever ran, or lag a round it has not been told about.
func (ss *session) bestOrCurrentLocked() *proto.Message {
	if (ss.surGate != nil || ss.win != nil) && ss.measuredOK {
		if cfg, err := ss.space.Decode(ss.measuredPt); err == nil {
			return &proto.Message{Type: proto.TypeConfig, Values: cfg.Map(), Converged: true}
		}
	}
	if pt, _, ok := ss.strategy.Best(); ok {
		cfg, err := ss.space.Decode(pt)
		if err == nil {
			return &proto.Message{Type: proto.TypeConfig, Values: cfg.Map(), Converged: true}
		}
	}
	cfg, err := ss.space.Decode(ss.space.Center())
	if err != nil {
		return errorReply("fetch: %v", err)
	}
	return &proto.Message{Type: proto.TypeConfig, Values: cfg.Map(), Converged: true}
}

func (ss *session) report(msg *proto.Message) *proto.Message {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	now := ss.now()
	ss.lastActive = now
	ss.expireStragglersLocked(now)
	if ss.win != nil {
		return ss.reportWindowLocked(msg)
	}
	if msg.Gen != 0 && (ss.pending == nil || msg.Gen != ss.gen) {
		// A straggler (or duplicate) reporting a configuration that
		// was already retired: acknowledge and drop, so the value is
		// not credited to the new pending point.
		ss.stat().reportsDroppedStale.Add(1)
		return &proto.Message{Type: proto.TypeOK}
	}
	if ss.pending == nil {
		return errorReply("report: no configuration outstanding for session %s", ss.id)
	}
	// NaN sanitization, mirroring reportWindowLocked: NaN would
	// lose every `>` comparison in finishPendingLocked and hand the
	// strategy the -Inf aggregate sentinel as a measurement.
	perf := msg.Perf
	if math.IsNaN(perf) {
		perf = penaltyValue
	}
	ss.reports = append(ss.reports, perf)
	ss.stat().reportsAccepted.Add(1)
	if len(ss.reports) < ss.reporters {
		return &proto.Message{Type: proto.TypeOK}
	}
	ss.finishPendingLocked()
	return &proto.Message{Type: proto.TypeOK}
}

// finishPendingLocked aggregates the received reports (the slowest
// reporter gates the parallel application) and advances the search.
func (ss *session) finishPendingLocked() {
	worst := math.Inf(-1)
	for _, v := range ss.reports {
		if v > worst {
			worst = v
		}
	}
	// Only complete, finite measurements enter the evaluation cache:
	// a straggler-degraded aggregate (fewer reports than reporters) or
	// a failure sentinel must not poison future sessions.
	if ss.cache != nil && len(ss.reports) >= ss.reporters && !math.IsInf(worst, 0) {
		ss.cache.Store(ss.pending, worst)
	}
	ss.noteMeasuredLocked(ss.pending, worst)
	ss.strategy.Report(ss.pending, worst)
	ss.pending = nil
	ss.reports = ss.reports[:0]
}

func (ss *session) best(*proto.Message) *proto.Message {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	ss.lastActive = ss.now()
	var (
		pt    space.Point
		value float64
		ok    bool
	)
	switch {
	case ss.surGate != nil:
		// Surrogate sessions answer best queries only from genuine
		// measurements: the strategy's best may hold a model prediction.
		pt, value, ok = ss.measuredPt, ss.measuredVal, ss.measuredOK
	case ss.win != nil && ss.measuredOK:
		// Window sessions prefer the measured shadow: a round-structured
		// strategy only learns values at full-round commits, so its
		// best can lag measurements the session already holds.
		pt, value, ok = ss.measuredPt, ss.measuredVal, true
	default:
		pt, value, ok = ss.strategy.Best()
	}
	if !ok {
		return errorReply("best: session %s has no evaluations yet", ss.id)
	}
	cfg, err := ss.space.Decode(pt)
	if err != nil {
		return errorReply("best: %v", err)
	}
	return &proto.Message{
		Type: proto.TypeBestReply, Values: cfg.Map(), Perf: value,
		Converged: ss.converged,
	}
}
