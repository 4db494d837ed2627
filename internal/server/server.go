// Package server implements the Active Harmony tuning server: the
// Adaptation Controller behind the on-line tuning protocol.
//
// Applications register a parameter space, then fetch configurations
// and report measured performance while they run. Every session is the
// on-line driver of core.Window (window.go), the issue/commit machine
// core.Tune drives off-line: a fetch hands out an incomplete candidate
// of the window under a fresh tag, reports aggregate into the candidate
// by taking the worst of its Reporters reports (a parallel application
// moves at the speed of its slowest rank), and values commit to the
// strategy in the order it issued them. What a registration chooses is
// the window's depth, and nothing after register knows which it has:
//
//   - 1, the default. One candidate is in flight, so every client
//     of the session (for example one per node of a parallel job) is
//     handed the same configuration, and the search advances when all
//     expected reports for it have arrived. The report that completes
//     it may ask for the next configuration in its reply
//     (proto.Message.Next),
//     making a steady round one exchange.
//   - Unbounded, Parallel. One whole search round is in flight and
//     concurrent clients receive distinct candidates of it, which is
//     how the paper's PRO algorithm exploits many tuning clients at
//     once.
//   - AsyncDepth, Async. The window is bounded by a depth instead. A
//     strategy that runs ahead of its commits (the ensemble) keeps it
//     full; any other still stalls at the end of its round, so its
//     clients wait there, with at most the depth in flight.
//
// # Fault model
//
// The server assumes clients can crash, hang, or report late at any
// point, and degrades the search rather than wedging it:
//
//   - Every hand-out carries a tag (proto.Tag); a report for a tag that
//     was answered, expired, or retired with its candidate's commit is
//     acknowledged and dropped, never credited to the wrong
//     measurement.
//   - Sessions are leased: when SessionTimeout is set, a session
//     nobody has touched within the timeout is garbage-collected by
//     the next ExpireNow.
//   - Outstanding work has a straggler deadline: when ReportTimeout
//     is set, an overdue hand-out dies and its candidate is handed out
//     again under a new tag (up to MaxReissues times), then forfeited
//     — with the reports it has, or a +Inf penalty — so the search
//     always advances.
//
// A session's deadlines apply on its own messages: a fetch, report or
// best first retires the session's overdue hand-outs, and never
// touches another session. A message is activity, so it never expires
// its own lease. A session nobody messages any more is collected, and
// its overdue work re-issued or forfeited, only by ExpireNow, the one
// sweep, which the embedding program calls on a timer (harmonyd does
// whenever a timeout is set). Every deadline is read from the injected
// Clock, so the server runs no goroutine of its own and tests drive
// time deterministically.
package server

import (
	"bufio"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"sort"
	"strconv"
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
	// client has fetched, reported, or queried for this long is
	// garbage-collected. 0 disables expiry.
	SessionTimeout time.Duration

	// ReportTimeout bounds how long the server waits for outstanding
	// reports before treating their clients as stragglers: an overdue
	// hand-out dies and its candidate is re-issued under a new tag, and
	// forfeited after MaxReissues expiries. Set it above the longest
	// expected evaluation: a report that arrives after its hand-out
	// expired is dropped as stale. 0 disables the deadline.
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

	stats  counters
	shards []*shard // numShards of them, built by New
	nextID atomic.Int64

	mu     sync.Mutex // guards ln, closed, conns — never session state
	ln     net.Listener
	closed bool
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
}

type session struct {
	mu    sync.Mutex
	id    string
	num   int64 // numeric part of id: sweep order
	space *space.Space

	// Fault-tolerance plumbing, copied from the server at register
	// time. clock nil means time.Now; stats nil (sessions built
	// directly in tests) is allocated lazily by stat().
	clock         func() time.Time
	reportTimeout time.Duration
	maxReissues   int
	stats         *counters
	lastActive    time.Time // lease bookkeeping, guarded by mu

	reporters int // reports a candidate needs before it completes
	converged bool
	maxRuns   int

	// win is the session's window (window.go), opened at register. All
	// strategy calls go through it under mu — strategies are
	// engine-locked and carry no locking of their own.
	win *window

	// cache is the session's view of the server's evaluation cache,
	// bound to (app, machine, namespace, space) at register time; nil
	// when the server has no cache.
	cache *history.BoundCache

	// measuredPt/measuredVal shadow the best genuinely measured
	// configuration of the session, and best replies use the shadow.
	measuredPt  space.Point
	measuredVal float64
	measuredOK  bool
}

// New constructs a server with no sessions.
func New() *Server {
	s := &Server{
		Logf:   log.Printf,
		Clock:  time.Now,
		conns:  make(map[net.Conn]struct{}),
		shards: make([]*shard, numShards),
	}
	for i := range s.shards {
		s.shards[i] = &shard{sessions: make(map[string]*session)}
	}
	return s
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
	var msg, reply proto.Message
	for {
		if err := pc.RecvInto(&msg); err != nil {
			if err != io.EOF {
				s.Logf("harmony server: recv: %v", err)
			}
			return
		}
		s.dispatch(&msg, &reply)
		if err := pc.Send(&reply); err != nil {
			s.Logf("harmony server: send: %v", err)
			return
		}
	}
}

// setReply makes reply an empty answer of type typ. Its Values map is
// kept, emptied, so the connection writes every configuration it sends
// into the same map (space.Config.MapInto).
func setReply(reply *proto.Message, typ string) {
	vals := reply.Values
	clear(vals)
	*reply = proto.Message{Type: typ, Values: vals}
}

func errorReply(reply *proto.Message, format string, args ...any) {
	setReply(reply, proto.TypeError)
	reply.Error = fmt.Sprintf(format, args...)
}

// dispatch answers msg into reply, which the connection owns: every
// handler overwrites it, and the connection encodes it before the next
// message is dispatched.
func (s *Server) dispatch(msg, reply *proto.Message) {
	switch msg.Type {
	case proto.TypeRegister:
		s.register(msg, reply)
	case proto.TypeFetch:
		s.withSession(msg, reply, (*session).fetch)
	case proto.TypeReport:
		s.withSession(msg, reply, (*session).report)
	case proto.TypeBest:
		s.withSession(msg, reply, (*session).best)
	case proto.TypeDone:
		s.done(msg, reply)
	default:
		errorReply(reply, "unknown message type %q", msg.Type)
	}
}

// ExpireNow applies lease and straggler deadlines across every shard
// and returns the number of sessions garbage-collected. It is the only
// code that collects a lease: a session's own messages apply only its
// straggler deadlines, so an abandoned session, or a round whose
// clients all went quiet, progresses only when this runs (harmonyd
// calls it on a ticker; tests call it directly). The sweep
// visits sessions in registration order ("s9" before "s10") across all
// shards, not in map order, so expiry logs and counters stay
// reproducible.
func (s *Server) ExpireNow() int {
	now := s.now()
	var all []*session
	for _, sh := range s.shards {
		sh.mu.Lock()
		for id := range sh.sessions {
			all = append(all, sh.sessions[id]) // by key: collected here, ordered below
		}
		sh.mu.Unlock()
	}
	sort.Slice(all, func(i, j int) bool { return all[i].num < all[j].num })
	n := 0
	for _, ss := range all {
		if s.expireOne(ss, now) {
			n++
		}
	}
	return n
}

// expireOne applies lease then straggler deadlines to one session,
// returning whether it was garbage-collected. Takes the session's
// shard lock, so concurrent dispatches stay correct. The expiry log
// line is emitted only after the shard lock is released: Logf is an
// injected callback that may block or re-enter the server, so it never
// runs under a shard lock (TestExpiryLogNotUnderShardLock).
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
		if collected, idle := s.collectIdleLocked(sh, ss, now); collected {
			return true, idle
		}
	}
	ss.mu.Lock()
	ss.expireStragglersLocked(now)
	ss.mu.Unlock()
	return false, 0
}

func (s *Server) register(msg, reply *proto.Message) {
	sp, err := proto.DecodeSpace(msg.Space)
	if err != nil {
		errorReply(reply, "register: %v", err)
		return
	}
	strat, err := search.New(msg.Strategy, sp, msg.Seed, msg.MaxRuns, nil)
	if err != nil {
		errorReply(reply, "register: %v", err)
		return
	}
	reporters := msg.Reporters
	if reporters <= 0 {
		reporters = 1
	}
	ss := &session{
		space: sp, reporters: reporters, maxRuns: msg.MaxRuns,
		clock:         s.now,
		reportTimeout: s.ReportTimeout,
		maxReissues:   s.MaxReissues,
		stats:         &s.stats,
		lastActive:    s.now(),
	}
	if s.Cache != nil {
		ss.cache = s.Cache.BoundNS(msg.App, msg.Machine, msg.CacheNS, sp)
	}
	// The only place the three session kinds differ: the window's depth.
	switch {
	case msg.Async:
		// Async wins when both are requested: the pipeline is the round
		// window without its barrier.
		depth := msg.AsyncDepth
		if depth <= 0 {
			depth = core.DefaultAsyncDepth
		}
		ss.openWindow(search.AsAsync(strat), depth)
	case msg.Parallel:
		ss.openWindow(search.Rounds(strat), core.Unbounded)
	default:
		// One candidate in flight: every client is handed the same one.
		ss.openWindow(search.AsAsync(strat), 1)
	}
	num := s.nextID.Add(1)
	id := "s" + strconv.FormatInt(num, 10)
	ss.id, ss.num = id, num
	sh := s.shardFor(id)
	sh.mu.Lock()
	sh.sessions[id] = ss
	sh.mu.Unlock()
	s.Logf("harmony server: registered session %s app=%q strategy=%s dims=%d", id, msg.App, strat.Name(), sp.Dims())
	setReply(reply, proto.TypeRegistered)
	reply.Session = id
}

func (s *Server) withSession(msg, reply *proto.Message, fn func(ss *session, msg, reply *proto.Message)) {
	sh := s.shardFor(msg.Session)
	sh.mu.Lock()
	ss, ok := sh.sessions[msg.Session]
	sh.mu.Unlock()
	if !ok {
		errorReply(reply, "unknown session %q", msg.Session)
		return
	}
	fn(ss, msg, reply)
}

func (s *Server) done(msg, reply *proto.Message) {
	sh := s.shardFor(msg.Session)
	sh.mu.Lock()
	_, ok := sh.sessions[msg.Session]
	delete(sh.sessions, msg.Session)
	sh.mu.Unlock()
	if !ok {
		errorReply(reply, "unknown session %q", msg.Session)
		return
	}
	setReply(reply, proto.TypeOK)
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

// noteMeasuredLocked shadows the best genuinely measured value of the
// session. A strategy only learns values as they commit in issue order,
// so its best lags the measurements the session already holds. Best
// replies read this shadow instead. The point is copied, into the shadow's own array:
// rounds and strategies may reuse their backing arrays.
func (ss *session) noteMeasuredLocked(pt space.Point, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	if !ss.measuredOK || v < ss.measuredVal {
		ss.measuredPt = append(ss.measuredPt[:0], pt...)
		ss.measuredVal = v
		ss.measuredOK = true
	}
}

// fetch returns the configuration the application should use next:
// one hand-out of the session's window, whose Tag the report echoes.
func (ss *session) fetch(_, reply *proto.Message) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	now := ss.now()
	ss.lastActive = now
	ss.stat().fetches.Add(1)
	ss.expireStragglersLocked(now)
	ss.fetchWindowLocked(now, reply)
}

// bestOrCurrentLocked replies with the best-known configuration and
// the converged flag set, so clients can settle on the tuned values.
// Sessions settle on the best measured configuration: the strategy's
// best may lag values that have not committed.
func (ss *session) bestOrCurrentLocked(reply *proto.Message) {
	pt := ss.measuredPt
	if !ss.measuredOK {
		pt = ss.space.Center()
	}
	cfg, err := ss.space.Decode(pt)
	if err != nil {
		errorReply(reply, "fetch: %v", err)
		return
	}
	setReply(reply, proto.TypeConfig)
	reply.Values = cfg.MapInto(reply.Values)
	reply.Converged = true
}

func (ss *session) report(msg, reply *proto.Message) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	now := ss.now()
	ss.lastActive = now
	ss.expireStragglersLocked(now)
	ss.reportWindowLocked(msg, now, reply)
}

// best answers only from genuine measurements (the shadow): never a
// forfeit's penalty or a strategy's lagging view. Like fetch and
// report, it first applies the session's own straggler deadlines, so
// a forfeit that is due reaches the shadow before it is read.
func (ss *session) best(_, reply *proto.Message) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	now := ss.now()
	ss.lastActive = now
	ss.expireStragglersLocked(now)
	if !ss.measuredOK {
		errorReply(reply, "best: session %s has no evaluations yet", ss.id)
		return
	}
	cfg, err := ss.space.Decode(ss.measuredPt)
	if err != nil {
		errorReply(reply, "best: %v", err)
		return
	}
	setReply(reply, proto.TypeBestReply)
	reply.Values = cfg.MapInto(reply.Values)
	reply.Perf, reply.Converged = ss.measuredVal, ss.converged
}
