package server

import (
	"bufio"
	"io"
	"net"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"harmony/internal/history"
	"harmony/internal/proto"
)

// lockProbe requires that no server, shard or session mutex is held
// between calls: a handler that returns holding one deadlocks the next
// message, which shows as a test hanging until the timeout, so the
// probe names the call at once instead. It remembers every session it
// has seen, so one that done or expiry removed from its shard is still
// checked.
type lockProbe struct {
	t    *testing.T
	s    *Server
	seen []*session
}

func (p *lockProbe) after(call string) {
	p.t.Helper()
	if !p.s.mu.TryLock() {
		p.t.Fatalf("%s returned holding the server mutex", call)
	}
	p.s.mu.Unlock()
	for i, sh := range p.s.shards {
		if !sh.mu.TryLock() {
			p.t.Fatalf("%s returned holding shard %d's mutex", call, i)
		}
		for _, ss := range sh.sessions {
			if !slices.Contains(p.seen, ss) {
				p.seen = append(p.seen, ss)
			}
		}
		sh.mu.Unlock()
	}
	for _, ss := range p.seen {
		if !ss.mu.TryLock() {
			p.t.Fatalf("%s returned holding session %s's mutex", call, ss.id)
		}
		ss.mu.Unlock()
	}
}

// TestServerReleasesMutexes drives every message kind, its error
// replies, both expiry paths and the straggler ladder through one
// shard, then a wire connection that sends a malformed line, and
// probes the server's, the shard's and every session's mutex after
// each call.
func TestServerReleasesMutexes(t *testing.T) {
	clk := newFakeClock()
	s := newFaultServer(clk)
	s.shards = s.shards[:1] // every message sweeps the one deadline queue
	s.SessionTimeout = time.Minute
	s.ReportTimeout = 10 * time.Second
	s.Cache = history.NewEvalCache()
	p := &lockProbe{t: t, s: s}
	call := func(name string, msg *proto.Message) *proto.Message {
		t.Helper()
		reply := s.call(msg)
		p.after(name)
		return reply
	}
	register := func(name string, parallel bool) string {
		t.Helper()
		r := call(name, &proto.Message{
			Type: proto.TypeRegister, Strategy: proto.StrategyRandom, Seed: 7, MaxRuns: 6,
			Parallel: parallel, Space: proto.EncodeSpace(testSpace()),
		})
		if r.Type != proto.TypeRegistered {
			t.Fatalf("%s: %+v", name, r)
		}
		return r.Session
	}
	wantType := func(name string, r *proto.Message, typ string) {
		t.Helper()
		if r.Type != typ {
			t.Fatalf("%s replied %+v, want %s", name, r, typ)
		}
	}

	shared := register("register", false)
	parallel := register("register (parallel)", true)
	wantType("register (unknown strategy)", call("register (unknown strategy)", &proto.Message{
		Type: proto.TypeRegister, Strategy: "nosuch", Space: proto.EncodeSpace(testSpace()),
	}), proto.TypeError)
	wantType("register (no space)", call("register (no space)", &proto.Message{
		Type: proto.TypeRegister, Strategy: proto.StrategyRandom,
	}), proto.TypeError)
	wantType("best (no evaluations)", call("best (no evaluations)", &proto.Message{Type: proto.TypeBest, Session: shared}), proto.TypeError)

	cfg := call("fetch", &proto.Message{Type: proto.TypeFetch, Session: shared})
	wantType("fetch", cfg, proto.TypeConfig)
	call("report", &proto.Message{Type: proto.TypeReport, Session: shared, Tag: cfg.Tag, Perf: objective(cfg.Values)})
	call("report (stale tag)", &proto.Message{Type: proto.TypeReport, Session: shared, Tag: cfg.Tag, Perf: 1})
	cfg = call("fetch", &proto.Message{Type: proto.TypeFetch, Session: shared})
	wantType("report (next)", call("report (next)", &proto.Message{
		Type: proto.TypeReport, Session: shared, Tag: cfg.Tag, Perf: objective(cfg.Values), Next: true,
	}), proto.TypeConfig)
	wantType("best", call("best", &proto.Message{Type: proto.TypeBest, Session: shared}), proto.TypeBestReply)

	for _, typ := range []string{proto.TypeFetch, proto.TypeReport, proto.TypeBest, proto.TypeDone} {
		wantType(typ+" (unknown session)", call(typ+" (unknown session)", &proto.Message{Type: typ, Session: "s99"}), proto.TypeError)
	}
	wantType("unknown message type", call("unknown message type", &proto.Message{Type: "bogus"}), proto.TypeError)

	// Straggler ladder: the parallel session's hand-outs go overdue, and
	// the next message's sweep re-issues them.
	for i := 0; i < 2; i++ {
		call("fetch (parallel)", &proto.Message{Type: proto.TypeFetch, Session: parallel})
	}
	clk.Advance(15 * time.Second)
	call("fetch (straggler sweep)", &proto.Message{Type: proto.TypeFetch, Session: shared})
	if s.Stats().ProposalsReissued == 0 {
		t.Fatal("no hand-out was re-issued: the straggler path did not run")
	}
	p.after("Stats")
	if err := s.WriteStats(io.Discard); err != nil {
		t.Fatal(err)
	}
	p.after("WriteStats")
	s.ExpireNow()
	p.after("ExpireNow (stragglers)")

	wantType("done", call("done", &proto.Message{Type: proto.TypeDone, Session: shared}), proto.TypeOK)
	clk.Advance(2 * time.Minute)
	if n := s.ExpireNow(); n != 1 {
		t.Fatalf("ExpireNow collected %d sessions, want the parallel one", n)
	}
	p.after("ExpireNow (lease)")

	// A connection that sends a line no message decodes from.
	ln, err := newLocalListener()
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- s.Serve(ln) }()
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.WriteString(nc, "{not json\n"); err != nil {
		t.Fatal(err)
	}
	if _, err := bufio.NewReader(nc).ReadByte(); err != io.EOF {
		t.Fatalf("server answered a malformed line (err %v), want it to hang up", err)
	}
	nc.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	p.after("Close")
	if err := <-served; err != nil {
		t.Fatalf("Serve after Close: %v", err)
	}
	p.after("Serve")
	s.Addr()
	p.after("Addr")
}

// TestRegisterPushesLeaseUnderShardLock pins, without the race
// detector, that register puts a session and its lease deadline into
// the shard in one critical section, so the deadline heap changes only
// under the shard mutex (O8).
//
// A push before register locks: the test takes the shard mutex after
// register's expiry sweep has released it — register logs the expired
// lease of an earlier session between the two, and the log hook waits
// for the test — and then requires the heap unchanged and register
// unreturned until it lets go. A push after register unlocks: the test
// arranges that the first goroutine to take the mutex after register's
// insert is a checker, which must find the lease already queued. On one
// P, sync.Mutex's starvation mode gives that order: once a woken waiter
// that waited over 1 ms finds the mutex taken, every Unlock hands the
// mutex to the next waiter and yields to it, so register's Unlock runs
// the checker before register's next statement. The checker polls until
// it sees the session, so the order only sharpens the check.
func TestRegisterPushesLeaseUnderShardLock(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	clk := newFakeClock()
	s := newFaultServer(clk)
	s.shards = s.shards[:1] // both sessions share the one shard
	s.SessionTimeout = time.Minute
	sh := s.shards[0]
	reg := func() *proto.Message {
		return &proto.Message{Type: proto.TypeRegister, Strategy: proto.StrategyRandom, Seed: 7, MaxRuns: 6, Space: proto.EncodeSpace(testSpace())}
	}
	first := mustRegister(t, s, reg())
	clk.Advance(2 * time.Minute) // the next register's sweep collects first

	swept, held := make(chan struct{}), make(chan struct{})
	s.Logf = func(format string, _ ...any) {
		if strings.Contains(format, "lease expired") {
			swept <- struct{}{}
			<-held
		}
	}
	done := make(chan string, 1)
	go func() { done <- s.call(reg()).Session }()
	<-swept
	sh.mu.Lock()
	held <- struct{}{}
	queued := len(sh.dq)
	time.Sleep(5 * time.Millisecond) // register runs on to the shard mutex and waits
	select {
	case <-done:
		t.Fatal("register returned while the test held its shard mutex")
	default:
	}
	if len(sh.dq) != queued {
		t.Fatal("register changed the deadline heap while the test held its shard mutex")
	}

	leased := make(chan bool, 1)
	go func() {
		for {
			sh.mu.Lock()
			for id := range sh.sessions {
				ok := slices.ContainsFunc(sh.dq, func(e deadlineEntry) bool { return e.id == id && e.kind == leaseEntry })
				sh.mu.Unlock()
				leased <- ok
				return
			}
			sh.mu.Unlock()
			runtime.Gosched()
		}
	}()
	time.Sleep(2 * time.Millisecond) // the checker queues behind register
	sh.mu.Unlock()
	sh.mu.Lock()                     // taken again before register wakes, which then finds it
	time.Sleep(2 * time.Millisecond) // taken and starts the mutex starving
	sh.mu.Unlock()
	if !<-leased {
		t.Error("the shard mutex was free with a session inserted and its lease not yet queued")
	}
	if id := <-done; id == "" || id == first {
		t.Fatalf("register replied session %q", id)
	}
}
