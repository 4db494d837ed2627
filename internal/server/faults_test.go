package server

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"harmony/internal/client"
	"harmony/internal/proto"
	"harmony/internal/space"
)

// fakeClock is a mutable wall clock injected via Server.Clock so
// lease and straggler deadlines can be driven deterministically.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1_000_000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// newFaultServer builds a quiet server on the fake clock; messages
// are driven synchronously through dispatch, no TCP involved, so the
// interleaving of faults and messages is fully deterministic.
func newFaultServer(clk *fakeClock) *Server {
	s := New()
	s.Logf = func(string, ...any) {}
	s.Clock = clk.Now
	return s
}

func mustRegister(t *testing.T, s *Server, msg *proto.Message) string {
	t.Helper()
	msg.Type = proto.TypeRegister
	reply := s.call(msg)
	if reply.Type != proto.TypeRegistered {
		t.Fatalf("register: %+v", reply)
	}
	return reply.Session
}

// TestDuplicateReportDropped: one client reporting the same
// configuration twice (reply lost, client retried) must count once.
func TestDuplicateReportDropped(t *testing.T) {
	s := newFaultServer(newFakeClock())
	id := mustRegister(t, s, &proto.Message{
		Strategy: proto.StrategyRandom, Seed: 2, MaxRuns: 10,
		Space: proto.EncodeSpace(testSpace()),
	})
	cfg := s.call(&proto.Message{Type: proto.TypeFetch, Session: id})
	s.call(&proto.Message{Type: proto.TypeReport, Session: id, Tag: cfg.Tag, Perf: 4})
	// The duplicate arrives after the configuration was retired: it
	// must be acknowledged (the client is just retrying) and dropped.
	if r := s.call(&proto.Message{Type: proto.TypeReport, Session: id, Tag: cfg.Tag, Perf: 1}); r.Type != proto.TypeOK {
		t.Fatalf("duplicate report: %+v", r)
	}
	best := s.call(&proto.Message{Type: proto.TypeBest, Session: id})
	if best.Perf != 4 {
		t.Fatalf("best = %v, want 4: the duplicate's 1 must not count", best.Perf)
	}
	if st := s.Stats(); st.ReportsDroppedStale != 1 {
		t.Errorf("ReportsDroppedStale = %d, want 1", st.ReportsDroppedStale)
	}
}

// TestLeaseExpiryGarbageCollectsSession: a session whose clients all
// crashed is collected once its lease lapses, while a session that
// keeps touching the server survives.
func TestLeaseExpiryGarbageCollectsSession(t *testing.T) {
	clk := newFakeClock()
	s := newFaultServer(clk)
	s.SessionTimeout = time.Minute
	abandoned := mustRegister(t, s, &proto.Message{Space: proto.EncodeSpace(testSpace())})
	live := mustRegister(t, s, &proto.Message{Space: proto.EncodeSpace(testSpace())})
	s.call(&proto.Message{Type: proto.TypeFetch, Session: abandoned})

	clk.Advance(50 * time.Second)
	// The live session keeps its lease fresh.
	if r := s.call(&proto.Message{Type: proto.TypeFetch, Session: live}); r.Type != proto.TypeConfig {
		t.Fatalf("live fetch: %+v", r)
	}
	clk.Advance(20 * time.Second) // abandoned idle 70s > 60s; live idle 20s
	if n := s.ExpireNow(); n != 1 {
		t.Fatalf("ExpireNow collected %d sessions, want 1", n)
	}
	if r := s.call(&proto.Message{Type: proto.TypeFetch, Session: abandoned}); r.Type != proto.TypeError {
		t.Errorf("fetch on expired session: %+v, want error", r)
	}
	if r := s.call(&proto.Message{Type: proto.TypeFetch, Session: live}); r.Type != proto.TypeConfig {
		t.Errorf("live session was collected too: %+v", r)
	}
	st := s.Stats()
	if st.SessionsExpired != 1 || st.SessionsActive != 1 {
		t.Errorf("stats = %+v, want 1 expired / 1 active", st)
	}
}

// TestSharedConfigReissueThenForfeit: with no reports at all the one
// configuration of a shared session is handed out again (same values,
// a new tag) up to the limit, then forfeited with a penalty so tuning
// continues. A hand-out dies at its deadline: the slow client's report
// under the first tag is stale, whichever re-issue it arrives during.
func TestSharedConfigReissueThenForfeit(t *testing.T) {
	clk := newFakeClock()
	s := newFaultServer(clk)
	s.ReportTimeout = 30 * time.Second
	s.MaxReissues = 2
	id := mustRegister(t, s, &proto.Message{
		Strategy: proto.StrategyRandom, Seed: 4, MaxRuns: 10,
		Space: proto.EncodeSpace(testSpace()),
	})
	cfg1 := s.call(&proto.Message{Type: proto.TypeFetch, Session: id})
	for i := 0; i < 2; i++ {
		clk.Advance(31 * time.Second)
		r := s.call(&proto.Message{Type: proto.TypeFetch, Session: id})
		if r.Tag != cfg1.Tag+i+1 {
			t.Fatalf("re-issue %d under tag %d, want a new one after %d", i, r.Tag, cfg1.Tag)
		}
		for k, v := range cfg1.Values {
			if r.Values[k] != v {
				t.Fatalf("re-issue %d changed the configuration: %v vs %v", i, r.Values, cfg1.Values)
			}
		}
	}
	s.call(&proto.Message{Type: proto.TypeReport, Session: id, Tag: cfg1.Tag, Perf: 1})
	clk.Advance(31 * time.Second) // third expiry exceeds MaxReissues=2
	cfg2 := s.call(&proto.Message{Type: proto.TypeFetch, Session: id})
	if cfg2.Values["x"] == cfg1.Values["x"] && cfg2.Values["y"] == cfg1.Values["y"] {
		t.Fatalf("forfeit should advance to a new configuration: %+v", cfg2)
	}
	s.call(&proto.Message{Type: proto.TypeReport, Session: id, Tag: cfg2.Tag, Perf: 3})
	best := s.call(&proto.Message{Type: proto.TypeBest, Session: id})
	if best.Perf != 3 {
		t.Fatalf("best = %v, want 3: neither the +Inf penalty nor the stale 1 may win", best.Perf)
	}
	st := s.Stats()
	if st.ProposalsReissued != 2 || st.ProposalsForfeited != 1 || st.ReportsDroppedStale != 1 {
		t.Errorf("stats = %+v, want 2 reissued / 1 forfeited / 1 dropped-stale", st)
	}
}

// bowl is the deterministic objective shared by the convergence-
// equality runs.
func bowl(values map[string]string) float64 { return objective(values) }

// drivePRO runs one simulated tuning campaign against a parallel PRO
// session through dispatch. With fault set, the first fetched
// proposal is never reported (the client crashed mid-round); the
// clock jump lets its straggler deadline lapse so the proposal is
// re-issued, and once tuning is done the dead client's report arrives
// anyway, carrying a poison value that must be dropped.
func drivePRO(t *testing.T, s *Server, clk *fakeClock, id string, fault bool) map[string]string {
	t.Helper()
	crashed := false
	staleTag := 0
	for i := 0; i < 2000; i++ {
		reply := s.call(&proto.Message{Type: proto.TypeFetch, Session: id})
		if reply.Type != proto.TypeConfig {
			t.Fatalf("fetch %d: %+v", i, reply)
		}
		if reply.Converged {
			break
		}
		if fault && !crashed {
			crashed = true
			staleTag = reply.Tag
			clk.Advance(6 * time.Second) // past ReportTimeout: the tag expires
			continue                     // killed mid-round: no report
		}
		if r := s.call(&proto.Message{
			Type: proto.TypeReport, Session: id, Tag: reply.Tag, Perf: bowl(reply.Values),
		}); r.Type != proto.TypeOK {
			t.Fatalf("report %d: %+v", i, r)
		}
	}
	if fault {
		// The straggler reports long after its round was retired. The
		// poison value would hijack Best if it were credited anywhere.
		if r := s.call(&proto.Message{Type: proto.TypeReport, Session: id, Tag: staleTag, Perf: -1e9}); r.Type != proto.TypeOK {
			t.Fatalf("stale report: %+v", r)
		}
	}
	best := s.call(&proto.Message{Type: proto.TypeBest, Session: id})
	if best.Type != proto.TypeBestReply {
		t.Fatalf("best: %+v", best)
	}
	if best.Perf <= -1e8 {
		t.Fatalf("poison straggler value leaked into Best: %v", best.Perf)
	}
	return best.Values
}

// TestFaultyRunConvergesToFaultFreeBest is the acceptance test for
// the fault-tolerant protocol: a parallel PRO campaign with a client
// killed mid-round plus a straggler reporting after round retirement
// must converge to the same Best as the fault-free campaign, with the
// dropped-stale and re-issued counters incrementing.
func TestFaultyRunConvergesToFaultFreeBest(t *testing.T) {
	register := func(s *Server) string {
		return mustRegister(t, s, &proto.Message{
			Strategy: proto.StrategyPRO, Seed: 7, MaxRuns: 60, Parallel: true,
			Space: proto.EncodeSpace(testSpace()),
		})
	}

	cleanClk := newFakeClock()
	clean := newFaultServer(cleanClk)
	clean.ReportTimeout = 5 * time.Second
	wantBest := drivePRO(t, clean, cleanClk, register(clean), false)

	faultClk := newFakeClock()
	faulty := newFaultServer(faultClk)
	faulty.ReportTimeout = 5 * time.Second
	gotBest := drivePRO(t, faulty, faultClk, register(faulty), true)

	for k, v := range wantBest {
		if gotBest[k] != v {
			t.Errorf("faulty run best[%s] = %s, fault-free best = %s", k, gotBest[k], v)
		}
	}
	st := faulty.Stats()
	if st.ProposalsReissued == 0 {
		t.Errorf("ProposalsReissued = 0, want the crashed client's proposal re-issued")
	}
	if st.ReportsDroppedStale == 0 {
		t.Errorf("ReportsDroppedStale = 0, want the straggler's late report dropped")
	}
	if cs := clean.Stats(); cs.ProposalsReissued != 0 || cs.ReportsDroppedStale != 0 {
		t.Errorf("fault-free run tripped fault counters: %+v", cs)
	}
}

// TestParallelRoundForfeitAlwaysCompletes: when every client of a
// parallel session dies, straggler forfeits complete the round with
// penalty values and the session still reaches convergence.
func TestParallelRoundForfeitAlwaysCompletes(t *testing.T) {
	clk := newFakeClock()
	s := newFaultServer(clk)
	s.ReportTimeout = 5 * time.Second
	s.MaxReissues = 1
	id := mustRegister(t, s, &proto.Message{
		Strategy: proto.StrategyRandom, Seed: 9, MaxRuns: 6, Parallel: true,
		Space: proto.EncodeSpace(testSpace()),
	})
	converged := false
	for round := 0; round < 10 && !converged; round++ {
		for i := 0; i < 6; i++ {
			reply := s.call(&proto.Message{Type: proto.TypeFetch, Session: id})
			if reply.Type != proto.TypeConfig {
				t.Fatalf("fetch: %+v", reply)
			}
			if reply.Converged {
				converged = true
				break
			}
			// Nobody ever reports: every client is dead.
		}
		clk.Advance(6 * time.Second)
	}
	if !converged {
		t.Fatal("session never converged: forfeits did not complete the round")
	}
	st := s.Stats()
	if st.ProposalsForfeited != 6 {
		t.Errorf("ProposalsForfeited = %d, want all 6 budgeted proposals", st.ProposalsForfeited)
	}
	if st.RoundsCompleted == 0 {
		t.Error("RoundsCompleted = 0, want the forfeited round delivered to the strategy")
	}
}

// scriptedStrategy returns a fixed sequence of points, advancing on
// every Next call; used to push invalid points through the session
// (the fault ladder's undecodable-proposal row).
type scriptedStrategy struct {
	pts  []space.Point
	i    int
	best space.Point
	bv   float64
	has  bool
}

func (s *scriptedStrategy) Name() string { return "scripted" }

func (s *scriptedStrategy) Next() (space.Point, bool) {
	if s.i >= len(s.pts) {
		return nil, false
	}
	pt := s.pts[s.i]
	s.i++
	return pt.Clone(), true
}

func (s *scriptedStrategy) Report(pt space.Point, v float64) {
	if !s.has || v < s.bv {
		s.best, s.bv, s.has = pt.Clone(), v, true
	}
}

func (s *scriptedStrategy) Best() (space.Point, float64, bool) {
	if !s.has {
		return nil, 0, false
	}
	return s.best.Clone(), s.bv, true
}

// TestServerCloseDuringInflightRound closes the server while parallel
// clients are mid-round; nothing may deadlock or race.
func TestServerCloseDuringInflightRound(t *testing.T) {
	s, addr := startServer(t)
	lead, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer lead.Close()
	sess, err := lead.Register(client.Registration{
		App: "close-race", Space: testSpace(),
		Strategy: proto.StrategyPRO, Seed: 11, MaxRuns: 400, Parallel: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := client.DialOptions(addr, client.Options{Retries: 1, Backoff: time.Millisecond})
			if err != nil {
				return
			}
			defer c.Close()
			w := c.Attach(sess.ID())
			for j := 0; j < 500; j++ {
				values, converged, err := w.Fetch()
				if err != nil || converged {
					return // the server went away or tuning finished — both fine
				}
				if err := w.Report(bowl(values)); err != nil {
					return
				}
			}
		}()
	}
	time.Sleep(20 * time.Millisecond)
	if err := s.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	wg.Wait()
}

// TestReconnectStorm hammers one shared session with clients that
// connect, fetch, sometimes report, and vanish; the server must keep
// serving, keep accounting sane, and still converge.
func TestReconnectStorm(t *testing.T) {
	s, addr := startServer(t)
	lead, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer lead.Close()
	sess, err := lead.Register(client.Registration{
		App: "storm", Space: testSpace(),
		Strategy: proto.StrategyRandom, Seed: 13, MaxRuns: 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 15; j++ {
				c, err := client.Dial(addr)
				if err != nil {
					continue // accept queue churn under the storm
				}
				w := c.Attach(sess.ID())
				values, converged, err := w.Fetch()
				if err == nil && !converged && (i+j)%2 == 0 {
					w.Report(bowl(values)) // half the clients crash before reporting
				}
				c.Close()
			}
		}(i)
	}
	wg.Wait()
	// The session must still be drivable to completion.
	for i := 0; i < 100; i++ {
		values, converged, err := sess.Fetch()
		if err != nil {
			t.Fatalf("post-storm fetch: %v", err)
		}
		if converged {
			break
		}
		if err := sess.Report(bowl(values)); err != nil {
			t.Fatalf("post-storm report: %v", err)
		}
	}
	if _, _, err := sess.Best(); err != nil {
		t.Fatalf("post-storm best: %v", err)
	}
	if st := s.Stats(); st.ReportsAccepted == 0 {
		t.Errorf("stats recorded no accepted reports after the storm: %+v", st)
	}
}

// TestWriteStatsFormat checks the expvar-style dump names every
// counter exactly once.
func TestWriteStatsFormat(t *testing.T) {
	s := newFaultServer(newFakeClock())
	var sb strings.Builder
	if err := s.WriteStats(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, metric := range []string{
		"harmony.sessions.active", "harmony.sessions.expired",
		"harmony.fetches", "harmony.reports.accepted",
		"harmony.reports.dropped_stale", "harmony.rounds.completed",
		"harmony.proposals.reissued", "harmony.proposals.forfeited",
		"harmony.cache.hits", "harmony.cache.misses",
		"harmony.async.committed", "harmony.async.queue_starved",
	} {
		if !strings.Contains(out, metric+" ") {
			t.Errorf("dump missing %q:\n%s", metric, out)
		}
	}
	if got := len(strings.Split(strings.TrimSpace(out), "\n")); got != 12 {
		t.Errorf("dump has %d lines, want 12:\n%s", got, out)
	}
}

// TestForfeitPenaltyNeverWins: a forfeited proposal's +Inf penalty
// must rank below every genuine measurement.
func TestForfeitPenaltyNeverWins(t *testing.T) {
	if !math.IsInf(penaltyValue, 1) {
		t.Fatalf("penaltyValue = %v, want +Inf", penaltyValue)
	}
}
