package server

import (
	"math"
	"strconv"
	"sync"
	"testing"
	"time"

	"harmony/internal/client"
	"harmony/internal/proto"
	"harmony/internal/search"
	"harmony/internal/space"
)

// TestAsyncFanoutDistinctConfigs verifies an async session hands
// concurrent clients distinct in-flight candidates and that the
// ensemble-driven pipeline tunes end to end.
func TestAsyncFanoutDistinctConfigs(t *testing.T) {
	_, addr := startServer(t)

	lead, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer lead.Close()
	sess, err := lead.Register(client.Registration{
		App: "async-fanout", Space: testSpace(),
		Strategy: proto.StrategyEnsemble, Seed: 7,
		MaxRuns: 80, Async: true, AsyncDepth: 8,
	})
	if err != nil {
		t.Fatal(err)
	}

	const nClients = 4
	type worker struct {
		c *client.Client
		s *client.Session
	}
	workers := make([]worker, nClients)
	for i := range workers {
		c, err := client.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		workers[i] = worker{c: c, s: c.Attach(sess.ID())}
	}

	// First wave: four clients fetch before any reports. The window
	// must hand them distinct candidates — no round barrier, no
	// shared pending configuration.
	firstWave := make([]map[string]string, nClients)
	distinct := make(map[string]bool)
	for i, w := range workers {
		values, converged, err := w.s.Fetch()
		if err != nil {
			t.Fatalf("client %d fetch: %v", i, err)
		}
		if converged {
			t.Fatalf("client %d: converged before any report", i)
		}
		firstWave[i] = values
		distinct[values["x"]+","+values["y"]] = true
	}
	if len(distinct) < 2 {
		t.Fatalf("all %d concurrent fetches got the same configuration; the window is not distributing candidates", nClients)
	}

	var wg sync.WaitGroup
	errs := make(chan error, nClients)
	for i := range workers {
		wg.Add(1)
		go func(w worker, pending map[string]string) {
			defer wg.Done()
			values := pending
			for step := 0; step < 300; step++ {
				if err := w.s.Report(objective(values)); err != nil {
					errs <- err
					return
				}
				var converged bool
				var err error
				values, converged, err = w.s.Fetch()
				if err != nil {
					errs <- err
					return
				}
				if converged {
					return
				}
			}
		}(workers[i], firstWave[i])
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	values, perf, err := sess.Best()
	if err != nil {
		t.Fatal(err)
	}
	if perf >= objective(map[string]string{"x": "0", "y": "0"}) {
		t.Fatalf("best %v (%v) is no better than the corner; the pipelined search went nowhere", values, perf)
	}
}

// asyncRecorder is a minimal native AsyncStrategy that issues a fixed
// point list and records the order and values of its commits.
type asyncRecorder struct {
	points    []space.Point
	issued    int
	committed []space.Point
	values    []float64
}

func (r *asyncRecorder) Name() string { return "recorder" }

func (r *asyncRecorder) Ask() (space.Point, bool) {
	if r.issued >= len(r.points) {
		return nil, false
	}
	pt := r.points[r.issued]
	r.issued++
	return pt, true
}

func (r *asyncRecorder) Commit(pt space.Point, value float64) {
	r.committed = append(r.committed, pt)
	r.values = append(r.values, value)
}

func (r *asyncRecorder) Done() bool { return r.issued >= len(r.points) }

func (r *asyncRecorder) Best() (space.Point, float64, bool) { return nil, 0, false }

// TestAsyncCommitOrderIndependentOfReportOrder pins the determinism
// linchpin at the server: reports arriving in any order commit to the
// strategy in exact issue order.
func TestAsyncCommitOrderIndependentOfReportOrder(t *testing.T) {
	sp := testSpace()
	pts := []space.Point{{0, 0}, {1, 1}, {2, 2}, {3, 3}}
	rec := &asyncRecorder{points: pts}
	strat := search.NewSystematic(sp, 4)
	ss := newTestSession(sp, strat, 10, func(ss *session) { ss.openWindow(rec, 4, 1) })

	var tags []int
	for i := 0; i < 4; i++ {
		reply := ss.fetch(nil)
		if reply.Type != proto.TypeConfig || reply.Converged {
			t.Fatalf("fetch %d: %+v", i, reply)
		}
		tags = append(tags, reply.Tag)
	}
	// Report in reverse issue order.
	for i := len(tags) - 1; i >= 0; i-- {
		if r := ss.report(&proto.Message{Tag: tags[i], Perf: float64(100 + i)}); r.Type != proto.TypeOK {
			t.Fatalf("report tag %d: %+v", tags[i], r)
		}
		// Before the first issue reports, nothing may commit.
		if i > 0 && len(rec.committed) != 0 {
			t.Fatalf("commits started after %d out-of-order reports: %v", len(tags)-i, rec.committed)
		}
	}
	if len(rec.committed) != 4 {
		t.Fatalf("%d commits, want 4", len(rec.committed))
	}
	for i, pt := range rec.committed {
		if !pt.Equal(pts[i]) {
			t.Fatalf("commit %d delivered %v, want issue-order %v", i, pt, pts[i])
		}
		if rec.values[i] != float64(100+i) {
			t.Fatalf("commit %d delivered value %v, want %v", i, rec.values[i], float64(100+i))
		}
	}
}

// TestAsyncPipelineRefillsWithoutBarrier verifies the queue-saturating
// property the round barrier lacked: after a single report, the next
// fetch receives fresh work even though other candidates of the same
// window are still outstanding.
func TestAsyncPipelineRefillsWithoutBarrier(t *testing.T) {
	strat := search.NewEnsemble(testSpace(), search.EnsembleOptions{Seed: 3, Budget: 60})
	ss := newTestSession(testSpace(), strat, 60, pipelineWindow(strat, 4))

	seen := make(map[string]int)
	var tags []int
	for i := 0; i < 4; i++ {
		reply := ss.fetch(nil)
		if reply.Type != proto.TypeConfig || reply.Converged {
			t.Fatalf("fetch %d: %+v", i, reply)
		}
		tags = append(tags, reply.Tag)
		seen[reply.Values["x"]+","+reply.Values["y"]]++
	}
	// Report only the first candidate; three remain in flight.
	if r := ss.report(&proto.Message{Tag: tags[0], Perf: 12}); r.Type != proto.TypeOK {
		t.Fatalf("report: %+v", r)
	}
	reply := ss.fetch(nil)
	if reply.Type != proto.TypeConfig || reply.Converged {
		t.Fatalf("post-report fetch: %+v", reply)
	}
	key := reply.Values["x"] + "," + reply.Values["y"]
	if seen[key] > 0 {
		t.Fatalf("fetch after one report re-issued an in-flight candidate %q instead of refilling the window", key)
	}
}

// TestAsyncHonoursMaxRuns verifies an async session never charges
// more runs than the budget, converging exactly at max_runs.
func TestAsyncHonoursMaxRuns(t *testing.T) {
	strat := search.NewRandom(testSpace(), 9, 500)
	ss := newTestSession(testSpace(), strat, 7, pipelineWindow(strat, 8))

	evaluated := 0
	for i := 0; i < 100; i++ {
		reply := ss.fetch(nil)
		if reply.Type != proto.TypeConfig {
			t.Fatalf("fetch %d: reply %q", i, reply.Type)
		}
		if reply.Converged {
			break
		}
		evaluated++
		ss.report(&proto.Message{Tag: reply.Tag, Perf: float64(i)})
	}
	if ss.win.m.Charged > 7 {
		t.Fatalf("session charged %d runs, max_runs is 7", ss.win.m.Charged)
	}
	if evaluated != 7 {
		t.Fatalf("%d candidates evaluated, want exactly the budget 7", evaluated)
	}
}

// TestAsyncStaleReportsDropped verifies duplicate and unknown tags
// are acknowledged without corrupting the pipeline.
func TestAsyncStaleReportsDropped(t *testing.T) {
	strat := search.NewRandom(testSpace(), 3, 50)
	ss := newTestSession(testSpace(), strat, 50, pipelineWindow(strat, 4))

	first := ss.fetch(nil)
	if first.Type != proto.TypeConfig {
		t.Fatalf("fetch reply %q", first.Type)
	}
	if r := ss.report(&proto.Message{Tag: first.Tag, Perf: 5}); r.Type != proto.TypeOK {
		t.Fatalf("report reply %q", r.Type)
	}
	// The same tag again, and an unknown tag: dropped, still OK.
	if r := ss.report(&proto.Message{Tag: first.Tag, Perf: -1e9}); r.Type != proto.TypeOK {
		t.Fatalf("duplicate report reply %q", r.Type)
	}
	if r := ss.report(&proto.Message{Tag: 9999, Perf: -1e9}); r.Type != proto.TypeOK {
		t.Fatalf("stale report reply %q", r.Type)
	}
	for i := 0; i < 200; i++ {
		reply := ss.fetch(nil)
		if reply.Type != proto.TypeConfig {
			t.Fatalf("fetch reply %q", reply.Type)
		}
		if reply.Converged {
			break
		}
		ss.report(&proto.Message{Tag: reply.Tag, Perf: 50})
	}
	// The bogus -1e9 reports must not have reached the session's view
	// of the best measurement.
	if best := ss.best(nil); best.Type != proto.TypeBestReply || best.Perf != 5 {
		t.Fatalf("best = %+v, want the genuine report 5", best)
	}
}

// TestAsyncStragglerReissueAndForfeit drives the straggler ladder of
// the pipelined window with a fake clock: an overdue candidate is
// re-issued to the next fetch, and past the re-issue limit it is
// forfeited with the penalty value so the pipeline drains and the
// session still converges.
func TestAsyncStragglerReissueAndForfeit(t *testing.T) {
	now := time.Unix(1000, 0)
	strat := search.NewSystematic(testSpace(), 3)
	ss := newTestSession(testSpace(), strat, 3, pipelineWindow(strat, 1)) // one candidate at a time
	ss.clock = func() time.Time { return now }
	ss.reportTimeout = time.Second
	ss.maxReissues = 2

	first := ss.fetch(nil)
	if first.Type != proto.TypeConfig {
		t.Fatalf("fetch reply %q", first.Type)
	}
	firstKey := first.Values["x"] + "," + first.Values["y"]

	// Two straggler expiries: each re-issues the same candidate.
	for i := 0; i < 2; i++ {
		now = now.Add(2 * time.Second)
		reply := ss.fetch(nil)
		if reply.Type != proto.TypeConfig || reply.Converged {
			t.Fatalf("re-issue fetch %d: %+v", i, reply)
		}
		if key := reply.Values["x"] + "," + reply.Values["y"]; key != firstKey {
			t.Fatalf("re-issue %d handed out %q, want the overdue candidate %q", i, key, firstKey)
		}
		if reply.Tag == first.Tag {
			t.Fatalf("re-issue %d reused tag %d", i, reply.Tag)
		}
	}
	if got := ss.stat().proposalsReissued.Load(); got != 2 {
		t.Fatalf("proposalsReissued = %d, want 2", got)
	}

	// The third expiry exceeds maxReissues: the candidate is forfeited
	// and the next fetch moves on to a fresh one.
	now = now.Add(2 * time.Second)
	reply := ss.fetch(nil)
	if reply.Type != proto.TypeConfig || reply.Converged {
		t.Fatalf("post-forfeit fetch: %+v", reply)
	}
	if key := reply.Values["x"] + "," + reply.Values["y"]; key == firstKey {
		t.Fatalf("forfeited candidate %q handed out again", key)
	}
	if got := ss.stat().proposalsForfeited.Load(); got != 1 {
		t.Fatalf("proposalsForfeited = %d, want 1", got)
	}
	// The forfeit was committed as the penalty value: the strategy
	// advanced past the first candidate without a measurement.
	if _, v, ok := strat.Best(); ok && math.IsInf(v, 1) {
		t.Fatal("penalty value became the strategy best")
	}
}

// TestAsyncServerStatsCounters verifies the pipelined dispatch feeds
// the operational counters: commits in issue order and queue-starved
// fill passes both surface in Server.Stats.
func TestAsyncServerStatsCounters(t *testing.T) {
	srv, addr := startServer(t)
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// A simplex adapts through the round-buffered AsBatch view with
	// batches of one: with a window deeper than the batch, every fill
	// pass past the first candidate is starved.
	sess, err := c.Register(client.Registration{
		App: "async-stats", Space: testSpace(),
		Strategy: proto.StrategySimplex,
		MaxRuns:  10, Async: true, AsyncDepth: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		values, converged, err := sess.Fetch()
		if err != nil {
			t.Fatal(err)
		}
		if converged {
			break
		}
		if err := sess.Report(objective(values)); err != nil {
			t.Fatal(err)
		}
	}
	st := srv.Stats()
	if st.AsyncCommitted == 0 {
		t.Fatalf("Stats.AsyncCommitted = 0 after an async campaign; stats: %+v", st)
	}
	if st.QueueStarved == 0 {
		t.Fatalf("Stats.QueueStarved = 0 for a one-in-flight strategy under a depth-4 window; stats: %+v", st)
	}
}

// TestAsyncBestPrefersMeasuredShadow verifies best replies of an
// async session come from genuine measurements even while the
// round-buffered strategy has not yet seen a full round.
func TestAsyncBestPrefersMeasuredShadow(t *testing.T) {
	strat := search.NewPRO(testSpace(), search.PROOptions{Seed: 11})
	ss := newTestSession(testSpace(), strat, 40, pipelineWindow(strat, 4))

	reply := ss.fetch(nil)
	if reply.Type != proto.TypeConfig {
		t.Fatalf("fetch reply %q", reply.Type)
	}
	want := objective(reply.Values)
	if r := ss.report(&proto.Message{Tag: reply.Tag, Perf: want}); r.Type != proto.TypeOK {
		t.Fatalf("report reply %q", r.Type)
	}
	// The PRO round is not complete: the strategy itself knows nothing
	// yet, but the session has one genuine measurement.
	best := ss.best(nil)
	if best.Type != proto.TypeBestReply {
		t.Fatalf("best reply %+v", best)
	}
	if best.Perf != want {
		t.Fatalf("best perf %v, want the measured %v", best.Perf, want)
	}
	x, _ := strconv.Atoi(best.Values["x"])
	if got, _ := strconv.Atoi(reply.Values["x"]); x != got {
		t.Fatalf("best config %v, want the measured %v", best.Values, reply.Values)
	}
}

// TestCommittedCandidateTagsRetired: a hand-out tag dies with its
// candidate. A candidate handed out twice and reported once commits;
// its unreported twin must then neither arm a straggler deadline nor
// hold the session's lease for work that is already done, and the
// twin's late report is acknowledged and dropped as an unknown tag.
func TestCommittedCandidateTagsRetired(t *testing.T) {
	clk := newFakeClock()
	s := newFaultServer(clk)
	s.SessionTimeout = time.Minute
	s.ReportTimeout = 5 * time.Minute
	id := mustRegister(t, s, &proto.Message{
		Strategy: proto.StrategyRandom, Seed: 5, MaxRuns: 10, Async: true, AsyncDepth: 1,
		Space: proto.EncodeSpace(testSpace()),
	})
	// A window of one: the second fetch is handed the same candidate.
	first := s.dispatch(&proto.Message{Type: proto.TypeFetch, Session: id})
	twin := s.dispatch(&proto.Message{Type: proto.TypeFetch, Session: id})
	if first.Type != proto.TypeConfig || twin.Type != proto.TypeConfig || twin.Tag == first.Tag ||
		twin.Values["x"] != first.Values["x"] || twin.Values["y"] != first.Values["y"] {
		t.Fatalf("fetches %+v and %+v, want one candidate under two tags", first, twin)
	}
	if r := s.dispatch(&proto.Message{Type: proto.TypeReport, Session: id, Tag: first.Tag, Perf: 4}); r.Type != proto.TypeOK {
		t.Fatalf("report: %+v", r)
	}

	sh := s.shardFor(id)
	sh.mu.Lock()
	ss := sh.sessions[id]
	sh.mu.Unlock()
	ss.mu.Lock()
	deadline, outstanding := ss.stragglerDeadlineLocked()
	active := ss.effectiveLastActiveLocked(clk.Now().Add(2 * time.Minute))
	ss.mu.Unlock()
	if outstanding {
		t.Errorf("straggler deadline %v armed by the committed candidate's unreported twin", deadline)
	}
	if !active.Equal(clk.Now()) {
		t.Errorf("lease measured from %v, want the report at %v: the twin's straggler window extended it", active, clk.Now())
	}

	if r := s.dispatch(&proto.Message{Type: proto.TypeReport, Session: id, Tag: twin.Tag, Perf: -1e9}); r.Type != proto.TypeOK {
		t.Fatalf("late twin report: %+v", r)
	}
	if st := s.Stats(); st.ReportsDroppedStale != 1 || st.ReportsAccepted != 1 {
		t.Errorf("stats = %+v, want the twin's report dropped as stale", st)
	}
	// Two minutes of silence with nothing in flight: the lease governs.
	clk.Advance(2 * time.Minute)
	if n := s.ExpireNow(); n != 1 {
		t.Errorf("ExpireNow collected %d sessions, want 1", n)
	}
}

// TestExpiryPassWithNothingOverdueAllocatesNothing: every fetch and
// report of a session with a ReportTimeout runs the straggler expiry
// first, and almost always nothing is overdue. Hand-outs are kept in
// tag order, so the pass is a walk over them — no tag slice, no sort.
func TestExpiryPassWithNothingOverdueAllocatesNothing(t *testing.T) {
	now := time.Unix(1000, 0)
	strat := search.NewRandom(testSpace(), 5, 40)
	ss := newTestSession(testSpace(), strat, 40, pipelineWindow(strat, 4))
	ss.clock = func() time.Time { return now }
	ss.reportTimeout = time.Minute
	for i := 0; i < 4; i++ {
		if r := ss.fetch(nil); r.Type != proto.TypeConfig || r.Tag == 0 {
			t.Fatalf("fetch %d: %+v", i, r)
		}
	}
	now = now.Add(30 * time.Second) // four live hand-outs, all inside their deadline
	if _, ok := ss.stragglerDeadlineLocked(); !ok {
		t.Fatal("no hand-out outstanding")
	}
	if allocs := testing.AllocsPerRun(100, func() { ss.expireStragglersLocked(now) }); allocs != 0 {
		t.Errorf("an expiry pass that expires nothing allocated %v times, want 0", allocs)
	}
	if got := ss.stat().proposalsReissued.Load() + ss.stat().proposalsForfeited.Load(); got != 0 {
		t.Errorf("%d proposals re-issued or forfeited inside their deadline", got)
	}
}
