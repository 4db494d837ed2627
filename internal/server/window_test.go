package server

import (
	"math"
	"strconv"
	"sync"
	"testing"
	"time"
	"unsafe"

	"harmony/internal/client"
	"harmony/internal/core"
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
	ss := newTestSession(sp, strat, 10, func(ss *session) { ss.openWindow(rec, 4) })

	var tags []int
	for i := 0; i < 4; i++ {
		reply := ss.callFetch()
		if reply.Type != proto.TypeConfig || reply.Converged {
			t.Fatalf("fetch %d: %+v", i, reply)
		}
		tags = append(tags, reply.Tag)
	}
	// Report in reverse issue order.
	for i := len(tags) - 1; i >= 0; i-- {
		if r := ss.callReport(&proto.Message{Tag: tags[i], Perf: float64(100 + i)}); r.Type != proto.TypeOK {
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
		reply := ss.callFetch()
		if reply.Type != proto.TypeConfig || reply.Converged {
			t.Fatalf("fetch %d: %+v", i, reply)
		}
		tags = append(tags, reply.Tag)
		seen[reply.Values["x"]+","+reply.Values["y"]]++
	}
	// Report only the first candidate; three remain in flight.
	if r := ss.callReport(&proto.Message{Tag: tags[0], Perf: 12}); r.Type != proto.TypeOK {
		t.Fatalf("report: %+v", r)
	}
	reply := ss.callFetch()
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
		reply := ss.callFetch()
		if reply.Type != proto.TypeConfig {
			t.Fatalf("fetch %d: reply %q", i, reply.Type)
		}
		if reply.Converged {
			break
		}
		evaluated++
		ss.callReport(&proto.Message{Tag: reply.Tag, Perf: float64(i)})
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

	first := ss.callFetch()
	if first.Type != proto.TypeConfig {
		t.Fatalf("fetch reply %q", first.Type)
	}
	if r := ss.callReport(&proto.Message{Tag: first.Tag, Perf: 5}); r.Type != proto.TypeOK {
		t.Fatalf("report reply %q", r.Type)
	}
	// The same tag again, and an unknown tag: dropped, still OK.
	if r := ss.callReport(&proto.Message{Tag: first.Tag, Perf: -1e9}); r.Type != proto.TypeOK {
		t.Fatalf("duplicate report reply %q", r.Type)
	}
	if r := ss.callReport(&proto.Message{Tag: 9999, Perf: -1e9}); r.Type != proto.TypeOK {
		t.Fatalf("stale report reply %q", r.Type)
	}
	for i := 0; i < 200; i++ {
		reply := ss.callFetch()
		if reply.Type != proto.TypeConfig {
			t.Fatalf("fetch reply %q", reply.Type)
		}
		if reply.Converged {
			break
		}
		ss.callReport(&proto.Message{Tag: reply.Tag, Perf: 50})
	}
	// The bogus -1e9 reports must not have reached the session's view
	// of the best measurement.
	if best := ss.callBest(); best.Type != proto.TypeBestReply || best.Perf != 5 {
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

	first := ss.callFetch()
	if first.Type != proto.TypeConfig {
		t.Fatalf("fetch reply %q", first.Type)
	}
	firstKey := first.Values["x"] + "," + first.Values["y"]

	// Two straggler expiries: each re-issues the same candidate.
	for i := 0; i < 2; i++ {
		now = now.Add(2 * time.Second)
		reply := ss.callFetch()
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
	reply := ss.callFetch()
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
	// A simplex's Ask stalls after every candidate: with a window
	// deeper than that round of one, every fill pass past the first
	// candidate is starved.
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

// stalledStrategy stalls on every Ask, with nothing in flight, and
// never finishes.
type stalledStrategy struct{ scriptedBatch }

func (*stalledStrategy) Ask() (space.Point, bool) { return nil, false }

// TestQueueStarvedCountsBoundedStalls pins Stats.QueueStarved exactly: a
// fetch counts a starved refill only when a bounded window stalled with
// work still in it. The script is a round of six points, then a round
// of two, each fetch answered before the next. Under depth 4 the first
// three refills stop at the depth, not stalled (0); the next three stall
// on the six still committing (3); the second round's two stall on
// itself (2); the last finds the strategy done (0). A round session
// stalls at every barrier, which is not starvation, and a strategy
// stalled with nothing in flight leaves nothing to starve.
func TestQueueStarvedCountsBoundedStalls(t *testing.T) {
	script := func() *scriptedBatch {
		var rounds [][]space.Point
		for _, n := range []int{6, 2} {
			var round []space.Point
			for range n {
				round = append(round, space.Point{int64(3 * len(rounds)), int64(len(round))})
			}
			rounds = append(rounds, round)
		}
		return &scriptedBatch{rounds: rounds}
	}
	starved := func(strat search.Strategy, win func(search.Strategy) func(*session)) int64 {
		ss := newTestSession(testSpace(), strat, 0, win(strat))
		for range 20 {
			reply := ss.callFetch()
			if reply.Type != proto.TypeConfig {
				t.Fatalf("fetch reply %+v", reply)
			}
			if reply.Converged {
				break
			}
			ss.callReport(&proto.Message{Tag: reply.Tag, Perf: 1})
		}
		return ss.stat().queueStarved.Load()
	}
	bounded := func(strat search.Strategy) func(*session) { return pipelineWindow(strat, 4) }
	for _, c := range []struct {
		name  string
		strat search.Strategy
		win   func(search.Strategy) func(*session)
		want  int64
	}{
		{"bounded", script(), bounded, 5},
		{"round", script(), roundWindow, 0},
		{"stalled-empty", &stalledStrategy{}, bounded, 0},
	} {
		if got := starved(c.strat, c.win); got != c.want {
			t.Errorf("%s: QueueStarved = %d, want %d", c.name, got, c.want)
		}
	}
}

// TestAsyncBestPrefersMeasuredShadow verifies best replies of an
// async session come from genuine measurements even while the
// strategy, told only in issue order, has not yet heard of them.
func TestAsyncBestPrefersMeasuredShadow(t *testing.T) {
	strat := search.NewPRO(testSpace(), search.PROOptions{Seed: 11})
	ss := newTestSession(testSpace(), strat, 40, pipelineWindow(strat, 4))

	if head := ss.callFetch(); head.Type != proto.TypeConfig {
		t.Fatalf("fetch reply %q", head.Type)
	}
	reply := ss.callFetch()
	if reply.Type != proto.TypeConfig {
		t.Fatalf("fetch reply %q", reply.Type)
	}
	want := objective(reply.Values)
	if r := ss.callReport(&proto.Message{Tag: reply.Tag, Perf: want}); r.Type != proto.TypeOK {
		t.Fatalf("report reply %q", r.Type)
	}
	// The head has not reported, so nothing has committed: the strategy
	// itself knows nothing yet, but the session has one genuine
	// measurement.
	if _, _, ok := strat.Best(); ok {
		t.Fatal("the strategy was told a value behind an uncommitted head")
	}
	best := ss.callBest()
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
// its unreported twin must then neither stay live for a straggler
// deadline nor hold the session's lease for work that is already done,
// and the twin's late report is acknowledged and dropped as an unknown
// tag.
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
	first := s.call(&proto.Message{Type: proto.TypeFetch, Session: id})
	twin := s.call(&proto.Message{Type: proto.TypeFetch, Session: id})
	if first.Type != proto.TypeConfig || twin.Type != proto.TypeConfig || twin.Tag == first.Tag ||
		twin.Values["x"] != first.Values["x"] || twin.Values["y"] != first.Values["y"] {
		t.Fatalf("fetches %+v and %+v, want one candidate under two tags", first, twin)
	}
	if r := s.call(&proto.Message{Type: proto.TypeReport, Session: id, Tag: first.Tag, Perf: 4}); r.Type != proto.TypeOK {
		t.Fatalf("report: %+v", r)
	}

	sh := s.shardFor(id)
	sh.mu.Lock()
	ss := sh.sessions[id]
	sh.mu.Unlock()
	ss.mu.Lock()
	issued, outstanding := ss.outstandingLocked()
	active := ss.effectiveLastActiveLocked(clk.Now().Add(2 * time.Minute))
	ss.mu.Unlock()
	if outstanding {
		t.Errorf("the committed candidate's unreported twin, issued %v, is still live", issued)
	}
	if !active.Equal(clk.Now()) {
		t.Errorf("lease measured from %v, want the report at %v: the twin's straggler window extended it", active, clk.Now())
	}

	if r := s.call(&proto.Message{Type: proto.TypeReport, Session: id, Tag: twin.Tag, Perf: -1e9}); r.Type != proto.TypeOK {
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
		if r := ss.callFetch(); r.Type != proto.TypeConfig || r.Tag == 0 {
			t.Fatalf("fetch %d: %+v", i, r)
		}
	}
	now = now.Add(30 * time.Second) // four live hand-outs, all inside their deadline
	if _, ok := ss.outstandingLocked(); !ok {
		t.Fatal("no hand-out outstanding")
	}
	if allocs := testing.AllocsPerRun(100, func() { ss.expireStragglersLocked(now) }); allocs != 0 {
		t.Errorf("an expiry pass that expires nothing allocated %v times, want 0", allocs)
	}
	if got := ss.stat().proposalsReissued.Load() + ss.stat().proposalsForfeited.Load(); got != 0 {
		t.Errorf("%d proposals re-issued or forfeited inside their deadline", got)
	}
}

// tellCounter counts what the strategy is told, and remembers the
// values.
type tellCounter struct {
	search.AsyncStrategy
	told []float64
}

func (s *tellCounter) Commit(pt space.Point, v float64) {
	s.told = append(s.told, v)
	s.AsyncStrategy.Commit(pt, v)
}

// checkStaleOnReissued reports tag — a hand-out whose candidate has
// committed and been reissued, as the live cand — and checks that the
// report is dropped as stale and changes nothing the window measures:
// cand stays incomplete and the strategy hears nothing.
func checkStaleOnReissued(t *testing.T, ss *session, strat *tellCounter, tag int, cand *cand) {
	t.Helper()
	dropped, told := ss.stat().reportsDroppedStale.Load(), len(strat.told)
	if r := ss.callReport(&proto.Message{Tag: tag, Perf: -1e9, Next: true}); r.Type != proto.TypeOK {
		t.Fatalf("report on the old tag: %+v, want ok", r)
	}
	if got := ss.stat().reportsDroppedStale.Load(); got != dropped+1 {
		t.Errorf("ReportsDroppedStale %d → %d, want one more", dropped, got)
	}
	if cand.Done || cand.Payload.count != 0 {
		t.Errorf("the reissued candidate took the old tag's report: done=%v, %d reports", cand.Done, cand.Payload.count)
	}
	if len(strat.told) != told {
		t.Errorf("the strategy was told %v after the old tag's report, want nothing", strat.told[told:])
	}
}

// TestStaleTagAfterCandidateReuse: a committed candidate is reissued for
// a later proposal, so the hand-outs it had must die at its commit. Two
// clients of a depth-1 shared session are handed one candidate under
// two tags; A's report commits it and its reply hands A the next
// configuration, on the same struct. B's report on its old tag is then
// stale: it must not complete what A is now measuring.
func TestStaleTagAfterCandidateReuse(t *testing.T) {
	sp := testSpace()
	strat := &tellCounter{AsyncStrategy: search.AsAsync(search.NewRandom(sp, 5, 50))}
	ss := newTestSession(sp, nil, 50, func(ss *session) { ss.openWindow(strat, 1) })
	a, b := ss.callFetch(), ss.callFetch()
	if a.Type != proto.TypeConfig || b.Type != proto.TypeConfig || a.Tag == b.Tag {
		t.Fatalf("fetches %+v and %+v, want one candidate under two tags", a, b)
	}
	old := ss.win.m.Head()
	next := ss.callReport(&proto.Message{Tag: a.Tag, Perf: 5, Next: true})
	if next.Type != proto.TypeConfig || len(strat.told) != 1 {
		t.Fatalf("A's report: %+v, strategy told %v; want the next configuration after one commit", next, strat.told)
	}
	if ss.win.m.Head() != old {
		t.Fatal("the next configuration was not issued on the committed candidate")
	}
	checkStaleOnReissued(t, ss, strat, b.Tag, old)
	// A's report on the reissued candidate is the one that counts.
	ss.callReport(&proto.Message{Tag: next.Tag, Perf: 7})
	if len(strat.told) != 2 || strat.told[1] != 7 {
		t.Errorf("strategy told %v, want A's 5 and then 7", strat.told)
	}
}

// TestStaleTagAfterCandidateReuseParallel: the same in a Parallel round.
// B fetches once the round is covered and is handed a duplicate of the
// head; the round commits without B, and the next round reissues the
// head's struct. B's late report must be stale.
func TestStaleTagAfterCandidateReuseParallel(t *testing.T) {
	sp := testSpace()
	strat := &tellCounter{AsyncStrategy: search.Rounds(search.NewRandom(sp, 5, 50))}
	ss := newTestSession(sp, nil, 50, func(ss *session) { ss.openWindow(strat, core.Unbounded) })
	m := ss.win.m
	tags := []int{ss.callFetch().Tag}
	for len(tags) < m.Len() {
		tags = append(tags, ss.callFetch().Tag)
	}
	b := ss.callFetch()
	dup := ss.win.lookup(b.Tag)
	if dup == nil || dup.cand != m.Head() {
		t.Fatalf("B's fetch %+v was not handed the round's head", b)
	}
	old := dup.cand
	for _, tag := range tags {
		ss.callReport(&proto.Message{Tag: tag, Perf: 5})
	}
	if m.Len() != 0 || len(strat.told) != len(tags) {
		t.Fatalf("%d in flight, strategy told %d values; want the round of %d committed", m.Len(), len(strat.told), len(tags))
	}
	if a := ss.callFetch(); a.Type != proto.TypeConfig {
		t.Fatalf("A's fetch of the next round: %+v", a)
	}
	reissued := false
	for i := 0; i < m.Len(); i++ {
		reissued = reissued || m.At(i) == old
	}
	if !reissued {
		t.Fatal("the next round was not issued on the committed candidates")
	}
	checkStaleOnReissued(t, ss, strat, b.Tag, old)
}

// TestWindowSize pins a session's engine window at 384 bytes on 64-bit
// platforms, the top of the 384-byte size class: every session holds
// one, so a field added to core.Window, or to handState through its
// ring, moves every session into the 416-byte class.
func TestWindowSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("layout pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(core.Window[handState]{}); got != 384 {
		t.Errorf("unsafe.Sizeof(core.Window[handState]{}) = %d, want 384, the top of its size class: past it, every session's window costs 416", got)
	}
}

// TestReportOnePastNewestTagIsStale: a report whose tag is one past
// the newest hand-out names a hand-out that was never issued. It is
// acknowledged and counted as stale, and the live hand-out still takes
// its own report.
func TestReportOnePastNewestTagIsStale(t *testing.T) {
	s := newFaultServer(newFakeClock())
	id := mustRegister(t, s, &proto.Message{
		Strategy: proto.StrategyRandom, Seed: 2, MaxRuns: 10,
		Space: proto.EncodeSpace(testSpace()),
	})
	cfg := s.call(&proto.Message{Type: proto.TypeFetch, Session: id})
	if cfg.Type != proto.TypeConfig {
		t.Fatalf("fetch: %+v", cfg)
	}
	if r := s.call(&proto.Message{Type: proto.TypeReport, Session: id, Tag: cfg.Tag + 1, Perf: 1}); r.Type != proto.TypeOK {
		t.Fatalf("report under tag %d, one past the newest %d: %+v", cfg.Tag+1, cfg.Tag, r)
	}
	if st := s.Stats(); st.ReportsDroppedStale != 1 || st.ReportsAccepted != 0 {
		t.Fatalf("stats = %+v, want the report dropped as stale", st)
	}
	s.call(&proto.Message{Type: proto.TypeReport, Session: id, Tag: cfg.Tag, Perf: 4})
	if st := s.Stats(); st.ReportsAccepted != 1 {
		t.Errorf("ReportsAccepted = %d, want 1: the live hand-out's own report", st.ReportsAccepted)
	}
}

// TestReportTimeoutBoundary: a hand-out is retired once it is exactly
// ReportTimeout old. A report 1 ns before that is accepted; one at
// that moment finds its hand-out re-issued, and is stale.
func TestReportTimeoutBoundary(t *testing.T) {
	const timeout = 30 * time.Second
	clk := newFakeClock()
	s := newFaultServer(clk)
	s.ReportTimeout = timeout
	id := mustRegister(t, s, &proto.Message{
		Strategy: proto.StrategyRandom, Seed: 2, MaxRuns: 10,
		Space: proto.EncodeSpace(testSpace()),
	})
	young := s.call(&proto.Message{Type: proto.TypeFetch, Session: id})
	clk.Advance(timeout - time.Nanosecond)
	s.call(&proto.Message{Type: proto.TypeReport, Session: id, Tag: young.Tag, Perf: 4})
	if st := s.Stats(); st.ReportsAccepted != 1 || st.ProposalsReissued != 0 {
		t.Fatalf("a report 1 ns before the deadline: stats = %+v, want it accepted", st)
	}
	old := s.call(&proto.Message{Type: proto.TypeFetch, Session: id})
	clk.Advance(timeout)
	if r := s.call(&proto.Message{Type: proto.TypeReport, Session: id, Tag: old.Tag, Perf: 3}); r.Type != proto.TypeOK {
		t.Fatalf("a report at the deadline: %+v", r)
	}
	if st := s.Stats(); st.ReportsAccepted != 1 || st.ReportsDroppedStale != 1 || st.ProposalsReissued != 1 {
		t.Errorf("a report at the deadline: stats = %+v, want its hand-out re-issued and the report stale", st)
	}
}
