package server

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"harmony/internal/history"
	"harmony/internal/proto"
	"harmony/internal/search"
	"harmony/internal/space"
)

// recordingStrategy wraps a round-structured strategy and records
// what it is told: one "x,y=value ..." string per delivered round.
type recordingStrategy struct {
	search.BatchStrategy
	commits []string
}

func (r *recordingStrategy) ReportBatch(pts []space.Point, values []float64) {
	round := make([]string, len(pts))
	for i, pt := range pts {
		round[i] = fmt.Sprintf("%d,%d=%g", pt[0], pt[1], values[i])
	}
	r.commits = append(r.commits, strings.Join(round, " "))
	r.BatchStrategy.ReportBatch(pts, values)
}

// fanoutCounts are the session counters a golden pins.
type fanoutCounts struct {
	runs                                       int
	reissued, forfeited, stale, accepted, hits int64
}

// fanoutGolden is one Parallel session driven by the deterministic
// client below, and everything observable about it.
type fanoutGolden struct {
	name    string
	strat   func(sp *space.Space) search.BatchStrategy
	maxRuns int
	// setup, if set, adjusts the session before its window opens.
	setup func(ss *session, now *time.Time)
	// dropConfig names a configuration whose every hand-out crashes
	// before reporting; dropIndex one further hand-out (by position in
	// the sequence, -1 for none) that is lost the same way.
	dropConfig string
	dropIndex  int

	handouts []string // "tag:x,y" in fetch order
	commits  []string // rounds delivered to the strategy, in order
	// cutRounds is how many trailing entries of commits the window does
	// not deliver: the round-fanout code this was captured from
	// reported the prefix of a budget-truncated round to the strategy,
	// where the window — like core.Tune — abandons it.
	cutRounds int
	best      string // the session's Best reply, "x,y=perf"
	fanoutCounts
}

// driveFetch4 is the golden client: fetch on four handles, then report
// what was fetched in the same order, until nothing is handed out. The
// clock advances 6s — past the 5s report timeout — after every step.
func driveFetch4(t *testing.T, ss *session, now *time.Time, g *fanoutGolden) (handouts []string) {
	t.Helper()
	for step := 0; step < 50; step++ {
		var got []*proto.Message
		fetched := 0
		for i := 0; i < 4; i++ {
			r := ss.fetch(nil)
			if r.Type != proto.TypeConfig {
				t.Fatalf("%s: fetch: %+v", g.name, r)
			}
			if r.Converged {
				continue
			}
			fetched++
			cfg := r.Values["x"] + "," + r.Values["y"]
			if cfg != g.dropConfig && len(handouts) != g.dropIndex {
				got = append(got, r)
			}
			handouts = append(handouts, fmt.Sprintf("%d:%s", r.Tag, cfg))
		}
		if fetched == 0 {
			return handouts
		}
		for _, r := range got {
			if rep := ss.report(&proto.Message{Tag: r.Tag, Perf: objective(r.Values)}); rep.Type != proto.TypeOK {
				t.Fatalf("%s: report: %+v", g.name, rep)
			}
		}
		*now = now.Add(6 * time.Second)
	}
	t.Fatalf("%s: session never converged", g.name)
	return nil
}

// TestFanoutGoldens pins the window against the round fan-out it
// replaced. The literals were captured from that code (fanoutRound,
// fetchParallelLocked, reportParallelLocked, expireRoundLocked) at the
// commit before its deletion, driven by driveFetch4: the hand-out
// sequence, the rounds the strategy was told, the Best reply and the
// fault counters of three Parallel sessions. The window must reproduce
// them; the one declared difference is cutRounds.
func TestFanoutGoldens(t *testing.T) {
	sp := testSpace()
	pro := func(sp *space.Space) search.BatchStrategy { return search.NewPRO(sp, search.PROOptions{Seed: 5}) }
	random := func(sp *space.Space) search.BatchStrategy { return search.NewRandom(sp, 17, 20) }
	goldens := []fanoutGolden{
		{
			// The budget cuts the second round of three to two.
			name: "pro-maxruns-6", strat: pro, maxRuns: 6, dropIndex: -1,
			handouts:     []string{"1:20,20", "2:20,20", "3:22,24", "4:20,16", "5:20,12", "6:20,12", "7:20,12", "8:20,12"},
			commits:      []string{"20,20=260 20,20=260 22,24=380 20,16=156", "20,12=84 20,12=84"},
			cutRounds:    1,
			best:         "20,12=84",
			fanoutCounts: fanoutCounts{runs: 6, stale: 2, accepted: 6},
		},
		{
			// Every other point of the 20-point stream is already cached.
			name: "random-half-warm", strat: random, maxRuns: 20, dropIndex: -1,
			setup: func(ss *session, _ *time.Time) {
				ss.cache = history.NewEvalCache().BoundNS("golden", "m", "", sp)
				for i, pt := range random(sp).NextBatch() {
					if cfg, err := sp.Decode(pt); err == nil && i%2 == 0 {
						ss.cache.Store(pt, objective(cfg.Map()))
					}
				}
			},
			handouts: []string{"1:18,2", "2:37,4", "3:19,39", "4:0,25", "5:8,11", "6:36,33", "7:27,38", "8:13,28", "9:35,22", "10:1,19", "11:18,35", "12:34,7"},
			commits: []string{
				"25,12=59 18,2=68 30,11=71 37,4=155 30,17=179 19,39=1202 12,0=204 0,25=1035 38,28=708 8,11=335 26,20=236 36,33=915 13,1=170 27,38=1103 12,15=279 13,28=683",
				"35,22=399 1,19=782 18,35=959 34,7=95",
			},
			best:         "25,12=59",
			fanoutCounts: fanoutCounts{runs: 20, accepted: 12, hits: 8},
		},
		{
			// Two reporters per proposal. The second hand-out is lost, so
			// its proposal is re-issued; every hand-out of 22,24 is lost,
			// so it is re-issued once and then forfeited.
			name: "pro-reporters-2-faults", strat: pro, maxRuns: 10, dropConfig: "22,24", dropIndex: 1,
			setup: func(ss *session, now *time.Time) {
				ss.reporters, ss.reportTimeout, ss.maxReissues = 2, 5*time.Second, 1
				ss.clock = func() time.Time { return *now }
			},
			handouts: []string{
				"1:20,20", "2:20,20", "3:22,24", "4:20,16", "5:20,20", "6:22,24", "7:20,20", "8:20,20", "9:20,16", "10:20,16",
				"11:20,16", "12:20,16", "13:20,12", "14:20,12", "15:18,8", "16:20,12", "17:20,12", "18:18,8", "19:20,12", "20:18,8",
				"21:20,8", "22:20,8", "23:16,0", "24:20,8", "25:20,8", "26:16,0", "27:20,8", "28:16,0",
			},
			commits:      []string{"20,20=260 20,20=260 22,24=+Inf 20,16=156", "20,12=84 20,12=84 18,8=68", "20,8=44 20,8=44 16,0=116"},
			best:         "20,8=44",
			fanoutCounts: fanoutCounts{runs: 10, reissued: 2, forfeited: 1, stale: 7, accepted: 18},
		},
	}
	for _, g := range goldens {
		now := time.Unix(1000, 0)
		rec := &recordingStrategy{BatchStrategy: g.strat(sp)}
		ss := newTestSession(sp, rec, g.maxRuns, nil)
		if g.setup != nil {
			g.setup(ss, &now)
		}
		roundWindow(rec)(ss)
		if got := driveFetch4(t, ss, &now, &g); !reflect.DeepEqual(got, g.handouts) {
			t.Errorf("%s: hand-outs\n got %q\nwant %q", g.name, got, g.handouts)
		}
		want := g.commits[:len(g.commits)-g.cutRounds]
		if !reflect.DeepEqual(rec.commits, want) {
			t.Errorf("%s: rounds delivered to the strategy\n got %q\nwant %q", g.name, rec.commits, want)
		}
		b := ss.best(nil)
		if got := fmt.Sprintf("%s,%s=%g", b.Values["x"], b.Values["y"], b.Perf); b.Type != proto.TypeBestReply || got != g.best {
			t.Errorf("%s: best reply %+v, want %s", g.name, b, g.best)
		}
		st := ss.stat()
		counts := fanoutCounts{
			runs: ss.win.m.Charged, reissued: st.proposalsReissued.Load(), forfeited: st.proposalsForfeited.Load(),
			stale: st.reportsDroppedStale.Load(), accepted: st.reportsAccepted.Load(), hits: st.cacheHits.Load(),
		}
		if counts != g.fanoutCounts {
			t.Errorf("%s: counters %+v, want %+v", g.name, counts, g.fanoutCounts)
		}
		if rounds := st.roundsCompleted.Load(); rounds != int64(len(want)) {
			t.Errorf("%s: RoundsCompleted = %d, want the %d rounds delivered", g.name, rounds, len(want))
		}
	}
}

// skewed is the objective as client c of a shared session measures it:
// a deterministic per-client offset that is not monotone in the
// objective, so the search trajectory and the Best value depend on
// which of the clients' reports the session keeps.
func skewed(values map[string]string, c int) float64 {
	x, _ := strconv.Atoi(values["x"])
	y, _ := strconv.Atoi(values["y"])
	return objective(values) + float64((7*x+3*y+11*c)%13)
}

// driveShared is the golden client of a shared session: 40 steps over
// dispatch, each one fetch per client, then one report per client in
// the same order — with one more fetch before the last report, which
// must still see the step's configuration. It returns what each step
// was handed ("x,y", "!" once converged) and the final Best reply.
func driveShared(t *testing.T, clients int) (steps []string, best string) {
	t.Helper()
	s := newFaultServer(newFakeClock())
	id := mustRegister(t, s, &proto.Message{MaxRuns: 40, Reporters: clients, Space: proto.EncodeSpace(testSpace())})
	fetch := func() *proto.Message {
		r := s.dispatch(&proto.Message{Type: proto.TypeFetch, Session: id})
		if r.Type != proto.TypeConfig {
			t.Fatalf("fetch: %+v", r)
		}
		return r
	}
	show := func(r *proto.Message) string {
		if r.Converged {
			return r.Values["x"] + "," + r.Values["y"] + "!"
		}
		return r.Values["x"] + "," + r.Values["y"]
	}
	for step := 0; step < 40; step++ {
		tags := map[int]bool{}
		cfgs := make([]*proto.Message, clients)
		for c := range cfgs {
			cfgs[c] = fetch()
			if show(cfgs[c]) != show(cfgs[0]) {
				t.Fatalf("step %d: client %d was handed %s, client 0 %s", step, c, show(cfgs[c]), show(cfgs[0]))
			}
			tags[cfgs[c].Tag] = true
		}
		steps = append(steps, show(cfgs[0]))
		if cfgs[0].Converged {
			continue
		}
		if len(tags) != clients {
			t.Fatalf("step %d: %d distinct tags over %d hand-outs", step, len(tags), clients)
		}
		for c, cfg := range cfgs {
			if c == clients-1 {
				if r := fetch(); show(r) != show(cfg) {
					t.Fatalf("step %d: the search advanced to %s before the last report", step, show(r))
				}
			}
			perf := skewed(cfg.Values, c)
			if r := s.dispatch(&proto.Message{Type: proto.TypeReport, Session: id, Tag: cfg.Tag, Perf: perf}); r.Type != proto.TypeOK {
				t.Fatalf("report: %+v", r)
			}
		}
	}
	b := s.dispatch(&proto.Message{Type: proto.TypeBest, Session: id})
	if b.Type != proto.TypeBestReply {
		t.Fatalf("best: %+v", b)
	}
	return steps, fmt.Sprintf("%s,%s=%g converged=%v", b.Values["x"], b.Values["y"], b.Perf, b.Converged)
}

// TestSharedGoldens pins the window at depth 1 against the single
// configuration slot it replaced. The literals were captured from that
// code (session.pending/gen/reports, the classify loop in fetch,
// finishPendingLocked) at the commit before its deletion, driven by
// driveShared with reports echoing Gen where they now echo Tag: what a
// simplex session hands out step by step, when it converges, and its
// Best reply — with one client for 40 runs, and with three clients and
// Reporters 3. The second pins what is emergent where it used to be
// coded: every client of a step is handed the same values (under
// distinct tags; it was one generation), the search does not move
// before the third report, and it moves on the worst of the three.
func TestSharedGoldens(t *testing.T) {
	goldens := []struct {
		clients int
		steps   []string
		best    string
	}{
		{1, []string{
			"20,20", "30,20", "20,30", "30,10", "35,0", "20,10", "15,5", "30,0", "20,0", "28,8",
			"18,18", "27,4", "34,2", "24,8", "23,5", "26,1", "24,6", "28,6", "24,5", "22,7",
			"26,5", "26,4", "25,6", "25,5", "24,6", "24,6", "24,6", "25,5", "24,5", "24,5",
			"24,5", "24,5!", "24,5!", "24,5!", "24,5!", "24,5!", "24,5!", "24,5!", "24,5!", "24,5!",
		}, "24,5=12 converged=true"},
		{3, []string{
			"20,20", "30,20", "20,30", "30,10", "35,0", "20,10", "30,0", "40,0", "25,8", "25,18",
			"29,4", "24,2", "20,5", "27,5", "28,10", "25,4", "23,7", "26,5", "25,2", "25,6",
			"25,3", "25,5", "24,4", "25,5", "25,4", "24,3", "25,5", "25,4", "25,5", "24,3",
			"25,4", "25,4!", "25,4!", "25,4!", "25,4!", "25,4!", "25,4!", "25,4!", "25,4!", "25,4!",
		}, "25,4=16 converged=true"},
	}
	for _, g := range goldens {
		steps, best := driveShared(t, g.clients)
		if !reflect.DeepEqual(steps, g.steps) {
			t.Errorf("%d clients: handed\n got %q\nwant %q", g.clients, steps, g.steps)
		}
		if best != g.best {
			t.Errorf("%d clients: best %s, want %s", g.clients, best, g.best)
		}
	}
}
