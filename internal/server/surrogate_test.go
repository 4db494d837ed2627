package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"reflect"
	"testing"

	"harmony/internal/proto"
	"harmony/internal/search"
	"harmony/internal/space"
)

// Sessions no longer screen: screening is a campaign option of
// core.Tune alone, and the wire's surrogate members are retired. These
// tests pin what a session does in its place — for an old client that
// still asks for screening too: every run goes to a client, every
// round goes out whole, and a best reply comes only from a value a
// client measured.

// retiredKeys are the register members that a client from before the
// retirement still sends.
const retiredKeys = `"surrogate":true,"surrogate_keep":0.3,`

// testSpaceJSON is testSpace as a register line's space member.
const testSpaceJSON = `"space":[{"name":"x","kind":"int","min":0,"max":40,"step":1},` +
	`{"name":"y","kind":"int","min":0,"max":40,"step":1}]`

// jsonCaller dials addr and returns a function that sends one line of
// the JSON protocol and decodes the reply, as any line client would.
func jsonCaller(t *testing.T, addr string) func(line string) proto.Message {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	r := bufio.NewReader(conn)
	return func(line string) proto.Message {
		t.Helper()
		if _, err := fmt.Fprintln(conn, line); err != nil {
			t.Fatal(err)
		}
		reply, err := r.ReadBytes('\n')
		if err != nil {
			t.Fatalf("%s: no reply: %v", line, err)
		}
		var m proto.Message
		if err := json.Unmarshal(reply, &m); err != nil {
			t.Fatalf("reply %q: %v", reply, err)
		}
		return m
	}
}

// lineSession is one session driven to convergence over JSON lines
// with the bowl objective.
type lineSession struct {
	handed      []string // "x,y" in fetch order
	minMeasured float64
	best        proto.Message // the best reply after convergence
}

// driveLines registers a session with the given register members, and
// the retired keys when retired is set, then fetches and reports the
// bowl objective until the session converges.
func driveLines(t *testing.T, addr, members string, retired bool) lineSession {
	t.Helper()
	call := jsonCaller(t, addr)
	line := `{"type":"register",` + members
	if retired {
		line += retiredKeys
	}
	reg := call(line + testSpaceJSON + "}")
	if reg.Type != proto.TypeRegistered || reg.Session == "" {
		t.Fatalf("register %s: %+v", line, reg)
	}
	out := lineSession{minMeasured: math.Inf(1)}
	for i := 0; ; i++ {
		if i == 1000 {
			t.Fatal("session did not converge within 1000 evaluations")
		}
		cfg := call(`{"type":"fetch","session":"` + reg.Session + `"}`)
		if cfg.Type != proto.TypeConfig {
			t.Fatalf("fetch: %+v", cfg)
		}
		if cfg.Converged {
			break
		}
		v := objective(cfg.Values)
		out.handed = append(out.handed, cfg.Values["x"]+","+cfg.Values["y"])
		out.minMeasured = min(out.minMeasured, v)
		call(fmt.Sprintf(`{"type":"report","session":%q,"tag":%d,"perf":%g}`, reg.Session, cfg.Tag, v))
	}
	out.best = call(`{"type":"best","session":"` + reg.Session + `"}`)
	if out.best.Type != proto.TypeBestReply {
		t.Fatalf("best: %+v", out.best)
	}
	return out
}

// checkBestMeasured fails unless a session's best reply is the
// smallest value its client measured, at values that re-evaluate to it.
func checkBestMeasured(t *testing.T, s lineSession) {
	t.Helper()
	if s.best.Perf != s.minMeasured {
		t.Errorf("best perf %v is not the smallest measured value %v", s.best.Perf, s.minMeasured)
	}
	if got := objective(s.best.Values); got != s.best.Perf {
		t.Errorf("best values %v re-evaluate to %v, reply claimed %v", s.best.Values, got, s.best.Perf)
	}
}

// TestSurrogateSequentialPrunesAndBestMeasured: a shared-config
// session that asks for screening prunes nothing. Its client is handed
// exactly what a plain registration's client is, every hand-out is a
// measured report, and the best reply is one of the measured values.
func TestSurrogateSequentialPrunesAndBestMeasured(t *testing.T) {
	srv, addr := startServer(t)
	const members = `"app":"bowl","strategy":"simplex","max_runs":60,`
	old := driveLines(t, addr, members, true)
	plain := driveLines(t, addr, members, false)
	if len(old.handed) == 0 || !reflect.DeepEqual(old.handed, plain.handed) {
		t.Errorf("screening asked: handed %v\nplain session: handed %v\nwant the same non-empty sequence", old.handed, plain.handed)
	}
	if got, want := srv.Stats().ReportsAccepted, int64(len(old.handed)+len(plain.handed)); got != want {
		t.Errorf("accepted %d reports, want one per hand-out (%d)", got, want)
	}
	checkBestMeasured(t, old)
}

// TestSurrogateParallelBestIsMeasured: a parallel session that asks
// for screening spends its whole budget on hand-outs, and its best
// reply is the best configuration its clients measured.
func TestSurrogateParallelBestIsMeasured(t *testing.T) {
	_, addr := startServer(t)
	old := driveLines(t, addr, `"app":"bowl","strategy":"random","seed":7,"parallel":true,"max_runs":30,`, true)
	if len(old.handed) != 30 {
		t.Errorf("clients were handed %d configurations, want all 30 runs", len(old.handed))
	}
	checkBestMeasured(t, old)
}

// TestSurrogateParallelPrunesWithinRunBudget: with nothing pruned, a
// parallel session's run budget is exactly the configurations its
// clients measure, and asking for screening leaves the seeded random
// stream untouched.
func TestSurrogateParallelPrunesWithinRunBudget(t *testing.T) {
	srv, addr := startServer(t)
	const budget = 20
	members := fmt.Sprintf(`"app":"bowl","strategy":"random","seed":3,"parallel":true,"max_runs":%d,`, budget)
	old := driveLines(t, addr, members, true)
	plain := driveLines(t, addr, members, false)
	if len(old.handed) != budget {
		t.Errorf("clients were handed %d configurations, want the %d-run budget", len(old.handed), budget)
	}
	if !reflect.DeepEqual(old.handed, plain.handed) {
		t.Errorf("screening asked: handed %v\nplain session: handed %v", old.handed, plain.handed)
	}
	if got := srv.Stats().ReportsAccepted; got != 2*budget {
		t.Errorf("accepted %d reports, want %d", got, 2*budget)
	}
}

// TestSurrogateFallbackOnDecline: a round session goes out whole, as a
// round with a declined member did when sessions screened: every
// decodable member is handed to a client and the strategy is told
// every measured value.
func TestSurrogateFallbackOnDecline(t *testing.T) {
	sp := testSpace()
	rec := &recordingStrategy{roundStrategy: &scriptedBatch{rounds: [][]space.Point{
		{{5, 5}, {10, 5}, {15, 5}, {20, 5}, {25, 5}},
		{{24, 5}, {0, 5}, {26, 5}},
		{{24, 6}, {99, 99}, {26, 6}}, // one member undecodable
	}}}
	ss := newTestSession(sp, rec, 0, nil)
	roundWindow(rec)(ss)

	// fetchRound fetches and reports want configurations, returning
	// what clients were handed.
	fetchRound := func(want int) []string {
		t.Helper()
		var got []string
		for i := 0; i < want; i++ {
			r := ss.callFetch()
			if r.Type != proto.TypeConfig || r.Converged {
				t.Fatalf("fetch: %+v", r)
			}
			got = append(got, r.Values["x"]+","+r.Values["y"])
			ss.callReport(&proto.Message{Tag: r.Tag, Perf: objective(r.Values)})
		}
		return got
	}
	if got, want := fetchRound(5), []string{"5,5", "10,5", "15,5", "20,5", "25,5"}; !reflect.DeepEqual(got, want) {
		t.Errorf("round 1 handed out %v, want the whole round %v", got, want)
	}
	if got, want := fetchRound(3), []string{"24,5", "0,5", "26,5"}; !reflect.DeepEqual(got, want) {
		t.Errorf("round 2 handed out %v, want the whole round %v", got, want)
	}
	if got, want := fetchRound(2), []string{"24,6", "26,6"}; !reflect.DeepEqual(got, want) {
		t.Errorf("round 3 handed out %v, want every decodable member %v", got, want)
	}
	if r := ss.callFetch(); !r.Converged {
		t.Fatalf("fetch after the last round: %+v, want converged", r)
	}
	if want := []string{"5,5=410 10,5=235 15,5=110 20,5=35 25,5=10", "24,5=11 0,5=635 26,5=11"}; len(rec.commits) != 3 ||
		!reflect.DeepEqual(rec.commits[:2], want) {
		t.Errorf("strategy was told %q, want three rounds beginning %q", rec.commits, want)
	}
	if got := ss.stat().roundsCompleted.Load(); got != 3 {
		t.Errorf("roundsCompleted = %d, want 3", got)
	}
	if got := ss.stat().proposalsForfeited.Load(); got != 1 {
		t.Errorf("proposalsForfeited = %d, want the one undecodable member", got)
	}
}

// TestSurrogateBestBeforeAnyMeasurement: a session whose strategy
// holds a value no client measured — fed to it directly here — must
// refuse a best query instead of serving it: best replies read the
// session's measured shadow, never the strategy's own best.
func TestSurrogateBestBeforeAnyMeasurement(t *testing.T) {
	sp := testSpace()
	strat := mustStrategy(t, sp)
	ss := newTestSession(sp, strat, 0, nil)
	pt, err := sp.Encode(map[string]string{"x": "1", "y": "1"})
	if err != nil {
		t.Fatal(err)
	}
	strat.Next()
	strat.Report(pt, 42)
	reply := ss.callBest()
	if reply.Type != proto.TypeError {
		t.Fatalf("best before any measurement replied %+v, want error", reply)
	}
	ss.noteMeasuredLocked(pt, 42)
	reply = ss.callBest()
	if reply.Type != proto.TypeBestReply || reply.Perf != 42 {
		t.Fatalf("best after measurement replied %+v", reply)
	}
}

func mustStrategy(t *testing.T, sp *space.Space) search.Strategy {
	t.Helper()
	strat, err := search.New(proto.StrategySimplex, sp, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	return strat
}
