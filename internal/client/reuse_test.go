package client

import (
	"bufio"
	"math"
	"net"
	"reflect"
	"testing"

	"harmony/internal/proto"
	"harmony/internal/space"
)

// fakeMux is fakeServer over the binary frame protocol: each request
// is answered with the next scripted reply under its Seq, and the
// connection closes when the script ends.
func fakeMux(t *testing.T, replies ...*proto.Message) *Mux {
	t.Helper()
	a, b := net.Pipe()
	t.Cleanup(func() { a.Close(); b.Close() })
	go func() {
		defer b.Close()
		if proto.ReadHandshake(b) != nil || proto.WriteHandshake(b) != nil {
			return
		}
		br := bufio.NewReader(b)
		var req proto.Frame
		for len(replies) > 0 {
			if proto.ReadFrameInto(br, &req) != nil {
				return
			}
			out := proto.Frame{ID: req.ID}
			for _, m := range req.Msgs[:min(len(req.Msgs), len(replies))] {
				r := *replies[0]
				r.Seq, replies = m.Seq, replies[1:]
				out.Msgs = append(out.Msgs, &r)
			}
			buf, err := proto.AppendFrame(nil, &out)
			if err != nil {
				return
			}
			if _, err := b.Write(buf); err != nil {
				return
			}
		}
	}()
	m, err := NewMuxFromConn(a)
	if err != nil {
		t.Fatalf("NewMuxFromConn: %v", err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

// scriptedSession is a session on s1 whose exchanges are answered by
// the script, over one transport or the other.
var scriptedSession = map[string]func(t *testing.T, replies ...*proto.Message) *Session{
	"json":   func(t *testing.T, r ...*proto.Message) *Session { return fakeServer(t, r...).Attach("s1") },
	"binary": func(t *testing.T, r ...*proto.Message) *Session { return fakeMux(t, r...).Attach("s1") },
}

// TestHeldConfigSurvivesBest: the configuration a report's reply
// carried is still the next Fetch's after a Best in between, under its
// tag and without an exchange (the script has no reply left for one).
func TestHeldConfigSurvivesBest(t *testing.T) {
	for name, open := range scriptedSession {
		sess := open(t,
			&proto.Message{Type: proto.TypeConfig, Tag: 7, Values: map[string]string{"x": "3"}},
			&proto.Message{Type: proto.TypeBestReply, Values: map[string]string{"x": "9"}, Perf: 1.5},
		)
		if err := sess.Report(2); err != nil {
			t.Fatalf("%s: Report: %v", name, err)
		}
		best, perf, err := sess.Best()
		if err != nil || best["x"] != "9" || perf != 1.5 {
			t.Errorf("%s: Best = %v, %v (%v), want x=9 at 1.5", name, best, perf, err)
		}
		values, converged, err := sess.Fetch()
		if err != nil || values["x"] != "3" || converged || sess.tag != 7 {
			t.Errorf("%s: Fetch = %v converged=%v tag %d (%v), want the held x=3 under tag 7", name, values, converged, sess.tag, err)
		}
	}
}

// TestFetchMapBelongsToCaller: the maps Fetch and Best return are the
// caller's; later calls, which decode into the session's own messages,
// never change them.
func TestFetchMapBelongsToCaller(t *testing.T) {
	for name, open := range scriptedSession {
		sess := open(t,
			&proto.Message{Type: proto.TypeConfig, Tag: 1, Values: map[string]string{"x": "1"}},
			&proto.Message{Type: proto.TypeConfig, Tag: 2, Values: map[string]string{"x": "2"}},
			&proto.Message{Type: proto.TypeBestReply, Values: map[string]string{"x": "9"}, Perf: 1},
			&proto.Message{Type: proto.TypeConfig, Tag: 3, Values: map[string]string{"x": "4"}},
			&proto.Message{Type: proto.TypeOK},
		)
		first, _, err := sess.Fetch()
		if err != nil {
			t.Fatalf("%s: Fetch: %v", name, err)
		}
		if err := sess.Report(1); err != nil {
			t.Fatalf("%s: Report: %v", name, err)
		}
		best, _, err := sess.Best()
		if err != nil {
			t.Fatalf("%s: Best: %v", name, err)
		}
		second, _, err := sess.Fetch()
		if err != nil {
			t.Fatalf("%s: second Fetch: %v", name, err)
		}
		if err := sess.Report(2); err != nil {
			t.Fatalf("%s: second Report: %v", name, err)
		}
		third, _, err := sess.Fetch()
		if err != nil {
			t.Fatalf("%s: third Fetch: %v", name, err)
		}
		if err := sess.Report(3); err != nil {
			t.Fatalf("%s: third Report: %v", name, err)
		}
		for i, c := range []struct{ got, want map[string]string }{
			{first, map[string]string{"x": "1"}},
			{best, map[string]string{"x": "9"}},
			{second, map[string]string{"x": "2"}},
			{third, map[string]string{"x": "4"}},
		} {
			if !reflect.DeepEqual(c.got, c.want) {
				t.Errorf("%s: map %d = %v after later calls, want %v", name, i, c.got, c.want)
			}
		}
	}
}

// TestMuxRoundAllocations pins what one steady round costs the whole
// process, client and in-process server together: a Fetch answered by
// the preceding report's reply and a Report whose reply carries the
// next configuration. Nine were measured (go1.24, linux/amd64): two for
// the map Fetch hands the application, one each for the window's
// candidate, its decoded configuration, the random strategy's point and
// its round bookkeeping, and value strings above 99. The ceiling is
// about 1.5 times that.
func TestMuxRoundAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are pinned without the race detector")
	}
	m, err := DialMux(startServer(t))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	sp := space.MustNew(space.IntParam("x", 0, 1000, 1), space.IntParam("y", 0, 1000, 1))
	sess, err := m.Register(Registration{App: "pin", Space: sp, Strategy: proto.StrategyRandom, Seed: 5, MaxRuns: math.MaxInt32})
	if err != nil {
		t.Fatal(err)
	}
	round := func() {
		values, converged, err := sess.Fetch()
		if err != nil || converged {
			t.Fatalf("Fetch = %v converged=%v (%v)", values, converged, err)
		}
		if err := sess.Report(float64(len(values["x"]))); err != nil {
			t.Fatal(err)
		}
	}
	const ceiling = 13
	n := testing.AllocsPerRun(200, round)
	t.Logf("%v allocations per round", n)
	if n > ceiling {
		t.Errorf("a Mux Report/Fetch round allocates %v times, want at most %d", n, ceiling)
	}
}
