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

// sameMap reports whether a and b are one map, not two equal ones.
func sameMap(a, b map[string]string) bool {
	return reflect.ValueOf(a).UnsafePointer() == reflect.ValueOf(b).UnsafePointer()
}

// TestFetchRewritesSessionMap: Fetch returns the Session's own map,
// rewritten with each reply's values — also when the values came with
// a report's reply and a Best came in between — while Best's map is the
// caller's, and two Sessions of one transport never share a map.
func TestFetchRewritesSessionMap(t *testing.T) {
	for name, open := range scriptedSession {
		sess := open(t,
			&proto.Message{Type: proto.TypeConfig, Tag: 1, Values: map[string]string{"x": "1", "y": "5"}},
			&proto.Message{Type: proto.TypeConfig, Tag: 2, Values: map[string]string{"x": "2"}},
			&proto.Message{Type: proto.TypeConfig, Tag: 3, Values: map[string]string{"x": "3"}},
			&proto.Message{Type: proto.TypeBestReply, Values: map[string]string{"x": "9"}, Perf: 1},
			&proto.Message{Type: proto.TypeConfig, Tag: 4, Values: map[string]string{"x": "7"}},
			&proto.Message{Type: proto.TypeOK},
			&proto.Message{Type: proto.TypeConfig, Tag: 5, Converged: true},
		)
		other := &Session{t: sess.t, id: sess.id} // what Attach returns, on the same transport
		first, _, err := sess.Fetch()
		if err != nil || !reflect.DeepEqual(first, map[string]string{"x": "1", "y": "5"}) {
			t.Fatalf("%s: first Fetch = %v (%v), want x=1 y=5", name, first, err)
		}
		second, _, err := sess.Fetch()
		if err != nil || !sameMap(first, second) || !reflect.DeepEqual(second, map[string]string{"x": "2"}) {
			t.Fatalf("%s: second Fetch = %v (%v), same map %v; want the session's map rewritten to x=2",
				name, second, err, sameMap(first, second))
		}
		if err := sess.Report(1); err != nil { // its reply carries x=3
			t.Fatalf("%s: Report: %v", name, err)
		}
		best, _, err := sess.Best()
		if err != nil || !reflect.DeepEqual(best, map[string]string{"x": "9"}) {
			t.Fatalf("%s: Best = %v (%v), want x=9", name, best, err)
		}
		held, _, err := sess.Fetch()
		if err != nil || !sameMap(first, held) || !reflect.DeepEqual(held, map[string]string{"x": "3"}) || sess.tag != 3 {
			t.Fatalf("%s: Fetch after Best = %v tag %d (%v), want the held x=3 under tag 3 in the session's map",
				name, held, sess.tag, err)
		}
		mine, _, err := other.Fetch()
		if err != nil || sameMap(held, mine) || mine["x"] != "7" || held["x"] != "3" {
			t.Fatalf("%s: other session's Fetch = %v (%v), this one's now %v; want x=7 in a map of its own",
				name, mine, err, held)
		}
		if err := sess.Report(2); err != nil {
			t.Fatalf("%s: second Report: %v", name, err)
		}
		none, converged, err := sess.Fetch()
		if err != nil || none != nil || !converged {
			t.Fatalf("%s: Fetch of a reply without values = %v converged=%v (%v), want nil converged", name, none, converged, err)
		}
		if !reflect.DeepEqual(best, map[string]string{"x": "9"}) {
			t.Errorf("%s: Best's map = %v after later Fetches, want x=9", name, best)
		}
	}
}

// roundAllocations pins what one steady round of a random-strategy
// session costs the whole process, client and in-process server
// together: a Fetch answered by the preceding report's reply and a
// Report whose reply carries the next configuration. Six were measured
// over either transport (go1.24, linux/amd64): one each for the
// window's decoded configuration, the random strategy's point and its
// round bookkeeping, and the value strings above 99 the server formats
// and the client decodes. Fetch rewrites the Session's map and the
// server reissues the committed candidate, so neither allocates. The
// ceiling is 1.5 times that.
func roundAllocations(t *testing.T, register func(Registration) (*Session, error)) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are pinned without the race detector")
	}
	sp := space.MustNew(space.IntParam("x", 0, 1000, 1), space.IntParam("y", 0, 1000, 1))
	sess, err := register(Registration{App: "pin", Space: sp, Strategy: proto.StrategyRandom, Seed: 5, MaxRuns: math.MaxInt32})
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
	const ceiling = 9
	n := testing.AllocsPerRun(200, round)
	t.Logf("%v allocations per round", n)
	if n > ceiling {
		t.Errorf("a Report/Fetch round allocates %v times, want at most %d", n, ceiling)
	}
}

// TestMuxRoundAllocations: a steady round over the binary Mux.
func TestMuxRoundAllocations(t *testing.T) {
	m, err := DialMux(startServer(t))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	roundAllocations(t, m.Register)
}

// TestClientRoundAllocations: the same round over one JSON-lines Client.
func TestClientRoundAllocations(t *testing.T) {
	c, err := Dial(startServer(t))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	roundAllocations(t, c.Register)
}
