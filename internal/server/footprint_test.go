package server

import (
	"runtime"
	"testing"

	"harmony/internal/proto"
	"harmony/internal/space"
)

// TestSessionFootprint pins the heap one registered session holds, for
// each session kind harmonyd serves: a shared simplex, a Parallel PRO
// and an Async ensemble. Nothing bounds the session table on its own (a
// session is held until it says done or its lease runs out), so the
// bytes per session are what an idle or abandoned client costs. Each
// kind is read right after register and again after 200 fetch/report
// rounds per session: a session that keeps something per issue for its
// whole life grows past the second ceiling.
func TestSessionFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what the heap holds")
	}
	const sessions, rounds = 400, 200
	sp := space.MustNew(
		space.IntParam("a", 0, 1000, 1), space.IntParam("b", 0, 1000, 1),
		space.IntParam("c", 0, 1000, 1), space.IntParam("d", 0, 1000, 1),
	)
	heap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	for _, k := range []struct {
		name              string
		reg               proto.Message
		registered, after int64 // ceilings, bytes per session
	}{
		// Read on amd64 (go1.24): 2 112/2 430, 2 044/10 283 and
		// 3 841/7 159 B. A seeded strategy's math/rand source, 4.9 KB,
		// is made by its first round, so it shows only in the second
		// reading. An ensemble that kept the arm of every issue read
		// 9 223 B after the rounds.
		{"simplex", proto.Message{Strategy: proto.StrategySimplex}, 2300, 2700},
		{"parallel-pro", proto.Message{Strategy: proto.StrategyPRO, Parallel: true}, 2250, 11000},
		{"async-ensemble", proto.Message{Strategy: proto.StrategyEnsemble, Async: true}, 4200, 7800},
	} {
		s := New()
		s.Logf = func(string, ...any) {}
		ids := make([]string, sessions)
		fetch := &proto.Message{Type: proto.TypeFetch}
		report := &proto.Message{Type: proto.TypeReport, Perf: 1}
		var reply proto.Message
		base := heap()
		for i := range ids {
			reg := k.reg
			reg.App, reg.Seed, reg.Space = "footprint", int64(i), proto.EncodeSpace(sp)
			ids[i] = mustRegister(t, s, &reg)
		}
		registered := (heap() - base) / sessions
		converged := 0
		for range rounds {
			for _, id := range ids {
				fetch.Session = id
				s.dispatch(fetch, &reply)
				if reply.Type != proto.TypeConfig {
					t.Fatalf("%s: fetch reply %+v", k.name, reply)
				}
				if reply.Converged {
					converged++
					continue
				}
				report.Session, report.Tag = id, reply.Tag
				report.Perf = float64(reply.Tag % 97)
				s.dispatch(report, &reply)
			}
		}
		after := (heap() - base) / sessions
		runtime.KeepAlive(s)
		t.Logf("%s: %d B per session registered, %d B after %d rounds (%d converged fetches)", k.name, registered, after, rounds, converged)
		if registered > k.registered {
			t.Errorf("%s: a registered session holds %d B, ceiling %d", k.name, registered, k.registered)
		}
		if after > k.after {
			t.Errorf("%s: a session holds %d B after %d rounds, ceiling %d", k.name, after, rounds, k.after)
		}
	}
}
