package server

import (
	"net"
	"strconv"
	"sync"
	"testing"

	"harmony/internal/client"
	"harmony/internal/core"
	"harmony/internal/proto"
	"harmony/internal/search"
	"harmony/internal/space"
)

// startServer launches a server on an ephemeral port and returns its
// address plus a cleanup-registered shutdown.
func startServer(t *testing.T) (*Server, string) {
	t.Helper()
	s := New()
	s.Logf = func(string, ...any) {}
	errc := make(chan error, 1)
	ready := make(chan string, 1)
	go func() {
		ln, err := newLocalListener()
		if err != nil {
			errc <- err
			return
		}
		ready <- ln.Addr().String()
		errc <- s.Serve(ln)
	}()
	select {
	case addr := <-ready:
		t.Cleanup(func() {
			s.Close()
			<-errc
		})
		return s, addr
	case err := <-errc:
		t.Fatalf("server start: %v", err)
		return nil, ""
	}
}

// newTestSession builds a session directly, bypassing the wire
// protocol, for unit tests of the dispatch logic. win is nil for a
// shared-configuration session, else roundWindow or pipelineWindow. A
// test that gives the session a cache or a surrogate gate opens the
// window again once they are set, as register does.
func newTestSession(sp *space.Space, strat search.Strategy, maxRuns int, win func(*session)) *session {
	ss := &session{id: "s1", space: sp, reporters: 1, maxRuns: maxRuns}
	if win == nil {
		win = sharedWindow(strat)
	}
	win(ss)
	return ss
}

// sharedWindow opens the window register builds for a session that is
// neither Parallel nor Async.
func sharedWindow(strat search.Strategy) func(*session) {
	return func(ss *session) { ss.openWindow(search.AsAsync(strat), 1, 1) }
}

// roundWindow opens the window register builds for a Parallel session.
func roundWindow(strat search.Strategy) func(*session) {
	return func(ss *session) {
		ss.openWindow(search.AsAsync(search.AsBatch(strat)), core.Unbounded, core.Unbounded)
	}
}

// pipelineWindow opens the window register builds for an Async session.
func pipelineWindow(strat search.Strategy, depth int) func(*session) {
	return func(ss *session) { ss.openWindow(search.AsAsync(strat), depth, 1) }
}

func testSpace() *space.Space {
	return space.MustNew(
		space.IntParam("x", 0, 40, 1),
		space.IntParam("y", 0, 40, 1),
	)
}

func objective(values map[string]string) float64 {
	x, _ := strconv.Atoi(values["x"])
	y, _ := strconv.Atoi(values["y"])
	dx := float64(x - 25)
	dy := float64(y - 5)
	return 10 + dx*dx + dy*dy
}

func TestOnlineTuningEndToEnd(t *testing.T) {
	_, addr := startServer(t)
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()

	sess, err := c.Register(client.Registration{App: "bowl", Space: testSpace()})
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	for i := 0; i < 400; i++ {
		values, converged, err := sess.Fetch()
		if err != nil {
			t.Fatalf("Fetch: %v", err)
		}
		if converged {
			break
		}
		if err := sess.Report(objective(values)); err != nil {
			t.Fatalf("Report: %v", err)
		}
	}
	best, perf, err := sess.Best()
	if err != nil {
		t.Fatalf("Best: %v", err)
	}
	if perf > 20 {
		t.Errorf("online tuning best %v at %v, want near 10", perf, best)
	}
	if err := sess.Done(); err != nil {
		t.Fatalf("Done: %v", err)
	}
}

func TestMultipleReportersAggregateWorst(t *testing.T) {
	_, addr := startServer(t)
	c0, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c0.Close()
	sess, err := c0.Register(client.Registration{
		App: "par", Space: testSpace(), Reporters: 2, Strategy: proto.StrategyRandom, Seed: 1, MaxRuns: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	c1, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	sess1 := c1.Attach(sess.ID())

	// Both clients fetch the same configuration.
	v0, _, err := sess.Fetch()
	if err != nil {
		t.Fatal(err)
	}
	v1, _, err := sess1.Fetch()
	if err != nil {
		t.Fatal(err)
	}
	if v0["x"] != v1["x"] || v0["y"] != v1["y"] {
		t.Fatalf("clients saw different configs: %v vs %v", v0, v1)
	}
	// Rank 0 reports 3, rank 1 reports 9; the strategy must see 9.
	if err := sess.Report(3); err != nil {
		t.Fatal(err)
	}
	if err := sess1.Report(9); err != nil {
		t.Fatal(err)
	}
	_, perf, err := sess.Best()
	if err != nil {
		t.Fatal(err)
	}
	if perf != 9 {
		t.Errorf("aggregated perf = %v, want worst report 9", perf)
	}
}

func TestFetchIdempotentUntilEnoughReports(t *testing.T) {
	_, addr := startServer(t)
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sess, err := c.Register(client.Registration{App: "a", Space: testSpace()})
	if err != nil {
		t.Fatal(err)
	}
	v0, _, _ := sess.Fetch()
	v1, _, _ := sess.Fetch()
	if v0["x"] != v1["x"] || v0["y"] != v1["y"] {
		t.Errorf("fetch changed config before report: %v vs %v", v0, v1)
	}
}

func TestMaxRunsConvergesToBest(t *testing.T) {
	_, addr := startServer(t)
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sess, err := c.Register(client.Registration{
		App: "a", Space: testSpace(), Strategy: proto.StrategyRandom, Seed: 42, MaxRuns: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		v, conv, err := sess.Fetch()
		if err != nil {
			t.Fatal(err)
		}
		if conv {
			t.Fatalf("converged after %d runs, want 3", i)
		}
		if err := sess.Report(objective(v)); err != nil {
			t.Fatal(err)
		}
	}
	v, conv, err := sess.Fetch()
	if err != nil {
		t.Fatal(err)
	}
	if !conv {
		t.Error("expected converged=true after MaxRuns")
	}
	best, perf, err := sess.Best()
	if err != nil {
		t.Fatal(err)
	}
	if v["x"] != best["x"] || v["y"] != best["y"] {
		t.Errorf("converged config %v != best %v (perf %v)", v, best, perf)
	}
}

func TestProtocolErrors(t *testing.T) {
	srv, addr := startServer(t)
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Unknown session.
	bogus := c.Attach("nope")
	if _, _, err := bogus.Fetch(); err == nil {
		t.Error("expected error for unknown session")
	}
	// Report without fetch: nothing is outstanding, so the report is
	// stale — acknowledged and dropped, as on every session.
	sess, err := c.Register(client.Registration{App: "a", Space: testSpace()})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Report(1); err != nil {
		t.Errorf("report without outstanding config: %v, want it acknowledged", err)
	}
	if st := srv.Stats(); st.ReportsDroppedStale != 1 || st.ReportsAccepted != 0 {
		t.Errorf("stats = %+v, want the report dropped as stale", st)
	}
	// Best before any report.
	if _, _, err := sess.Best(); err == nil {
		t.Error("expected error for best before evaluations")
	}
	// Done twice.
	if err := sess.Done(); err != nil {
		t.Fatal(err)
	}
	if err := sess.Done(); err == nil {
		t.Error("expected error for done on removed session")
	}
	// Bad register: empty space.
	if _, err := c.Register(client.Registration{App: "a", Space: nil}); err == nil {
		t.Error("expected error registering nil space")
	}
}

func TestRegisterBadStrategy(t *testing.T) {
	_, addr := startServer(t)
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Register(client.Registration{App: "a", Space: testSpace(), Strategy: "annealing"}); err == nil {
		t.Error("expected error for unknown strategy")
	}
}

func TestRegisterExhaustiveTooLarge(t *testing.T) {
	_, addr := startServer(t)
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	big := space.MustNew(
		space.IntParam("a", 0, 9999, 1),
		space.IntParam("b", 0, 9999, 1),
	)
	if _, err := c.Register(client.Registration{App: "a", Space: big, Strategy: proto.StrategyExhaustive}); err == nil {
		t.Error("expected error for oversized exhaustive space")
	}
}

func TestConcurrentSessions(t *testing.T) {
	_, addr := startServer(t)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := client.Dial(addr)
			if err != nil {
				t.Errorf("Dial: %v", err)
				return
			}
			defer c.Close()
			sess, err := c.Register(client.Registration{App: "bowl", Space: testSpace()})
			if err != nil {
				t.Errorf("Register: %v", err)
				return
			}
			for j := 0; j < 50; j++ {
				v, conv, err := sess.Fetch()
				if err != nil {
					t.Errorf("Fetch: %v", err)
					return
				}
				if conv {
					break
				}
				if err := sess.Report(objective(v)); err != nil {
					t.Errorf("Report: %v", err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

func TestClientDisconnectLeavesServerServing(t *testing.T) {
	_, addr := startServer(t)
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := c.Register(client.Registration{App: "a", Space: testSpace()})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sess.Fetch(); err != nil {
		t.Fatal(err)
	}
	c.Close() // abrupt disconnect mid-session

	// Server must keep serving new clients.
	c2, err := client.Dial(addr)
	if err != nil {
		t.Fatalf("Dial after disconnect: %v", err)
	}
	defer c2.Close()
	if _, err := c2.Register(client.Registration{App: "b", Space: testSpace()}); err != nil {
		t.Fatalf("Register after disconnect: %v", err)
	}
}

// newLocalListener binds an ephemeral loopback port.
func newLocalListener() (net.Listener, error) {
	return net.Listen("tcp", "127.0.0.1:0")
}
