package server

import (
	"testing"

	"harmony/internal/client"
	"harmony/internal/history"
	"harmony/internal/proto"
)

// driveSession runs one on-line tuning session to convergence or the
// fetch budget, measuring with the shared bowl objective, and returns
// the best point/perf plus how many configurations the client
// actually measured.
func driveSession(t *testing.T, addr string, reg client.Registration) (best map[string]string, perf float64, measured int) {
	t.Helper()
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	sess, err := c.Register(reg)
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	for i := 0; i < 600; i++ {
		values, converged, err := sess.Fetch()
		if err != nil {
			t.Fatalf("Fetch: %v", err)
		}
		if converged {
			break
		}
		measured++
		if err := sess.Report(objective(values)); err != nil {
			t.Fatalf("Report: %v", err)
		}
	}
	best, perf, err = sess.Best()
	if err != nil {
		t.Fatalf("Best: %v", err)
	}
	if err := sess.Done(); err != nil {
		t.Fatalf("Done: %v", err)
	}
	return best, perf, measured
}

// TestServerCacheAnswersRepeatedSession: with Server.Cache set, a
// session replayed against a warm cache reaches the identical best
// without the client measuring anything, whatever its registration
// kind: every proposal is answered at issue time, charged like a run,
// and the strategy is re-asked until it — or the budget — ends the
// search, exactly as in the cold session. The pipelined rows pin two
// defects of the former async path: a window whose candidates were all
// pre-answered declared convergence after one window's worth, and a
// cache hit was charged before the budget was checked.
func TestServerCacheAnswersRepeatedSession(t *testing.T) {
	rows := []struct {
		name string
		reg  client.Registration
	}{
		{"shared", client.Registration{MaxRuns: 40}},
		{"parallel-pro", client.Registration{Strategy: proto.StrategyPRO, Parallel: true, MaxRuns: 60}},
		{"async-ensemble", client.Registration{Strategy: proto.StrategyEnsemble, Seed: 3, Async: true, MaxRuns: 50}},
		{"async-ensemble-budget-below-depth", client.Registration{Strategy: proto.StrategyEnsemble, Seed: 3, Async: true, AsyncDepth: 8, MaxRuns: 7}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			s, addr := startServer(t)
			s.Cache = history.NewEvalCache()
			reg := row.reg
			reg.App, reg.Machine, reg.Space = "bowl", "m1", testSpace()

			best1, perf1, measured1 := driveSession(t, addr, reg)
			if measured1 == 0 {
				t.Fatal("first session measured nothing")
			}
			cold := s.Stats()
			if cold.CacheMisses == 0 {
				t.Error("Stats().CacheMisses = 0 after cold-cache session")
			}
			// A point the cold session proposed twice was measured once and
			// answered from the cache the second time; both were runs.
			coldRuns := int64(measured1) + cold.CacheHits

			best2, perf2, measured2 := driveSession(t, addr, reg)
			if measured2 != 0 {
				t.Errorf("warm-cache session measured %d configurations, want 0", measured2)
			}
			if perf2 != perf1 {
				t.Errorf("warm-cache best perf = %v, want %v", perf2, perf1)
			}
			for k, v := range best1 {
				if best2[k] != v {
					t.Errorf("warm-cache best[%q] = %q, want %q", k, best2[k], v)
				}
			}
			warmRuns := s.Stats().CacheHits - cold.CacheHits
			if warmRuns != coldRuns {
				t.Errorf("warm-cache session was charged %d cache hits, want the cold session's %d runs", warmRuns, coldRuns)
			}
			if warmRuns > int64(reg.MaxRuns) {
				t.Errorf("warm-cache session was charged %d runs, MaxRuns is %d", warmRuns, reg.MaxRuns)
			}
		})
	}
}

// TestServerCacheIdentityScoped: sessions that differ in application
// or machine name must not share cached measurements.
func TestServerCacheIdentityScoped(t *testing.T) {
	s, addr := startServer(t)
	s.Cache = history.NewEvalCache()

	reg := client.Registration{App: "bowl", Machine: "m1", Space: testSpace(), MaxRuns: 25}
	driveSession(t, addr, reg)

	other := reg
	other.Machine = "m2"
	_, _, measured := driveSession(t, addr, other)
	if measured == 0 {
		t.Error("different machine was answered entirely from cache")
	}

	app := reg
	app.App = "other-app"
	_, _, measured = driveSession(t, addr, app)
	if measured == 0 {
		t.Error("different application was answered entirely from cache")
	}
}
