package server

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"harmony/internal/client"
	"harmony/internal/proto"
)

// driveDepth1 runs a shared-configuration session to convergence over
// dispatch with `clients` clients and Reporters = clients. Each step
// every client fetches, then every client reports in order. With next
// set, every report asks for the next configuration; a client whose
// report is answered with it skips its fetch in the next step. It
// returns every hand-out in the order the server made them, the Best
// reply, and the server's counters.
func driveDepth1(t *testing.T, strategy string, clients int, next bool) (handouts []string, best string, st Stats) {
	t.Helper()
	s := newFaultServer(newFakeClock())
	id := mustRegister(t, s, &proto.Message{
		Strategy: strategy, Seed: 3, MaxRuns: 30, Reporters: clients,
		Space: proto.EncodeSpace(testSpace()),
	})
	note := func(r *proto.Message) {
		handouts = append(handouts, fmt.Sprintf("%d:%s,%s converged=%v", r.Tag, r.Values["x"], r.Values["y"], r.Converged))
	}
	held := make([]*proto.Message, clients) // a hand-out a report's reply carried
	for step := 0; step < 200; step++ {
		cfgs := make([]*proto.Message, clients)
		for c := range cfgs {
			if cfgs[c], held[c] = held[c], nil; cfgs[c] == nil {
				cfgs[c] = s.call(&proto.Message{Type: proto.TypeFetch, Session: id})
				note(cfgs[c])
			}
			if cfgs[c].Type != proto.TypeConfig {
				t.Fatalf("%s: fetch: %+v", strategy, cfgs[c])
			}
		}
		if cfgs[0].Converged {
			b := s.call(&proto.Message{Type: proto.TypeBest, Session: id})
			return handouts, fmt.Sprintf("%s,%s=%g", b.Values["x"], b.Values["y"], b.Perf), s.Stats()
		}
		for c, cfg := range cfgs {
			r := s.call(&proto.Message{
				Type: proto.TypeReport, Session: id, Tag: cfg.Tag, Perf: skewed(cfg.Values, c), Next: next,
			})
			switch {
			case r.Type == proto.TypeConfig && next:
				held[c] = r
				note(r)
			case r.Type != proto.TypeOK:
				t.Fatalf("%s: report: %+v", strategy, r)
			}
		}
	}
	t.Fatalf("%s: session never converged", strategy)
	return nil, "", Stats{}
}

// TestReportNextMatchesFetch pins the one-exchange round: on a depth-1
// session, a report that asks for the next configuration is answered
// with exactly the hand-out a fetch after it would have got — the same
// values under the same tag, in the same order — so the search, its
// Best and every counter are those of report-then-fetch.
func TestReportNextMatchesFetch(t *testing.T) {
	for _, strategy := range []string{proto.StrategySimplex, proto.StrategyRandom, proto.StrategyPRO} {
		for _, clients := range []int{1, 3} {
			wantH, wantBest, wantSt := driveDepth1(t, strategy, clients, false)
			gotH, gotBest, gotSt := driveDepth1(t, strategy, clients, true)
			name := fmt.Sprintf("%s/%d clients", strategy, clients)
			if !reflect.DeepEqual(gotH, wantH) {
				t.Errorf("%s: hand-outs\n got %q\nwant %q", name, gotH, wantH)
			}
			if gotBest != wantBest {
				t.Errorf("%s: best %s, want %s", name, gotBest, wantBest)
			}
			if gotSt != wantSt {
				t.Errorf("%s: stats\n got %+v\nwant %+v", name, gotSt, wantSt)
			}
			if wantSt.Fetches < 10 {
				t.Errorf("%s: only %d hand-outs; the comparison needs a real campaign", name, wantSt.Fetches)
			}
		}
	}
}

// TestReportNextOnlyAtDepthOne: Parallel and Async sessions keep their
// lazy cadence — a report that asks for the next configuration is
// still answered ok, so what their strategies are asked stays a
// function of when clients fetch.
func TestReportNextOnlyAtDepthOne(t *testing.T) {
	for _, reg := range []*proto.Message{
		{Strategy: proto.StrategyPRO, Seed: 5, MaxRuns: 24, Parallel: true},
		{Strategy: proto.StrategyEnsemble, Seed: 5, MaxRuns: 24, Async: true},
	} {
		s := newFaultServer(newFakeClock())
		reg.Space = proto.EncodeSpace(testSpace())
		id := mustRegister(t, s, reg)
		reports := 0
		for i := 0; i < 500; i++ {
			cfg := s.call(&proto.Message{Type: proto.TypeFetch, Session: id})
			if cfg.Converged {
				break
			}
			r := s.call(&proto.Message{Type: proto.TypeReport, Session: id, Tag: cfg.Tag, Perf: objective(cfg.Values), Next: true})
			if r.Type != proto.TypeOK {
				t.Fatalf("parallel=%v async=%v: report answered %+v, want ok", reg.Parallel, reg.Async, r)
			}
			reports++
		}
		if reports < 24 {
			t.Errorf("parallel=%v async=%v: %d reports, want the whole budget", reg.Parallel, reg.Async, reports)
		}
	}
}

// TestReportNextRetryIsStale: a report whose reply (carrying the next
// configuration) was lost and that the client re-sends after a
// reconnect is stale. It is answered ok, and the client's fetch is
// handed the lost configuration again under a new tag.
func TestReportNextRetryIsStale(t *testing.T) {
	s := newFaultServer(newFakeClock())
	id := mustRegister(t, s, &proto.Message{
		Strategy: proto.StrategyRandom, Seed: 2, MaxRuns: 10, Space: proto.EncodeSpace(testSpace()),
	})
	cfg := s.call(&proto.Message{Type: proto.TypeFetch, Session: id})
	report := &proto.Message{Type: proto.TypeReport, Session: id, Tag: cfg.Tag, Perf: 4, Next: true}
	lost := s.call(report)
	if lost.Type != proto.TypeConfig {
		t.Fatalf("report{next}: %+v, want the next configuration", lost)
	}
	if r := s.call(report); r.Type != proto.TypeOK {
		t.Fatalf("retried report: %+v, want ok", r)
	}
	again := s.call(&proto.Message{Type: proto.TypeFetch, Session: id})
	if !reflect.DeepEqual(again.Values, lost.Values) || again.Tag == lost.Tag {
		t.Errorf("fetch after the retry: %v tag %d, want %v under a tag other than %d", again.Values, again.Tag, lost.Values, lost.Tag)
	}
	if st := s.Stats(); st.ReportsAccepted != 1 || st.ReportsDroppedStale != 1 || st.Fetches != 3 {
		t.Errorf("stats = %+v, want 1 accepted / 1 dropped-stale / 3 fetches", st)
	}
}

// TestReportNextVanishedClient: with ReportTimeout set, the hand-out a
// report's reply carried belongs to the client from that moment. If
// the client then vanishes, the straggler ladder retires it like any
// unreported hand-out: it expires and is re-issued, and once its
// re-issues are spent the candidate is forfeited and the search moves
// on.
func TestReportNextVanishedClient(t *testing.T) {
	clk := newFakeClock()
	s := newFaultServer(clk)
	s.ReportTimeout = 30 * time.Second
	s.MaxReissues = 1
	id := mustRegister(t, s, &proto.Message{
		Strategy: proto.StrategyRandom, Seed: 4, MaxRuns: 10, Space: proto.EncodeSpace(testSpace()),
	})
	cfg := s.call(&proto.Message{Type: proto.TypeFetch, Session: id})
	held := s.call(&proto.Message{Type: proto.TypeReport, Session: id, Tag: cfg.Tag, Perf: 7, Next: true})
	if held.Type != proto.TypeConfig {
		t.Fatalf("report{next}: %+v, want the next configuration", held)
	}
	// The client vanishes with the hand-out.
	clk.Advance(31 * time.Second)
	s.ExpireNow()
	if st := s.Stats(); st.ProposalsReissued != 1 || st.ProposalsForfeited != 0 {
		t.Fatalf("after the first deadline: stats = %+v, want 1 reissued / 0 forfeited", st)
	}
	// Another client takes the candidate over, and vanishes too.
	rescue := s.call(&proto.Message{Type: proto.TypeFetch, Session: id})
	if !reflect.DeepEqual(rescue.Values, held.Values) || rescue.Tag == held.Tag {
		t.Fatalf("re-issue: %v tag %d, want %v under a new tag", rescue.Values, rescue.Tag, held.Values)
	}
	clk.Advance(31 * time.Second)
	s.ExpireNow()
	next := s.call(&proto.Message{Type: proto.TypeFetch, Session: id})
	if reflect.DeepEqual(next.Values, held.Values) {
		t.Errorf("the forfeit should move the search on: %v", next.Values)
	}
	st := s.Stats()
	if st.ProposalsReissued != 1 || st.ProposalsForfeited != 1 || st.ReportsAccepted != 1 || st.Fetches != 4 {
		t.Errorf("stats = %+v, want 1 reissued / 1 forfeited / 1 accepted / 4 fetches", st)
	}
	if b := s.call(&proto.Message{Type: proto.TypeBest, Session: id}); b.Perf != 7 {
		t.Errorf("best = %v, want 7: the forfeit's penalty must not win", b.Perf)
	}
}

// TestDoneWithHeldHandout: a session that ends while its client holds
// the hand-out a report carried leaves nothing behind, over either
// client transport.
func TestDoneWithHeldHandout(t *testing.T) {
	s, addr := startServer(t)
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	m, err := client.DialMux(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for _, reg := range []func(client.Registration) (*client.Session, error){c.Register, m.Register} {
		sess, err := reg(client.Registration{App: "held", Space: testSpace()})
		if err != nil {
			t.Fatal(err)
		}
		values, _, err := sess.Fetch()
		if err != nil {
			t.Fatal(err)
		}
		before := s.Stats().Fetches
		if err := sess.Report(objective(values)); err != nil {
			t.Fatal(err)
		}
		if after := s.Stats().Fetches; after != before+1 {
			t.Fatalf("the report's reply carried no configuration: fetches %d -> %d", before, after)
		}
		if err := sess.Done(); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.SessionsActive != 0 {
		t.Errorf("SessionsActive = %d after Done, want 0", st.SessionsActive)
	}
}
