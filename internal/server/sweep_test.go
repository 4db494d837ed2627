package server

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"harmony/internal/proto"
	"harmony/internal/space"
)

// TestSweepExpiresInRegistrationOrder: the lease sweep must visit
// sessions in registration order — by session number, so "s9" comes
// before "s10" — not in Go's random map order or the lexical order of
// the ids, so expiry logs and counters are reproducible run to run.
func TestSweepExpiresInRegistrationOrder(t *testing.T) {
	s := New()
	var logs []string
	s.Logf = func(format string, args ...any) {
		logs = append(logs, fmt.Sprintf(format, args...))
	}
	now := time.Unix(1000, 0)
	s.Clock = func() time.Time { return now }
	s.SessionTimeout = time.Second

	sp := space.MustNew(space.EnumParam("alg", "a", "b"))
	const n = 12 // crosses the s9/s10 boundary where lexical order breaks
	for i := 0; i < n; i++ {
		reply := s.call(&proto.Message{
			Type:  proto.TypeRegister,
			App:   "sweep-test",
			Space: proto.EncodeSpace(sp),
		})
		if reply.Type != proto.TypeRegistered {
			t.Fatalf("register %d: %+v", i, reply)
		}
	}

	now = now.Add(2 * time.Second)
	if got := s.ExpireNow(); got != n {
		t.Fatalf("ExpireNow = %d, want %d", got, n)
	}

	var expired []int
	for _, line := range logs {
		if !strings.Contains(line, "lease expired") {
			continue
		}
		fields := strings.Fields(line)
		for i, f := range fields {
			if f == "session" && i+1 < len(fields) {
				id, err := strconv.Atoi(strings.TrimPrefix(fields[i+1], "s"))
				if err != nil {
					t.Fatalf("unparseable session id in log line %q", line)
				}
				expired = append(expired, id)
			}
		}
	}
	if len(expired) != n {
		t.Fatalf("got %d expiry log lines, want %d: %v", len(expired), n, logs)
	}
	for i := 1; i < len(expired); i++ {
		if expired[i] <= expired[i-1] {
			t.Fatalf("expiry order not ascending by registration: %v", expired)
		}
	}
}

// TestExpireNowLeaseBoundary: a session idle for exactly
// SessionTimeout is collected and one a nanosecond short of it is not.
func TestExpireNowLeaseBoundary(t *testing.T) {
	reg := &proto.Message{Space: proto.EncodeSpace(space.MustNew(space.EnumParam("alg", "a", "b")))}
	idles := []struct {
		idle time.Duration
		want int64
	}{{time.Minute - time.Nanosecond, 0}, {time.Minute, 1}}
	for _, c := range idles {
		clk := newFakeClock()
		s := newFaultServer(clk)
		s.SessionTimeout = time.Minute
		mustRegister(t, s, reg)
		clk.Advance(c.idle)
		s.ExpireNow()
		if got := s.Stats().SessionsExpired; got != c.want {
			t.Errorf("after %v idle on a %v lease: collected %d sessions, want %d",
				c.idle, s.SessionTimeout, got, c.want)
		}
	}
}

// TestBestAppliesOwnStragglerDeadline: best, like fetch and report,
// first retires the session's own overdue hand-outs. A candidate of a
// two-reporter session has one report, and its other hand-out outlives
// the re-issue limit; best, with no other traffic, must forfeit it with
// the partial aggregate and answer that measurement.
func TestBestAppliesOwnStragglerDeadline(t *testing.T) {
	clk := newFakeClock()
	s := newFaultServer(clk)
	s.ReportTimeout, s.MaxReissues = 10*time.Second, 1
	id := mustRegister(t, s, &proto.Message{
		Strategy: proto.StrategyRandom, Seed: 3, MaxRuns: 10, Reporters: 2,
		Space: proto.EncodeSpace(testSpace()),
	})
	fetch := func() *proto.Message {
		t.Helper()
		r := s.call(&proto.Message{Type: proto.TypeFetch, Session: id})
		if r.Type != proto.TypeConfig || r.Converged {
			t.Fatalf("fetch: %+v", r)
		}
		return r
	}
	first := fetch()
	fetch() // the twin nobody reports
	if r := s.call(&proto.Message{Type: proto.TypeReport, Session: id, Tag: first.Tag, Perf: 5}); r.Type != proto.TypeOK {
		t.Fatalf("report: %+v", r)
	}
	clk.Advance(11 * time.Second)
	fetch() // retires the twin (one re-issue) and hands the candidate out again
	clk.Advance(11 * time.Second)
	best := s.call(&proto.Message{Type: proto.TypeBest, Session: id})
	if best.Type != proto.TypeBestReply || best.Perf != 5 {
		t.Fatalf("best = %+v, want the partial aggregate 5 of the forfeited candidate", best)
	}
	if st := s.Stats(); st.ProposalsReissued != 1 || st.ProposalsForfeited != 1 {
		t.Errorf("reissued %d, forfeited %d: want 1 and 1", st.ProposalsReissued, st.ProposalsForfeited)
	}
}

// TestMessageLeavesOtherSessionsDeadlines: a message applies only its
// own session's deadlines. On one shard, a round of A after B's
// hand-out is overdue must neither re-issue B's work nor collect B,
// however idle; B's own next message retires the hand-out, and only
// ExpireNow collects B's lease.
func TestMessageLeavesOtherSessionsDeadlines(t *testing.T) {
	clk := newFakeClock()
	s := newFaultServer(clk)
	s.shards = s.shards[:1] // both sessions share the one shard
	s.SessionTimeout, s.ReportTimeout = time.Minute, 10*time.Second
	reg := func(seed int64) string {
		return mustRegister(t, s, &proto.Message{
			Strategy: proto.StrategyRandom, Seed: seed, MaxRuns: 10,
			Space: proto.EncodeSpace(testSpace()),
		})
	}
	fetch := func(id string) *proto.Message {
		t.Helper()
		r := s.call(&proto.Message{Type: proto.TypeFetch, Session: id})
		if r.Type != proto.TypeConfig {
			t.Fatalf("fetch %s: %+v", id, r)
		}
		return r
	}
	// round is one fetch and report of a, which leaves it no work out.
	a, b := reg(1), reg(2)
	round := func() {
		t.Helper()
		r := fetch(a)
		if r := s.call(&proto.Message{Type: proto.TypeReport, Session: a, Tag: r.Tag, Perf: bowl(r.Values)}); r.Type != proto.TypeOK {
			t.Fatalf("report %s: %+v", a, r)
		}
	}
	fetch(b)
	clk.Advance(20 * time.Second)
	round()
	if st := s.Stats(); st.ProposalsReissued != 0 {
		t.Fatalf("a round of %s re-issued %d of %s's hand-outs, want 0", a, st.ProposalsReissued, b)
	}
	fetch(b)
	if st := s.Stats(); st.ProposalsReissued != 1 {
		t.Fatalf("%s's own fetch re-issued %d hand-outs, want its overdue one", b, st.ProposalsReissued)
	}
	clk.Advance(2 * time.Minute)
	round()
	if st := s.Stats(); st.SessionsExpired != 0 || st.ProposalsReissued != 1 {
		t.Fatalf("a round of %s collected %d sessions and re-issued %d hand-outs, want 0 and 1", a, st.SessionsExpired, st.ProposalsReissued)
	}
	if n := s.ExpireNow(); n != 1 {
		t.Fatalf("ExpireNow collected %d sessions, want the idle %s", n, b)
	}
}
