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

// TestLeaseBoundaryOnBothPaths: the lazy per-shard sweep and ExpireNow
// apply one lease rule. A session idle for exactly SessionTimeout is
// collected and one a nanosecond short of it is not, whichever path
// looks first.
func TestLeaseBoundaryOnBothPaths(t *testing.T) {
	reg := func() *proto.Message {
		return &proto.Message{Space: proto.EncodeSpace(space.MustNew(space.EnumParam("alg", "a", "b")))}
	}
	paths := []struct {
		name   string
		expire func(s *Server)
	}{
		{"ExpireNow", func(s *Server) { s.ExpireNow() }},
		// The next register on the session's shard sweeps it.
		{"lazy", func(s *Server) { mustRegister(t, s, reg()) }},
	}
	idles := []struct {
		idle time.Duration
		want int64
	}{{time.Minute - time.Nanosecond, 0}, {time.Minute, 1}}
	for _, p := range paths {
		for _, c := range idles {
			clk := newFakeClock()
			s := newFaultServer(clk)
			s.shards = s.shards[:1] // one shard: the second register sweeps the first session
			s.SessionTimeout = time.Minute
			mustRegister(t, s, reg())
			clk.Advance(c.idle)
			p.expire(s)
			if got := s.Stats().SessionsExpired; got != c.want {
				t.Errorf("%s after %v idle on a %v lease: collected %d sessions, want %d",
					p.name, c.idle, s.SessionTimeout, got, c.want)
			}
		}
	}
}
