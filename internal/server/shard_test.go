package server

import (
	"fmt"
	"net"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"harmony/internal/client"
	"harmony/internal/proto"
)

// TestConcurrentRegistersAcrossShards hammers the sharded session
// table from many goroutines at once — registration, a short
// campaign, and Best, all through dispatch — and checks every session
// landed, every id is unique, and the table accounts exactly.
// Primarily a -race exercise of the shard locking.
func TestConcurrentRegistersAcrossShards(t *testing.T) {
	s := newFaultServer(newFakeClock())
	s.SessionTimeout = time.Hour // register and every message run with a lease set
	const n = 64
	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reply := s.call(&proto.Message{
				Type: proto.TypeRegister, App: fmt.Sprintf("app-%d", i),
				Strategy: proto.StrategyRandom, Seed: int64(i), MaxRuns: 4,
				Space: proto.EncodeSpace(testSpace()),
			})
			if reply.Type != proto.TypeRegistered {
				t.Errorf("register %d: %+v", i, reply)
				return
			}
			ids[i] = reply.Session
			for {
				cfg := s.call(&proto.Message{Type: proto.TypeFetch, Session: reply.Session})
				if cfg.Type != proto.TypeConfig {
					t.Errorf("fetch %d: %+v", i, cfg)
					return
				}
				if cfg.Converged {
					return
				}
				if r := s.call(&proto.Message{Type: proto.TypeReport, Session: reply.Session, Tag: cfg.Tag, Perf: bowl(cfg.Values)}); r.Type != proto.TypeOK {
					t.Errorf("report %d: %+v", i, r)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	seen := make(map[string]bool, n)
	for _, id := range ids {
		if id == "" {
			t.Fatal("a registration failed")
		}
		if seen[id] {
			t.Fatalf("duplicate session id %s", id)
		}
		seen[id] = true
	}
	if st := s.Stats(); st.SessionsActive != n {
		t.Errorf("SessionsActive = %d, want %d", st.SessionsActive, n)
	}
	// Every session remains addressable through its shard.
	for _, id := range ids {
		if r := s.call(&proto.Message{Type: proto.TypeBest, Session: id}); r.Type != proto.TypeBestReply {
			t.Errorf("best %s: %+v", id, r)
		}
	}
}

// TestDispatchAndSweepShareOneShard runs short sessions on one shard
// from several goroutines, with lease and report deadlines armed and
// half the hand-outs left to go overdue, while another goroutine
// advances the clock and sweeps ExpireNow. Every path that holds both
// locks takes the shard's before the session's, and the session table
// is touched only under its shard's lock: a shard lock taken under a
// session lock deadlocks against the sweep, which the watchdog reports,
// and a table write outside the shard lock is a data race under -race.
func TestDispatchAndSweepShareOneShard(t *testing.T) {
	clk := newFakeClock()
	s := newFaultServer(clk)
	s.shards = s.shards[:1]
	s.SessionTimeout, s.ReportTimeout = time.Hour, time.Second
	const workers, sessions = 4, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < sessions; i++ {
				reg := s.call(&proto.Message{
					Type: proto.TypeRegister, Strategy: proto.StrategyRandom, Seed: int64(w*sessions + i),
					MaxRuns: 3, Space: proto.EncodeSpace(testSpace()),
				})
				if reg.Type != proto.TypeRegistered {
					t.Errorf("register: %+v", reg)
					return
				}
				for k := 0; k < 20; k++ {
					cfg := s.call(&proto.Message{Type: proto.TypeFetch, Session: reg.Session})
					if cfg.Type != proto.TypeConfig || cfg.Converged {
						break
					}
					if k%2 == 0 {
						s.call(&proto.Message{Type: proto.TypeReport, Session: reg.Session, Tag: cfg.Tag, Perf: bowl(cfg.Values)})
					}
				}
				s.call(&proto.Message{Type: proto.TypeDone, Session: reg.Session})
			}
		}(w)
	}
	stop, swept := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(swept)
		for {
			select {
			case <-stop:
				return
			default:
			}
			clk.Advance(time.Second)
			s.ExpireNow()
		}
	}()
	finished := make(chan struct{})
	go func() {
		wg.Wait()
		close(finished)
	}()
	select {
	case <-finished:
	case <-time.After(10 * time.Second): // the run takes well under a second, even under -race
		t.Fatal("dispatches and the sweep deadlocked on one shard")
	}
	close(stop)
	<-swept
}

// driveCampaign runs one full fetch/report campaign over a client
// session, whichever transport carries it, and returns a deterministic
// fingerprint of every step plus the final best — the golden trace for
// protocol-equivalence checks.
func driveCampaign(t *testing.T, sess *client.Session) string {
	t.Helper()
	var sb strings.Builder
	for i := 0; i < 500; i++ {
		values, converged, err := sess.Fetch()
		if err != nil {
			t.Fatalf("fetch %d: %v", i, err)
		}
		keys := make([]string, 0, len(values))
		for k := range values {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&sb, "%s=%s ", k, values[k])
		}
		if converged {
			break
		}
		perf := bowl(values)
		fmt.Fprintf(&sb, "-> %g\n", perf)
		if err := sess.Report(perf); err != nil {
			t.Fatalf("report %d: %v", i, err)
		}
	}
	values, perf, err := sess.Best()
	if err != nil {
		t.Fatalf("best: %v", err)
	}
	keys := make([]string, 0, len(values))
	for k := range values {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(&sb, "best %g", perf)
	for _, k := range keys {
		fmt.Fprintf(&sb, " %s=%s", k, values[k])
	}
	if err := sess.Done(); err != nil {
		t.Fatalf("done: %v", err)
	}
	return sb.String()
}

// TestJSONBinaryEquivalence runs the identical deterministic campaign
// over the JSON line protocol and over the binary frame protocol and
// requires bit-identical traces: same configurations in the same
// order, same best. The two wire formats must be representations of
// one protocol, not two protocols.
func TestJSONBinaryEquivalence(t *testing.T) {
	_, addr := startServer(t)

	runJSON := func(strategy string, seed int64) string {
		c, err := client.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		sess, err := c.Register(client.Registration{
			App: "equiv", Space: testSpace(), Strategy: strategy, Seed: seed, MaxRuns: 40,
		})
		if err != nil {
			t.Fatal(err)
		}
		return driveCampaign(t, sess)
	}
	runBinary := func(strategy string, seed int64) string {
		m, err := client.DialMux(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		sess, err := m.Register(client.Registration{
			App: "equiv", Space: testSpace(), Strategy: strategy, Seed: seed, MaxRuns: 40,
		})
		if err != nil {
			t.Fatal(err)
		}
		return driveCampaign(t, sess)
	}

	for _, strategy := range []string{proto.StrategyRandom, proto.StrategySimplex, proto.StrategyPRO} {
		jsonTrace := runJSON(strategy, 42)
		binTrace := runBinary(strategy, 42)
		if jsonTrace != binTrace {
			t.Errorf("strategy %s: JSON and binary protocol traces diverge\nJSON:\n%s\n\nbinary:\n%s", strategy, jsonTrace, binTrace)
		}
	}
}

// TestBinaryPipelinedStorm multiplexes many concurrent campaigns over
// a handful of binary connections — frames carrying interleaved
// operations of dozens of sessions — and requires every campaign to
// converge. The -race run doubles as the pipelining fault injection.
func TestBinaryPipelinedStorm(t *testing.T) {
	s, addr := startServer(t)
	const conns = 4
	const sessionsPerConn = 16
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		m, err := client.DialMux(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		for i := 0; i < sessionsPerConn; i++ {
			wg.Add(1)
			go func(m *client.Mux, c, i int) {
				defer wg.Done()
				sess, err := m.Register(client.Registration{
					App: fmt.Sprintf("storm-%d-%d", c, i), Space: testSpace(),
					Strategy: proto.StrategyRandom, Seed: int64(c*100 + i), MaxRuns: 12,
				})
				if err != nil {
					t.Errorf("register %d/%d: %v", c, i, err)
					return
				}
				for step := 0; step < 200; step++ {
					values, converged, err := sess.Fetch()
					if err != nil {
						t.Errorf("fetch %d/%d: %v", c, i, err)
						return
					}
					if converged {
						if err := sess.Done(); err != nil {
							t.Errorf("done %d/%d: %v", c, i, err)
						}
						return
					}
					if err := sess.Report(bowl(values)); err != nil {
						t.Errorf("report %d/%d: %v", c, i, err)
						return
					}
				}
				t.Errorf("campaign %d/%d never converged", c, i)
			}(m, c, i)
		}
	}
	wg.Wait()
	if st := s.Stats(); st.SessionsActive != 0 {
		t.Errorf("SessionsActive = %d after all campaigns done, want 0", st.SessionsActive)
	}
}

// TestBinaryPeerVanishesMidFrame injects a client that completes the
// handshake, sends a frame header promising more bytes than it ever
// delivers, and hangs up. The server must tear the connection down
// without wedging, and keep serving other protocols on the same port.
func TestBinaryPeerVanishesMidFrame(t *testing.T) {
	_, addr := startServer(t)

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := proto.WriteHandshake(nc); err != nil {
		t.Fatal(err)
	}
	if err := proto.ReadHandshake(nc); err != nil {
		t.Fatalf("server handshake reply: %v", err)
	}
	// Header of a 64-byte frame, then one byte of payload, then gone.
	if _, err := nc.Write([]byte{0, 0, 0, 64, 1}); err != nil {
		t.Fatal(err)
	}
	if err := nc.Close(); err != nil {
		t.Fatal(err)
	}

	// A garbage handshake must be rejected without taking the server
	// down either.
	if nc, err = net.Dial("tcp", addr); err != nil {
		t.Fatal(err)
	}
	_, _ = nc.Write([]byte("HRMB\xff")) // bad version; reply is a close
	_ = nc.Close()

	// The same port still serves both protocols.
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	jsonSess, err := c.Register(client.Registration{App: "after-json", Space: testSpace(), Strategy: proto.StrategyRandom, Seed: 1, MaxRuns: 2})
	if err != nil {
		t.Fatalf("JSON register after mid-frame close: %v", err)
	}
	if _, _, err := jsonSess.Fetch(); err != nil {
		t.Fatalf("JSON fetch after mid-frame close: %v", err)
	}
	m, err := client.DialMux(addr)
	if err != nil {
		t.Fatalf("binary dial after mid-frame close: %v", err)
	}
	defer m.Close()
	binSess, err := m.Register(client.Registration{App: "after-bin", Space: testSpace(), Strategy: proto.StrategyRandom, Seed: 2, MaxRuns: 2})
	if err != nil {
		t.Fatalf("binary register after mid-frame close: %v", err)
	}
	if _, _, err := binSess.Fetch(); err != nil {
		t.Fatalf("binary fetch after mid-frame close: %v", err)
	}
}
