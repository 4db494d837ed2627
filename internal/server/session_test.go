package server

import (
	"net"
	"strconv"
	"testing"

	"harmony/internal/proto"
	"harmony/internal/space"
)

// rawConn speaks the protocol directly for malformed-message tests
// the client API cannot produce.
func rawConn(t *testing.T, addr string) *proto.Conn {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return proto.NewConn(c)
}

func roundTrip(t *testing.T, pc *proto.Conn, m *proto.Message) *proto.Message {
	t.Helper()
	if err := pc.Send(m); err != nil {
		t.Fatalf("send: %v", err)
	}
	reply, err := pc.Recv()
	if err != nil {
		t.Fatalf("recv: %v", err)
	}
	return reply
}

func TestUnknownMessageType(t *testing.T) {
	_, addr := startServer(t)
	pc := rawConn(t, addr)
	reply := roundTrip(t, pc, &proto.Message{Type: "subscribe"})
	if reply.Type != proto.TypeError {
		t.Errorf("reply = %+v, want error", reply)
	}
}

func TestRegisterWithBadSpaceSpec(t *testing.T) {
	_, addr := startServer(t)
	pc := rawConn(t, addr)
	reply := roundTrip(t, pc, &proto.Message{
		Type:  proto.TypeRegister,
		Space: []proto.ParamSpec{{Name: "x", Kind: "float", Min: 0, Max: 1}},
	})
	if reply.Type != proto.TypeError {
		t.Errorf("reply = %+v, want error for unknown kind", reply)
	}
}

func TestFetchAfterConvergenceReturnsBest(t *testing.T) {
	_, addr := startServer(t)
	pc := rawConn(t, addr)
	sp := space.MustNew(space.EnumParam("alg", "a", "b"))
	reg := roundTrip(t, pc, &proto.Message{
		Type: proto.TypeRegister, Strategy: proto.StrategyExhaustive,
		Space: proto.EncodeSpace(sp),
	})
	if reg.Type != proto.TypeRegistered {
		t.Fatalf("register failed: %+v", reg)
	}
	id := reg.Session
	perf := map[string]float64{"a": 5, "b": 2}
	for i := 0; i < 2; i++ {
		cfg := roundTrip(t, pc, &proto.Message{Type: proto.TypeFetch, Session: id})
		if cfg.Type != proto.TypeConfig || cfg.Converged {
			t.Fatalf("fetch %d: %+v", i, cfg)
		}
		ok := roundTrip(t, pc, &proto.Message{Type: proto.TypeReport, Session: id, Tag: cfg.Tag, Perf: perf[cfg.Values["alg"]]})
		if ok.Type != proto.TypeOK {
			t.Fatalf("report: %+v", ok)
		}
	}
	// Exhausted: further fetches return the best with converged=true,
	// repeatedly and stably.
	for i := 0; i < 3; i++ {
		cfg := roundTrip(t, pc, &proto.Message{Type: proto.TypeFetch, Session: id})
		if !cfg.Converged || cfg.Values["alg"] != "b" {
			t.Fatalf("converged fetch %d: %+v", i, cfg)
		}
	}
}

func TestServerCloseIsIdempotentAndStopsServe(t *testing.T) {
	s := New()
	s.Logf = func(string, ...any) {}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve(ln) }()
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := <-done; err != nil {
		t.Errorf("Serve after Close: %v", err)
	}
	// Second close must not panic or deadlock.
	s.Close()
	// Serving again on a closed server returns promptly without
	// accepting connections.
	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Serve(ln2); err != nil {
		t.Errorf("Serve on closed server: %v", err)
	}
	if _, err := ln2.Accept(); err == nil {
		t.Error("listener should have been closed by Serve")
	}
}

func TestSessionsIsolated(t *testing.T) {
	_, addr := startServer(t)
	pc := rawConn(t, addr)
	sp := space.MustNew(space.IntParam("x", 0, 9, 1))
	a := roundTrip(t, pc, &proto.Message{Type: proto.TypeRegister, Space: proto.EncodeSpace(sp)})
	b := roundTrip(t, pc, &proto.Message{Type: proto.TypeRegister, Space: proto.EncodeSpace(sp)})
	if a.Session == b.Session {
		t.Fatalf("sessions share id %q", a.Session)
	}
	// Reporting to session A must not advance session B.
	cfgA := roundTrip(t, pc, &proto.Message{Type: proto.TypeFetch, Session: a.Session})
	roundTrip(t, pc, &proto.Message{Type: proto.TypeReport, Session: a.Session, Tag: cfgA.Tag, Perf: 1})
	cfgB1 := roundTrip(t, pc, &proto.Message{Type: proto.TypeFetch, Session: b.Session})
	cfgB2 := roundTrip(t, pc, &proto.Message{Type: proto.TypeFetch, Session: b.Session})
	if cfgB1.Values["x"] != cfgB2.Values["x"] {
		t.Error("session B advanced without its own report")
	}
}

func TestRegisterPROStrategy(t *testing.T) {
	_, addr := startServer(t)
	pc := rawConn(t, addr)
	sp := space.MustNew(space.IntParam("x", 0, 40, 1), space.IntParam("y", 0, 40, 1))
	reg := roundTrip(t, pc, &proto.Message{
		Type: proto.TypeRegister, Strategy: proto.StrategyPRO, Seed: 7,
		Space: proto.EncodeSpace(sp),
	})
	if reg.Type != proto.TypeRegistered {
		t.Fatalf("register failed: %+v", reg)
	}
	// Drive a few rounds end to end.
	for i := 0; i < 40; i++ {
		cfg := roundTrip(t, pc, &proto.Message{Type: proto.TypeFetch, Session: reg.Session})
		if cfg.Type != proto.TypeConfig {
			t.Fatalf("fetch: %+v", cfg)
		}
		if cfg.Converged {
			break
		}
		x, _ := strconv.Atoi(cfg.Values["x"])
		y, _ := strconv.Atoi(cfg.Values["y"])
		dx, dy := float64(x-30), float64(y-5)
		ok := roundTrip(t, pc, &proto.Message{Type: proto.TypeReport, Session: reg.Session, Tag: cfg.Tag, Perf: dx*dx + dy*dy})
		if ok.Type != proto.TypeOK {
			t.Fatalf("report: %+v", ok)
		}
	}
	best := roundTrip(t, pc, &proto.Message{Type: proto.TypeBest, Session: reg.Session})
	if best.Type != proto.TypeBestReply {
		t.Fatalf("best: %+v", best)
	}
}
