package simmpi

import (
	"math"
	"strings"
	"testing"

	"harmony/internal/cluster"
)

func testMachine(nodes, ppn int) *cluster.Machine {
	return &cluster.Machine{
		Name:   "test",
		Nodes:  nodes,
		PPN:    ppn,
		Gflops: fill(nodes, 1.0), // 1 GFLOP/s -> 1e9 flops takes 1s
		Intra:  cluster.Link{Latency: 1e-6, Bandwidth: 1e9, Overhead: 1e-7},
		Inter:  cluster.Link{Latency: 1e-5, Bandwidth: 1e8, Overhead: 1e-6},
	}
}

func fill(n int, v float64) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = v
	}
	return s
}

func TestComputeAdvancesClock(t *testing.T) {
	st, err := Run(testMachine(1, 2), 2, func(r *Rank) {
		r.Compute(2e9) // 2 seconds at 1 GFLOP/s
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if math.Abs(st.Time-2.0) > 1e-12 {
		t.Errorf("Time = %v, want 2.0", st.Time)
	}
	for i, c := range st.ComputeTime {
		if math.Abs(c-2.0) > 1e-12 {
			t.Errorf("rank %d compute = %v, want 2.0", i, c)
		}
	}
}

func TestHeterogeneousSpeeds(t *testing.T) {
	m := testMachine(2, 1)
	m.Gflops = []float64{1.0, 0.5}
	st, err := Run(m, 2, func(r *Rank) {
		r.Compute(1e9)
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if math.Abs(st.RankClocks[0]-1.0) > 1e-12 || math.Abs(st.RankClocks[1]-2.0) > 1e-12 {
		t.Errorf("clocks = %v, want [1 2]", st.RankClocks)
	}
	if math.Abs(st.ComputeTime[0]-1.0) > 1e-12 || math.Abs(st.ComputeTime[1]-2.0) > 1e-12 {
		t.Errorf("compute = %v, want [1 2]", st.ComputeTime)
	}
}

func TestSendRecvTiming(t *testing.T) {
	m := testMachine(2, 1) // ranks on different nodes -> Inter link
	st, err := Run(m, 2, func(r *Rank) {
		if r.ID() == 0 {
			r.Compute(1e9)                           // depart at 1s + overhead
			r.SendOwned(1, 0, make([]float64, 1000)) // 8000 bytes
		} else {
			r.Recv(0, 0)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// arrival = 1 + overhead(1e-6) + latency(1e-5) + 8000/1e8
	want := 1.0 + 1e-6 + 1e-5 + 8000.0/1e8
	if math.Abs(st.RankClocks[1]-want) > 1e-12 {
		t.Errorf("receiver clock = %v, want %v", st.RankClocks[1], want)
	}
	if st.Messages != 1 || st.BytesSent != 8000 {
		t.Errorf("messages=%d bytes=%d", st.Messages, st.BytesSent)
	}
	if st.WaitTime[1] <= 0.9 {
		t.Errorf("receiver wait = %v, want ~1s", st.WaitTime[1])
	}
}

func TestIntraNodeCheaperThanInterNode(t *testing.T) {
	run := func(nodes, ppn int) float64 {
		st, err := Run(testMachine(nodes, ppn), 2, func(r *Rank) {
			if r.ID() == 0 {
				r.SendOwned(1, 0, make([]float64, 100000))
			} else {
				r.Recv(0, 0)
			}
		})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return st.Time
	}
	same := run(1, 2)
	cross := run(2, 1)
	if same >= cross {
		t.Errorf("intra-node %v should beat inter-node %v", same, cross)
	}
}

func TestMessagePayloadDelivered(t *testing.T) {
	_, err := Run(testMachine(1, 2), 2, func(r *Rank) {
		if r.ID() == 0 {
			r.SendOwned(1, 7, []float64{3.5, -1})
		} else {
			got := r.Recv(0, 7)
			if len(got) != 2 || got[0] != 3.5 || got[1] != -1 {
				panic("payload corrupted")
			}
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestFIFOPerPair(t *testing.T) {
	_, err := Run(testMachine(1, 2), 2, func(r *Rank) {
		const n = 50
		if r.ID() == 0 {
			for i := 0; i < n; i++ {
				r.SendOwned(1, 0, []float64{float64(i)})
			}
		} else {
			for i := 0; i < n; i++ {
				got := r.Recv(0, 0)
				if got[0] != float64(i) {
					panic("out of order")
				}
			}
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestTagsSeparateStreams(t *testing.T) {
	_, err := Run(testMachine(1, 2), 2, func(r *Rank) {
		if r.ID() == 0 {
			r.SendOwned(1, 1, []float64{1})
			r.SendOwned(1, 2, []float64{2})
		} else {
			// Receive in reverse tag order.
			if got := r.Recv(0, 2); got[0] != 2 {
				panic("tag 2 wrong")
			}
			if got := r.Recv(0, 1); got[0] != 1 {
				panic("tag 1 wrong")
			}
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestSendRecvExchange: both ranks send before they receive, which is
// safe because a send never blocks.
func TestSendRecvExchange(t *testing.T) {
	_, err := Run(testMachine(1, 2), 2, func(r *Rank) {
		peer := 1 - r.ID()
		r.SendOwned(peer, 0, []float64{float64(r.ID())})
		got := r.Recv(peer, 0)
		if got[0] != float64(peer) {
			panic("exchange wrong")
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestMonotoneClockProperty(t *testing.T) {
	// Clocks never go backwards through any op sequence.
	_, err := Run(testMachine(2, 2), 4, func(r *Rank) {
		last := 0.0
		check := func() {
			if r.clock < last {
				panic("clock went backwards")
			}
			last = r.clock
		}
		for i := 0; i < 10; i++ {
			r.Compute(float64(r.ID()+1) * 1e6)
			check()
			r.Allreduce1(Sum, 1)
			check()
			peer := r.ID() ^ 1
			r.SendOwned(peer, i, []float64{1})
			r.Recv(peer, i)
			check()
			r.Barrier()
			check()
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestBarrierSynchronises(t *testing.T) {
	st, err := Run(testMachine(1, 4), 4, func(r *Rank) {
		r.Compute(float64(r.ID()) * 1e9) // ranks finish at 0,1,2,3s
		r.Barrier()
		if r.clock < 3.0 {
			panic("barrier exited before slowest rank")
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if st.Time < 3.0 {
		t.Errorf("Time = %v, want >= 3", st.Time)
	}
	// Fast ranks accumulated wait time.
	if st.WaitTime[0] < 2.9 {
		t.Errorf("rank 0 wait = %v, want ~3", st.WaitTime[0])
	}
}

func TestAllreduceValues(t *testing.T) {
	_, err := Run(testMachine(2, 2), 4, func(r *Rank) {
		if r.Allreduce1(Sum, float64(r.ID())) != 6 || r.Allreduce1(Sum, 1) != 4 {
			panic("allreduce sum wrong")
		}
		if got := r.Allreduce1(Max, float64(r.ID())); got != 3 {
			panic("allreduce max wrong")
		}
		if got := r.Allreduce1(minOp, float64(r.ID())); got != 0 {
			panic("allreduce min wrong")
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestAlltoallvBytesVolumeAndTiming(t *testing.T) {
	st, err := Run(testMachine(2, 2), 4, func(r *Rank) {
		send := make([]int, 4)
		for dst := 0; dst < 4; dst++ {
			if dst != r.ID() {
				send[dst] = 1000 * (r.ID() + 1)
			}
		}
		got := r.AlltoallvBytesRow(send)
		want := 0
		for src := 0; src < 4; src++ {
			if src != r.ID() {
				want += 1000 * (src + 1)
			}
		}
		if got != want {
			panic("alltoallv inbound bytes wrong")
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	var wantTotal int64
	for src := 1; src <= 4; src++ {
		wantTotal += int64(3 * 1000 * src)
	}
	if st.BytesSent != wantTotal {
		t.Errorf("BytesSent = %d, want %d", st.BytesSent, wantTotal)
	}
	if st.Time <= 0 {
		t.Error("alltoallv should cost time")
	}
}

func TestAlltoallvSelfAndEmptyIgnored(t *testing.T) {
	_, err := Run(testMachine(1, 2), 2, func(r *Rank) {
		send := make([]int, 2)
		send[r.ID()] = 999
		got := r.AlltoallvBytesRow(send)
		if got != 0 {
			panic("self/zero bytes should not be delivered")
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestDeterministicTiming(t *testing.T) {
	body := func(r *Rank) {
		for i := 0; i < 20; i++ {
			r.Compute(float64((r.ID()*31+i)%7) * 1e7)
			r.Allreduce1(Sum, float64(i))
			peer := (r.ID() + 1) % r.Size()
			prev := (r.ID() + r.Size() - 1) % r.Size()
			r.SendOwned(peer, i, []float64{1, 2, 3})
			r.Recv(prev, i)
		}
	}
	var times []float64
	for trial := 0; trial < 3; trial++ {
		st, err := Run(testMachine(2, 3), 6, body)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		times = append(times, st.Time)
	}
	if times[0] != times[1] || times[1] != times[2] {
		t.Errorf("non-deterministic times: %v", times)
	}
}

func TestPanicInRankBecomesError(t *testing.T) {
	_, err := Run(testMachine(1, 4), 4, func(r *Rank) {
		if r.ID() == 2 {
			panic("boom")
		}
		r.Barrier() // other ranks block; abort must free them
	})
	if err == nil || !strings.Contains(err.Error(), "rank 2") {
		t.Errorf("err = %v, want rank 2 panic", err)
	}
}

func TestPanicWhileBlockedInRecv(t *testing.T) {
	_, err := Run(testMachine(1, 2), 2, func(r *Rank) {
		if r.ID() == 0 {
			panic("dead sender")
		}
		r.Recv(0, 0)
	})
	if err == nil {
		t.Error("expected error")
	}
}

func TestInvalidOperationsPanic(t *testing.T) {
	cases := []struct {
		name string
		body func(r *Rank)
	}{
		{"send to self", func(r *Rank) { r.SendOwned(r.ID(), 0, nil) }},
		{"send out of range", func(r *Rank) { r.SendOwned(99, 0, nil) }},
		{"recv out of range", func(r *Rank) { r.Recv(-1, 0) }},
		{"negative compute", func(r *Rank) { r.Compute(-1) }},
		{"negative sleep", func(r *Rank) { r.Sleep(-1) }},
		{"negative bytes", func(r *Rank) { r.SendBytes(1, 0, -5) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Run(testMachine(1, 2), 2, func(r *Rank) {
				if r.ID() == 0 {
					c.body(r)
				}
			})
			if err == nil {
				t.Errorf("%s: expected error", c.name)
			}
		})
	}
}

func TestCollectiveMismatchDetected(t *testing.T) {
	_, err := Run(testMachine(1, 2), 2, func(r *Rank) {
		if r.ID() == 0 {
			r.Barrier()
		} else {
			r.Allreduce1(Sum, 1)
		}
	})
	if err == nil || !strings.Contains(err.Error(), "mismatch") {
		t.Errorf("err = %v, want collective mismatch", err)
	}
}

// TestAllreduceOperatorMismatchDetected: the operator is part of what
// every rank must agree on — the rendezvous records it at the first
// arrival instead of silently applying the last arriver's.
func TestAllreduceOperatorMismatchDetected(t *testing.T) {
	_, err := Run(testMachine(1, 2), 2, func(r *Rank) {
		r.Allreduce1([]Op{Sum, Max}[r.ID()], 1)
	})
	if err == nil || !strings.Contains(err.Error(), "collective mismatch: rank 1 calls allreduce1 with max while sum in progress") {
		t.Errorf("err = %v, want collective mismatch naming both operators", err)
	}
}

func TestRunRejectsBadWorlds(t *testing.T) {
	if _, err := Run(testMachine(1, 2), 0, func(*Rank) {}); err == nil {
		t.Error("expected error for 0 ranks")
	}
	if _, err := Run(testMachine(1, 2), 3, func(*Rank) {}); err == nil {
		t.Error("expected error for oversubscription")
	}
	bad := testMachine(1, 2)
	bad.Gflops = nil
	if _, err := Run(bad, 2, func(*Rank) {}); err == nil {
		t.Error("expected error for invalid machine")
	}
}

func TestSendBytesHasNoPayload(t *testing.T) {
	_, err := Run(testMachine(1, 2), 2, func(r *Rank) {
		if r.ID() == 0 {
			r.SendBytes(1, 0, 1<<20)
		} else {
			if got := r.Recv(0, 0); got != nil {
				panic("expected nil payload")
			}
			if r.clock < float64(1<<20)/1e9 {
				panic("transfer time not charged")
			}
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestSingleRankWorld(t *testing.T) {
	st, err := Run(testMachine(1, 1), 1, func(r *Rank) {
		r.Compute(5e8)
		r.Barrier()
		if got := r.Allreduce1(Sum, 3); got != 3 {
			panic("allreduce on single rank")
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if math.Abs(st.Time-0.5) > 1e-9 {
		t.Errorf("Time = %v, want 0.5", st.Time)
	}
}
