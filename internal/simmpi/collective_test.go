package simmpi

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"harmony/internal/cluster"
)

func TestAlltoallvBisectionCongestion(t *testing.T) {
	// A dense exchange across few nodes must be gated by the
	// bisection, not by per-rank parallelism: doubling per-pair
	// volume doubles the time even though every rank "receives in
	// parallel".
	m := testMachine(2, 4)
	timeFor := func(bytes int) float64 {
		st, err := Run(m, 8, func(r *Rank) {
			send := map[int]int{}
			for dst := 0; dst < 8; dst++ {
				if dst != r.ID() {
					send[dst] = bytes
				}
			}
			r.AlltoallvBytes(send)
		})
		if err != nil {
			t.Fatal(err)
		}
		return st.Time
	}
	t1 := timeFor(1 << 20)
	t2 := timeFor(2 << 20)
	if ratio := t2 / t1; ratio < 1.8 || ratio > 2.2 {
		t.Errorf("volume doubling changed time by %.2fx, want ~2x (bisection-bound)", ratio)
	}
	// The absolute time must respect the bisection floor.
	interBytes := 0
	for src := 0; src < 8; src++ {
		for dst := 0; dst < 8; dst++ {
			if dst != src && !m.SameNode(src, dst) {
				interBytes += 1 << 20
			}
		}
	}
	if floor := float64(interBytes) / m.Bisection(); t1 < floor {
		t.Errorf("time %v below bisection floor %v", t1, floor)
	}
}

func TestAlltoallvMoreNodesRelieveCongestion(t *testing.T) {
	// The same aggregate exchange finishes faster on a machine with
	// more nodes (larger bisection).
	run := func(nodes, ppn int) float64 {
		st, err := Run(testMachine(nodes, ppn), 8, func(r *Rank) {
			send := map[int]int{}
			for dst := 0; dst < 8; dst++ {
				if dst != r.ID() {
					send[dst] = 1 << 20
				}
			}
			r.AlltoallvBytes(send)
		})
		if err != nil {
			t.Fatal(err)
		}
		return st.Time
	}
	wide := run(8, 1)
	narrow := run(2, 4)
	if wide >= narrow {
		t.Errorf("8-node exchange (%v) should beat 2-node exchange (%v)", wide, narrow)
	}
}

func TestBisectionDefault(t *testing.T) {
	m := &cluster.Machine{Nodes: 16, PPN: 2,
		Inter: cluster.Link{Bandwidth: 100e6, Latency: 1e-6},
		Intra: cluster.Link{Bandwidth: 1e9, Latency: 1e-7}}
	if got, want := m.Bisection(), 16*100e6/2; got != want {
		t.Errorf("Bisection = %v, want %v", got, want)
	}
	m.BisectionBandwidth = 42
	if got := m.Bisection(); got != 42 {
		t.Errorf("explicit bisection = %v, want 42", got)
	}
}

func TestGatherRootPaysForVolume(t *testing.T) {
	st, err := Run(testMachine(4, 1), 4, func(r *Rank) {
		r.Gather(0, make([]float64, 10000))
	})
	if err != nil {
		t.Fatal(err)
	}
	// Root's clock includes the full inbound volume; leaves leave
	// almost immediately.
	if st.RankClocks[0] <= st.RankClocks[1] {
		t.Errorf("root clock %v should exceed leaf clock %v", st.RankClocks[0], st.RankClocks[1])
	}
}

func TestBcastNilAtRoot(t *testing.T) {
	_, err := Run(testMachine(1, 2), 2, func(r *Rank) {
		got := r.Bcast(0, nil)
		if len(got) != 0 {
			panic("nil broadcast should deliver empty")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllreduceLengthMismatchDetected(t *testing.T) {
	_, err := Run(testMachine(1, 2), 2, func(r *Rank) {
		r.Allreduce(Sum, make([]float64, 1+r.ID()))
	})
	if err == nil {
		t.Error("expected error for mismatched allreduce lengths")
	}
}

func TestCollectiveSequenceTiming(t *testing.T) {
	// Two barriers back-to-back cost twice one barrier's tree cost.
	m := testMachine(2, 2)
	one, err := Run(m, 4, func(r *Rank) { r.Barrier() })
	if err != nil {
		t.Fatal(err)
	}
	two, err := Run(m, 4, func(r *Rank) { r.Barrier(); r.Barrier() })
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(two.Time-2*one.Time) > 1e-12 {
		t.Errorf("two barriers = %v, want %v", two.Time, 2*one.Time)
	}
}

func TestReduceDeliversAtRootOnly(t *testing.T) {
	st, err := Run(testMachine(2, 2), 4, func(r *Rank) {
		got := r.Reduce(2, Sum, []float64{float64(r.ID()), 1})
		if r.ID() == 2 {
			if len(got) != 2 || got[0] != 6 || got[1] != 4 {
				panic("reduce result wrong at root")
			}
		} else if got != nil {
			panic("reduce non-nil at leaf")
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Root's clock includes the tree cost; leaves leave early.
	if st.RankClocks[2] <= st.RankClocks[0] {
		t.Errorf("root clock %v should exceed leaf clock %v", st.RankClocks[2], st.RankClocks[0])
	}
}

func TestReduceInvalidRoot(t *testing.T) {
	_, err := Run(testMachine(1, 2), 2, func(r *Rank) {
		r.Reduce(5, Sum, []float64{1})
	})
	if err == nil {
		t.Error("expected error for invalid root")
	}
}

func TestReduceLengthMismatch(t *testing.T) {
	_, err := Run(testMachine(1, 2), 2, func(r *Rank) {
		r.Reduce(0, Sum, make([]float64, 1+r.ID()))
	})
	if err == nil {
		t.Error("expected error for mismatched lengths")
	}
}

// TestAllreduceBytesEqualsAllreduce is what keeps the cost-only
// reduction honest: a program that reduces a vector nobody reads and
// one that declares only its size must agree on every statistic, at
// any rank count, link mix and arrival stagger.
func TestAllreduceBytesEqualsAllreduce(t *testing.T) {
	hetero := testMachine(3, 2)
	hetero.Gflops = []float64{1, 0.25, 3}
	for _, c := range []struct {
		m *cluster.Machine
		n int
	}{
		{testMachine(1, 1), 1}, {testMachine(1, 4), 3}, {testMachine(4, 2), 8},
		{hetero, 5}, {cluster.Seaborg(5, 16), 70}, {cluster.MyrinetLinux(64, 2), 128},
	} {
		for _, k := range []int{0, 1, 64, 1000} {
			program := func(reduce func(r *Rank)) func(r *Rank) {
				return func(r *Rank) {
					for step := 1; step <= 3; step++ {
						// Stagger the arrivals differently every step.
						r.Compute(float64((r.ID()*7+step*3)%5) * 1e6)
						reduce(r)
						if r.ID()%2 == 0 {
							r.Sleep(1e-4 * float64(step))
						}
					}
				}
			}
			vec := make([]float64, k)
			want, err := Run(c.m, c.n, program(func(r *Rank) { r.Allreduce(Sum, vec) }))
			if err != nil {
				t.Fatal(err)
			}
			got, err := Run(c.m, c.n, program(func(r *Rank) { r.AllreduceBytes(8 * k) }))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s, %d ranks, %d doubles:\nAllreduceBytes %+v\nAllreduce      %+v", c.m, c.n, k, got, want)
			}
		}
	}
}

func TestAllreduceBytesRejectsBadSizes(t *testing.T) {
	for want, size := range map[string]func(r *Rank) int{
		"negative message size -8": func(*Rank) int { return -8 },
		"allreduce size mismatch":  func(r *Rank) int { return 8 * r.ID() },
	} {
		_, err := Run(testMachine(1, 2), 2, func(r *Rank) { r.AllreduceBytes(size(r)) })
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("err = %v, want %q", err, want)
		}
	}
}

// TestAlltoallvRowReadAtRendezvous: a send row is read in place while
// its owner is parked in the call and never afterwards, so a rank may
// reuse — here, scribble over — its row as soon as the call returns
// without changing that exchange or any later one.
func TestAlltoallvRowReadAtRendezvous(t *testing.T) {
	m := testMachine(3, 2)
	const n, exchanges = 6, 4
	fillRow := func(row []int, id, x int) {
		for dst := range row {
			row[dst] = 1000 * ((id*5+dst*3+x)%4 + x)
		}
	}
	program := func(reuse bool) func(r *Rank) {
		return func(r *Rank) {
			row := make([]int, n)
			for x := 0; x < exchanges; x++ {
				if !reuse {
					row = make([]int, n)
				}
				fillRow(row, r.ID(), x)
				r.Compute(float64(r.ID()+x) * 1e5)
				r.AlltoallvBytesRow(row)
				if reuse {
					for dst := range row {
						row[dst] = -1 - dst
					}
				}
			}
		}
	}
	want, err := Run(m, n, program(false))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(m, n, program(true))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("reused rows changed the result:\n got %+v\nwant %+v", got, want)
	}
}

func TestAlltoallvNegativeSizeDetected(t *testing.T) {
	for name, call := range map[string]func(r *Rank){
		"row": func(r *Rank) { r.AlltoallvBytesRow([]int{0, 0, -5}) },
		"map": func(r *Rank) { r.AlltoallvBytes(map[int]int{2: -5}) },
	} {
		_, err := Run(testMachine(1, 3), 3, func(r *Rank) {
			if r.ID() == 1 {
				call(r)
			} else {
				r.AlltoallvBytesRow(make([]int, 3))
			}
		})
		if err == nil || !strings.Contains(err.Error(), "simmpi: alltoallv negative size -5") {
			t.Errorf("%s: err = %v, want the negative size named", name, err)
		}
	}
}
