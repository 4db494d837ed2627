package simmpi

import (
	"strings"
	"testing"
	"time"
)

// The cooperative scheduler detects deadlock structurally: the moment
// no rank is runnable while live ranks remain parked, Run returns an
// error naming each blocked rank and its operation. These tests pin
// both the report contents and the latency — detection must be
// immediate (well under a second, even under -race), not the product
// of a wall-clock watchdog.

func runExpectingDeadlock(t *testing.T, nodes, ppn, n int, body func(r *Rank)) error {
	t.Helper()
	start := time.Now()
	_, err := Run(testMachine(nodes, ppn), n, body)
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("deadlock took %v to detect; structural detection should be immediate", elapsed)
	}
	if err == nil {
		t.Fatal("expected deadlock error, got nil")
	}
	if !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("err = %v, want a deadlock report", err)
	}
	return err
}

func TestDeadlockUnmatchedRecv(t *testing.T) {
	err := runExpectingDeadlock(t, 1, 2, 2, func(r *Rank) {
		if r.ID() == 1 {
			r.Recv(0, 7) // rank 0 never sends
		}
	})
	if !strings.Contains(err.Error(), "rank 1 blocked in Recv(src=0, tag=7)") {
		t.Errorf("err = %v, want the blocked rank and (src, tag) named", err)
	}
}

func TestDeadlockMutualRecv(t *testing.T) {
	// Both ranks wait for the other to send first: the classic
	// head-to-head receive deadlock. Both must be named.
	err := runExpectingDeadlock(t, 1, 2, 2, func(r *Rank) {
		peer := 1 - r.ID()
		r.Recv(peer, 3)
		r.Send(peer, 3, nil)
	})
	for _, want := range []string{
		"rank 0 blocked in Recv(src=1, tag=3)",
		"rank 1 blocked in Recv(src=0, tag=3)",
	} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("err = %v, want %q", err, want)
		}
	}
}

func TestDeadlockCollectiveNeverJoined(t *testing.T) {
	// Ranks 0 and 1 enter the barrier; rank 2 returns without joining.
	// The scheduler reports the parked ranks and the collective's name
	// as soon as rank 2 finishes.
	err := runExpectingDeadlock(t, 1, 4, 3, func(r *Rank) {
		if r.ID() != 2 {
			r.Barrier()
		}
	})
	for _, want := range []string{
		"rank 0 blocked in barrier",
		"rank 1 blocked in barrier",
	} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("err = %v, want %q", err, want)
		}
	}
}

func TestDeadlockMixedWaits(t *testing.T) {
	// One rank parked in a collective, one in a Recv, one finished:
	// the report must name each operation individually.
	err := runExpectingDeadlock(t, 1, 4, 3, func(r *Rank) {
		switch r.ID() {
		case 0:
			r.Allreduce1(Sum, 1)
		case 1:
			r.Recv(2, 9)
		}
	})
	if !strings.Contains(err.Error(), "rank 0 blocked in allreduce") {
		t.Errorf("err = %v, want rank 0 in allreduce", err)
	}
	if !strings.Contains(err.Error(), "rank 1 blocked in Recv(src=2, tag=9)") {
		t.Errorf("err = %v, want rank 1 in Recv", err)
	}
}

func TestWorldReusableAfterDeadlock(t *testing.T) {
	// A deadlocked run leaves nothing behind: the next Run on the same
	// machine shape starts from pristine state.
	m := testMachine(1, 2)
	if _, err := Run(m, 2, func(r *Rank) {
		if r.ID() == 0 {
			r.Recv(1, 0)
		}
	}); err == nil {
		t.Fatal("expected deadlock")
	}
	st, err := Run(m, 2, func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, 0, nil)
		} else {
			r.Recv(0, 0)
		}
	})
	if err != nil {
		t.Fatalf("clean run after deadlock: %v", err)
	}
	if st.Messages != 1 {
		t.Errorf("Messages = %d, want 1", st.Messages)
	}
}

// TestRunAllocationSteadyState pins that a Run's allocations do not
// depend on how many messages and collectives it performs: a ring of
// 1, 100 and 1000 laps, each lap a message and a scalar collective on
// every rank, must allocate the same. That holds only while envelopes,
// queue slots, payloads and collective scratch are all recycled within
// the run, so any per-message, per-switch or per-collective allocation
// creeping back into the hot path fails this immediately.
func TestRunAllocationSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates unpredictably; allocation count is meaningless under -race")
	}
	m := testMachine(2, 4)
	allocs := func(laps int) float64 {
		return testing.AllocsPerRun(10, func() {
			if _, err := Run(m, 8, func(r *Rank) {
				next := (r.ID() + 1) % r.Size()
				prev := (r.ID() + r.Size() - 1) % r.Size()
				for i := 0; i < laps; i++ {
					r.SendBytes(next, 0, 8)
					r.Recv(prev, 0)
					r.Allreduce1(Sum, 1)
				}
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
	one := allocs(1)
	for _, laps := range []int{100, 1000} {
		if got := allocs(laps); got != one {
			t.Errorf("a Run of %d laps allocates %.0f times, one of 1 lap %.0f; the hot path is allocating again", laps, got, one)
		}
	}
}
