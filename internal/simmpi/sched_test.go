package simmpi

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// scheduleProgram is a fixed mix of point-to-point and collective
// operations whose ranks block in a different order at every stage.
// Each rank appends its id to log when it starts and every time a
// potentially blocking call returns, so log is the order in which the
// scheduler ran the program's segments. Ranks run one at a time, so the
// shared slice needs no lock.
func scheduleProgram(log *[]int) func(r *Rank) {
	return func(r *Rank) {
		mark := func() { *log = append(*log, r.ID()) }
		n := r.Size()
		next, prev := (r.ID()+1)%n, (r.ID()+n-1)%n
		mark()
		// A ring in which odd ranks receive before they send.
		if r.ID()%2 == 1 {
			r.Recv(prev, 0)
			mark()
			r.SendOwned(next, 0, nil)
		} else {
			r.SendOwned(next, 0, nil)
			r.Recv(prev, 0)
			mark()
		}
		r.Compute(float64(n-r.ID()) * 1e6)
		r.Allreduce1(Sum, 1)
		mark()
		// A fan-in that rank 0 drains from the highest rank down.
		if r.ID() == 0 {
			for src := n - 1; src >= 1; src-- {
				r.Recv(src, 1)
				mark()
			}
		} else {
			r.SendOwned(0, 1, nil)
		}
		row := make([]int, n)
		row[next] = 1000 * (1 + r.ID())
		r.AlltoallvBytesRow(row)
		mark()
		// The last rank is late to the final barrier.
		if r.ID() == n-1 {
			r.Recv(0, 2)
			mark()
		} else if r.ID() == 0 {
			r.SendOwned(n-1, 2, nil)
		}
		r.Barrier()
		mark()
	}
}

// TestScheduleTraceMatchesChannelScheduler pins the run order — the
// lowest-numbered runnable rank, always — against a literal captured
// from the channel-gate scheduler this one replaced: every virtual
// clock being unchanged follows from the order being unchanged.
func TestScheduleTraceMatchesChannelScheduler(t *testing.T) {
	want := []int{0, 1, 1, 2, 2, 3, 3, 4, 4, 0, 0, 1, 2, 3, 4, 0, 0, 0, 0, 0, 1, 2, 3, 4, 4, 4, 0, 1, 2, 3}
	for trial := 0; trial < 3; trial++ {
		var got []int
		if _, err := Run(testMachine(3, 2), 5, scheduleProgram(&got)); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: schedule\n got %v\nwant %v", trial, got, want)
		}
	}
}

// rankCoroutines counts the rank coroutines alive in the process —
// nothing else in this package makes any — from the all-goroutine
// stack dump.
func rankCoroutines() int {
	buf := make([]byte, 1<<20)
	for {
		if n := runtime.Stack(buf, true); n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	return strings.Count(string(buf), " [coroutine")
}

// checkNoRanksLeft fails when a rank coroutine is still alive or the
// process holds more goroutines than base. A goroutine an earlier test
// left exiting can make the count fall below base, never rise above.
func checkNoRanksLeft(t *testing.T, base int, after string) {
	t.Helper()
	if got, cos := runtime.NumGoroutine(), rankCoroutines(); got > base || cos != 0 {
		t.Errorf("%d goroutines, %d of them rank coroutines, after %s; want the %d before and none", got, cos, after, base)
	}
}

// TestCleanRunLeavesNoGoroutines: a world lives one run, so the moment
// Run returns its ranks are gone, at every size.
func TestCleanRunLeavesNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	for _, n := range []int{1, 2, 3, 5, 8, 13, 70} {
		if _, err := Run(testMachine(35, 2), n, func(r *Rank) { r.Barrier() }); err != nil {
			t.Fatal(err)
		}
		checkNoRanksLeft(t, base, fmt.Sprintf("a clean %d-rank run", n))
	}
}

func TestFailedRunLeaksNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	runExpectingDeadlock(t, 1, 9, 9, func(r *Rank) { r.Recv((r.ID()+1)%9, 0) })
	checkNoRanksLeft(t, base, "a deadlocked run")
	// Ranks 0-2 are parked in the barrier when rank 3 panics; ranks 4-8
	// have never been resumed.
	if _, err := Run(testMachine(1, 9), 9, func(r *Rank) {
		if r.ID() == 3 {
			panic("boom")
		}
		r.Barrier()
	}); err == nil || !strings.Contains(err.Error(), "rank 3 panicked: boom") {
		t.Fatalf("err = %v, want rank 3's panic", err)
	}
	checkNoRanksLeft(t, base, "a rank panic")
}

// TestGoexitInRankEndsCaller: runtime.Goexit in a rank program — what
// t.Fatal does — ends the goroutine that called Run, as FailNow
// requires of the test goroutine, instead of hanging Run on the ranks
// left parked; Run's deferred stop unwinds those before the caller's
// own deferred calls run.
func TestGoexitInRankEndsCaller(t *testing.T) {
	base := runtime.NumGoroutine()
	returned := false
	done := make(chan struct{})
	go func() {
		defer close(done)
		Run(testMachine(1, 4), 4, func(r *Rank) {
			if r.ID() == 2 {
				runtime.Goexit()
			}
			r.Barrier()
		})
		returned = true
	}()
	<-done
	if returned {
		t.Error("Run returned to its caller after a rank called runtime.Goexit")
	}
	if cos := rankCoroutines(); cos != 0 {
		t.Errorf("%d rank coroutines alive once Run's caller has unwound, want 0", cos)
	}
	// The caller itself is still exiting: wait for it, without a
	// collection, then hold the count to the baseline.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base && time.Now().Before(deadline); {
		runtime.Gosched()
	}
	checkNoRanksLeft(t, base, "a rank's runtime.Goexit")
}

// TestWorldsRunConcurrently drives several worlds of one size at once
// from different goroutines; under -race this checks that a world
// shares nothing with its neighbours and that every resume and yield
// orders its accesses.
func TestWorldsRunConcurrently(t *testing.T) {
	m := testMachine(2, 3)
	var wantLog []int
	want, err := Run(m, 6, scheduleProgram(&wantLog))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				var log []int
				st, err := Run(m, 6, scheduleProgram(&log))
				if err != nil || !reflect.DeepEqual(st, want) || !reflect.DeepEqual(log, wantLog) {
					t.Errorf("concurrent run: err %v, stats %+v, schedule %v; want %+v, %v", err, st, log, want, wantLog)
					return
				}
			}
		}()
	}
	wg.Wait()
}
