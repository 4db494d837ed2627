package simmpi

import (
	"errors"
	"fmt"
	"iter"
	"math/bits"
	"strings"
)

// The cooperative run-to-block scheduler.
//
// Every rank of a world is a coroutine (iter.Pull) that runs the rank
// program once and returns. Run's own goroutine is the scheduler: it
// resumes the lowest-numbered runnable rank, which executes until it
// blocks (Recv with no matching message, collective rendezvous before
// the last arrival) or returns, and then control comes back to the
// scheduler loop. Sends never block and never yield. `func(r *Rank)`
// and every application simulator are untouched by any of this.
//
// A resume or a yield is a direct switch between two stacks: exactly
// one of scheduler and ranks executes at any instant, and every switch
// is a happens-before edge, so all scheduler and world state — message
// queues, collective scratch, byte counters — is accessed race-free
// without a single mutex. The switch bypasses the runtime's run
// queues, so a hand-off stays on its thread whatever GOMAXPROCS is.
// Determinism is structural: the run order is a pure function of the
// rank programs, not of the Go runtime's preemption decisions.
//
// Deadlock detection is free. The scheduler knows why every parked
// rank is parked (its wait record); when no rank is runnable and live
// ranks remain, they can never make progress, and Run returns
// immediately with an error naming each blocked rank and the operation
// it is parked in. No wall-clock watchdog is needed, so the simulation
// never reads real time.
//
// Lifetime. A world lives one run. After a clean run every coroutine
// has returned; Run defers stopAll for the runs that end early — a
// rank panic, a deadlock, runtime.Goexit in a rank program — in which
// a parked rank's yield reports false and its program unwinds through
// errAborted. No coroutine outlives its Run.

// rankState tracks where a rank is in the cooperative schedule.
type rankState uint8

const (
	stateRunnable rankState = iota // parked, waiting for its turn
	stateRunning                   // executing
	stateBlocked                   // parked on a wait record
	stateDone                      // program returned
)

// waitKind says what a blocked rank is parked on.
type waitKind uint8

const (
	waitNone waitKind = iota
	waitRecv          // blocked in Recv(src, tag)
	waitColl          // blocked in a collective rendezvous
)

// waitRecord describes why a rank is blocked, both for wakeup
// matching and for naming the operation in a deadlock report.
type waitRecord struct {
	kind     waitKind
	src, tag int      // waitRecv: the (source, tag) stream awaited
	coll     collKind // waitColl: the collective awaited
}

// sched is the per-world scheduler state. It is only ever touched by
// whichever of the scheduler loop and the ranks is executing, so none
// of it is locked.
type sched struct {
	// Per-rank coroutine handles: resume and stop come from iter.Pull,
	// yield is published by the coroutine itself when it first runs.
	resume []func() (struct{}, bool)
	stop   []func()
	yield  []func(struct{}) bool

	state []rankState
	wait  []waitRecord
	ready []uint64 // bitset of runnable ranks
	live  int      // ranks whose program has not returned

	body func(*Rank) // the rank program
	err  error       // a rank program's panic
}

// newSched returns the scheduler of a fresh world running body: every
// rank runnable, nothing blocked.
func newSched(w *world, body func(*Rank)) *sched {
	n := w.n
	s := &sched{
		resume: make([]func() (struct{}, bool), n),
		stop:   make([]func(), n),
		yield:  make([]func(struct{}) bool, n),
		state:  make([]rankState, n),
		wait:   make([]waitRecord, n),
		ready:  make([]uint64, (n+63)/64),
		live:   n,
		body:   body,
	}
	for i := range s.resume {
		s.markReady(i)
		s.resume[i], s.stop[i] = iter.Pull(s.rankProgram(&w.ranks[i]))
	}
	return s
}

// rankProgram is the coroutine of one rank: it runs the program on r
// and retires the rank. A panic with errAborted means the world was
// stopped under the program; any other is an application bug, which
// becomes the run's error.
func (s *sched) rankProgram(r *Rank) iter.Seq[struct{}] {
	return func(yield func(struct{}) bool) {
		s.yield[r.id] = yield
		defer func() {
			if p := recover(); p != nil {
				if err, _ := p.(error); !errors.Is(err, errAborted) {
					s.err = fmt.Errorf("simmpi: rank %d panicked: %v", r.id, p)
				}
			}
		}()
		s.body(r)
		s.state[r.id] = stateDone
		s.live--
	}
}

func (s *sched) markReady(i int) { s.ready[i>>6] |= 1 << (i & 63) }

// popReady removes and returns the lowest-numbered runnable rank.
func (s *sched) popReady() (int, bool) {
	for w, word := range s.ready {
		if word != 0 {
			b := bits.TrailingZeros64(word)
			s.ready[w] = word &^ (1 << b)
			return w<<6 | b, true
		}
	}
	return 0, false
}

// run executes the program on every rank with the calling goroutine as
// the scheduler. When no rank is runnable and live ranks remain, each
// is parked on a wait record that nothing can satisfy: the world is
// deadlocked, and run reports it instead of hanging.
func (s *sched) run() error {
	for s.live > 0 {
		id, ok := s.popReady()
		if !ok {
			return s.deadlockError()
		}
		s.state[id] = stateRunning
		s.resume[id]()
		if s.err != nil {
			return s.err
		}
	}
	return nil
}

// block parks rank id on wait record wr and returns control to the
// scheduler; it returns when a matching wakeup (message arrival,
// collective completion) has made the rank runnable and its turn has
// come. In a stopped world it unwinds the rank program instead.
func (s *sched) block(id int, wr waitRecord) {
	s.wait[id] = wr
	s.state[id] = stateBlocked
	if !s.yield[id](struct{}{}) {
		panic(errAborted)
	}
}

// unblock moves a blocked rank back into the ready set. The rank
// resumes when the scheduler next picks it.
func (s *sched) unblock(id int) {
	s.state[id] = stateRunnable
	s.wait[id] = waitRecord{}
	s.markReady(id)
}

// stopAll ends every rank coroutine, unwinding any program still
// parked in block; a coroutine that has returned is left alone.
func (s *sched) stopAll() {
	for _, stop := range s.stop {
		stop()
	}
}

// deadlockError names every blocked rank and the operation it is
// parked in, e.g. "rank 1 blocked in Recv(src=0, tag=7)".
func (s *sched) deadlockError() error {
	var b strings.Builder
	b.WriteString("simmpi: deadlock:")
	sep := " "
	for i, st := range s.state {
		if st != stateBlocked {
			continue
		}
		b.WriteString(sep)
		sep = "; "
		switch wr := s.wait[i]; wr.kind {
		case waitRecv:
			fmt.Fprintf(&b, "rank %d blocked in Recv(src=%d, tag=%d)", i, wr.src, wr.tag)
		case waitColl:
			fmt.Fprintf(&b, "rank %d blocked in %s", i, wr.coll)
		default:
			fmt.Fprintf(&b, "rank %d blocked", i)
		}
	}
	return errors.New(b.String())
}
