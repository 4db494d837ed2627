// Package simmpi is a deterministic virtual-time message-passing
// machine: the substrate on which every application simulator in this
// repository runs.
//
// Each rank carries a private virtual clock. Compute advances the
// clock by work/CPU-speed; point-to-point and collective operations
// synchronise clocks through the machine's link cost model (latency,
// bandwidth, sender overhead, distinct intra- and inter-node links).
// The simulated execution time of a parallel program is the maximum
// rank clock at completion — so load imbalance, communication volume,
// and topology alignment all surface exactly as they would on a real
// cluster, while a 480-rank ocean-model step simulates in milliseconds
// of wall-clock time.
//
// A program runs on one of two executors, and what it reads decides
// which. A straight-line cost program that reads no values — a POP,
// GS2 or SLES run — executes on a Lockstep (see lockstep.go) as rank
// vectors, one operation for all ranks at a time. Only a solve that
// reads received values or reduction results (KSP, SNES) runs on Run,
// which executes each rank as a coroutine under a cooperative
// run-to-block scheduler (see sched.go): exactly one rank runs at a
// time and control switches directly at blocking points, so the
// simulation needs no mutexes, no condition variables, and no
// wall-clock watchdog — an application deadlock is detected
// structurally the moment no rank can run, and reported immediately.
// Both charge the same costs for the same program.
//
// The simulation is conservative and deterministic: message matching
// is by explicit (source, tag) with per-pair FIFO order, there is no
// wildcard receive, and collective operations are program-ordered
// rendezvous points. Deterministic rank programs therefore produce
// bit-identical virtual timings across runs — structurally, since
// virtual clocks never depend on how the host interleaves ranks.
package simmpi

import (
	"errors"
	"fmt"
	"math/bits"

	"harmony/internal/cluster"
)

// Op is a reduction operator.
type Op int

// Reduction operators.
const (
	Sum Op = iota
	Max
	minOp
)

// String names the operator the way a collective-mismatch report does.
func (op Op) String() string {
	switch op {
	case Sum:
		return "sum"
	case Max:
		return "max"
	case minOp:
		return "min"
	}
	return fmt.Sprintf("op %d", int(op))
}

// Stats summarises one simulated run.
type Stats struct {
	// Time is the virtual completion time of the job: the maximum
	// rank clock, in seconds.
	Time float64
	// RankClocks holds each rank's final virtual clock.
	RankClocks []float64
	// ComputeTime holds each rank's accumulated compute seconds.
	ComputeTime []float64
	// WaitTime holds each rank's accumulated blocked/idle seconds
	// (clock advanced by waiting on communication rather than
	// computing or sending).
	WaitTime []float64
	// BytesSent is the total payload volume across all messages,
	// including collective traffic estimates.
	BytesSent int64
	// Messages is the number of point-to-point messages.
	Messages int64
}

var errAborted = errors.New("simmpi: world aborted")

// streamKey identifies one (source, tag) message stream, packed into
// a single word so queue lookups take the runtime's fast uint64 map
// path instead of hashing a two-field struct. Tags must fit in int32
// (negative tags included); 64-bit-only tag values would alias.
type streamKey uint64

func makeStreamKey(src, tag int) streamKey {
	if tag != int(int32(tag)) {
		panic(fmt.Sprintf("simmpi: tag %d overflows int32", tag))
	}
	return streamKey(uint32(src))<<32 | streamKey(uint32(tag))
}

type message struct {
	payload []float64
	bytes   int
	depart  float64
	link    cluster.Link
}

// msgQueue is one (source, tag) FIFO stream. Popped slots keep their
// backing array, so a steady-state stream enqueues without
// allocating.
type msgQueue struct {
	buf  []*message
	head int
}

func (q *msgQueue) empty() bool { return q.head == len(q.buf) }

func (q *msgQueue) push(m *message) { q.buf = append(q.buf, m) }

func (q *msgQueue) pop() *message {
	m := q.buf[q.head]
	q.buf[q.head] = nil
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	return m
}

// world is one simulated job: a machine plus n ranks, built by Run and
// dropped when it returns. Only the currently running rank touches a
// world's state — the cooperative scheduler serialises all access, so
// nothing here is locked.
type world struct {
	machine *cluster.Machine
	n       int
	queues  []map[streamKey]*msgQueue // per-destination (src, tag) streams
	coll    *collective
	sched   *sched
	ranks   []Rank

	// collBytes accumulates collective traffic estimates, charged by
	// the rank that completes each rendezvous. Point-to-point volume
	// lives in per-rank counters; Run merges both at completion.
	collBytes int64
	// msgFree recycles message envelopes within the run.
	msgFree []*message
	// payloadFree recycles payload buffers by power-of-two capacity
	// class (bucket b holds buffers with cap >= 1<<b), so hot paths
	// that ship freshly built payloads every iteration — halo
	// exchanges inside solver loops — run allocation-free in steady
	// state: the sender acquires a buffer, SendOwned hands it to the
	// receiver, and the receiver donates it back after consuming the
	// values. Only the running rank touches the free lists, so no
	// locking is needed.
	payloadFree [28][][]float64
}

func (w *world) newMessage() *message {
	if k := len(w.msgFree); k > 0 {
		m := w.msgFree[k-1]
		w.msgFree = w.msgFree[:k-1]
		return m
	}
	return new(message)
}

func (w *world) freeMessage(m *message) {
	m.payload = nil
	w.msgFree = append(w.msgFree, m)
}

// Rank is the handle a rank program uses for all simulated
// operations. It must only be used from within that rank's program.
type Rank struct {
	world *world
	id    int
	clock float64
	comp  float64
	wait  float64
	bytes int64 // point-to-point bytes sent by this rank
	msgs  int64 // point-to-point messages sent by this rank
}

// ID returns the rank number in [0, Size).
func (r *Rank) ID() int { return r.id }

// Size returns the number of ranks in the world.
func (r *Rank) Size() int { return r.world.n }

// Run executes body on n simulated ranks of machine m and returns the
// job statistics. n must not exceed m.Procs(): ranks map to
// processors node-major. The calling goroutine drives the ranks, one
// at a time, until all have returned. A panic in any rank program
// aborts the whole world and is returned as an error. An application
// deadlock (a receive with no matching send, a collective some rank
// never joins) is detected the moment no rank can make progress and
// returned immediately as an error naming the blocked ranks.
// runtime.Goexit in a rank program (t.Fatal in a test) ends the calling
// goroutine. However Run ends, no rank coroutine outlives it.
func Run(m *cluster.Machine, n int, body func(r *Rank)) (Stats, error) {
	if err := m.Validate(); err != nil {
		return Stats{}, err
	}
	if n <= 0 || n > m.Procs() {
		return Stats{}, fmt.Errorf("simmpi: %d ranks on %s (%d processors)", n, m, m.Procs())
	}
	w := &world{machine: m, n: n, queues: make([]map[streamKey]*msgQueue, n), ranks: make([]Rank, n)}
	for i := range w.ranks {
		w.queues[i] = make(map[streamKey]*msgQueue)
		w.ranks[i] = Rank{world: w, id: i}
	}
	w.coll = newCollective(w)
	w.sched = newSched(w, body)
	defer w.sched.stopAll()
	if err := w.sched.run(); err != nil {
		return Stats{}, err
	}

	st := Stats{
		RankClocks:  make([]float64, n),
		ComputeTime: make([]float64, n),
		WaitTime:    make([]float64, n),
		BytesSent:   w.collBytes,
	}
	for i := range w.ranks {
		r := &w.ranks[i]
		st.RankClocks[i] = r.clock
		st.ComputeTime[i] = r.comp
		st.WaitTime[i] = r.wait
		st.BytesSent += r.bytes
		st.Messages += r.msgs
		if r.clock > st.Time {
			st.Time = r.clock
		}
	}
	return st, nil
}

// Compute advances the rank's clock by the time needed to execute the
// given number of floating-point operations on this rank's processor.
func (r *Rank) Compute(flops float64) {
	if flops < 0 {
		panic(fmt.Sprintf("simmpi: negative work %v", flops))
	}
	dt := flops / r.world.machine.SpeedOf(r.id)
	r.clock += dt
	r.comp += dt
}

// Sleep advances the rank's clock by dt seconds without counting it
// as compute (I/O stalls, fixed software overheads).
func (r *Rank) Sleep(dt float64) {
	if dt < 0 {
		panic(fmt.Sprintf("simmpi: negative sleep %v", dt))
	}
	r.clock += dt
}

// SendOwned posts data to dst under tag. The send is eager and
// non-blocking: the sender pays only the link injection overhead.
// Message size is 8 bytes per element. Ownership of data transfers to
// the machine (and eventually to the receiver returned by Recv), so
// the caller must not touch data afterwards: simulators on the hot
// path ship freshly built payloads allocation-free.
func (r *Rank) SendOwned(dst, tag int, data []float64) {
	r.send(dst, tag, data, 8*len(data))
}

// AcquireBuf returns a payload buffer of length n from the world's
// recycled-payload free lists, allocating only when no recycled
// buffer of sufficient capacity exists. Contents are unspecified: the
// caller must overwrite every element before the values are read.
// Intended for payloads built fresh every iteration and shipped with
// SendOwned; the receiver donates them back with ReleaseBuf after
// consuming the values, closing an allocation-free cycle.
func (r *Rank) AcquireBuf(n int) []float64 {
	if n <= 0 {
		return nil
	}
	b := bits.Len(uint(n - 1)) // ceil(log2 n): bucket b holds cap >= 1<<b
	if b >= len(r.world.payloadFree) {
		return make([]float64, n)
	}
	free := &r.world.payloadFree[b]
	if k := len(*free); k > 0 {
		buf := (*free)[k-1]
		(*free)[k-1] = nil
		*free = (*free)[:k-1]
		return buf[:n]
	}
	return make([]float64, n, 1<<b)
}

// ReleaseBuf donates buf to the world's recycled-payload free lists.
// The caller must own buf exclusively — typically it is a payload
// returned by Recv that the program will never reference again, or a
// buffer from AcquireBuf that was never sent. Releasing a buffer that
// is still referenced elsewhere corrupts a later acquirer.
//
// The free lists grow to the high-water buffer count, then reuse
// capacity.
func (r *Rank) ReleaseBuf(buf []float64) {
	c := cap(buf)
	if c == 0 {
		return
	}
	b := bits.Len(uint(c)) - 1 // floor(log2 cap): every entry keeps cap >= 1<<b
	if b >= len(r.world.payloadFree) {
		b = len(r.world.payloadFree) - 1
	}
	free := &r.world.payloadFree[b]
	*free = append(*free, buf[:c])
}

// SendBytes posts a payload-free message of the given size: the
// receiver observes only its timing cost. Used by simulators that
// model data movement without carrying values.
func (r *Rank) SendBytes(dst, tag, bytes int) {
	r.send(dst, tag, nil, bytes)
}

// send creates a stream's msgQueue once per (src, tag) pair, and it
// lives for the run; messages recycle through newMessage and
// freeMessage.
func (r *Rank) send(dst, tag int, payload []float64, bytes int) {
	w := r.world
	if dst < 0 || dst >= w.n {
		panic(fmt.Sprintf("simmpi: rank %d sends to invalid rank %d", r.id, dst))
	}
	if dst == r.id {
		panic(fmt.Sprintf("simmpi: rank %d sends to itself", r.id))
	}
	if bytes < 0 {
		panic(fmt.Sprintf("simmpi: negative message size %d", bytes))
	}
	link := w.machine.LinkBetween(r.id, dst)
	r.clock += link.Overhead
	m := w.newMessage()
	m.payload, m.bytes, m.depart, m.link = payload, bytes, r.clock, link

	key := makeStreamKey(r.id, tag)
	q := w.queues[dst][key]
	if q == nil {
		q = new(msgQueue)
		w.queues[dst][key] = q
	}
	q.push(m)
	r.bytes += int64(bytes)
	r.msgs++

	// Direct wakeup: a destination parked on exactly this (src, tag)
	// stream becomes runnable. The send itself never yields — the
	// sender continues.
	s := w.sched
	if s.state[dst] == stateBlocked {
		if wr := &s.wait[dst]; wr.kind == waitRecv && wr.src == r.id && wr.tag == tag {
			s.unblock(dst)
		}
	}
}

// Recv blocks until a message from src under tag is available,
// advances the clock to the message arrival time, and returns the
// payload (nil for SendBytes messages). If the message was already
// posted, Recv consumes it without yielding.
func (r *Rank) Recv(src, tag int) []float64 {
	w := r.world
	if src < 0 || src >= w.n {
		panic(fmt.Sprintf("simmpi: rank %d receives from invalid rank %d", r.id, src))
	}
	key := makeStreamKey(src, tag)
	q := w.queues[r.id][key]
	if q == nil || q.empty() {
		w.sched.block(r.id, waitRecord{kind: waitRecv, src: src, tag: tag})
		// The matching send created the stream before unblocking us.
		q = w.queues[r.id][key]
	}
	m := q.pop()

	r.clock, r.wait = waitUntil(r.clock, r.wait, arriveAt(m.depart, m.link.Latency, transfer(m.link, m.bytes)))
	payload := m.payload
	w.freeMessage(m)
	return payload
}

// The charging rules both executors apply: transfer and arriveAt
// price a message, and waitUntil advances a rank to a receive's
// arrival or a collective's exit.

// transfer is the time a message of the given size spends on link.
func transfer(link cluster.Link, bytes int) float64 { return float64(bytes) / link.Bandwidth }

// arriveAt is when a message that left its sender at depart reaches its
// receiver over a link of that latency, spending wire on the link.
func arriveAt(depart, latency, wire float64) float64 { return depart + latency + wire }

// waitUntil returns a rank's clock and wait after it waits for time t:
// a later t advances the clock to it and charges the gap as wait.
func waitUntil(clock, wait, t float64) (float64, float64) {
	if t > clock {
		return t, wait + (t - clock)
	}
	return clock, wait
}
