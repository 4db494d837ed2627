package simmpi

import (
	"fmt"
	"slices"
	"sync"

	"harmony/internal/cluster"
)

// The lockstep executor.
//
// A rank program that carries no values and never branches on anything
// it receives is one straight-line sequence of operations, fixed by its
// configuration before any rank runs. Such a program needs no
// coroutines: a Lockstep runs it as rank vectors, each operation
// updating every rank's clock, compute and wait entries in one loop on
// the caller's goroutine, with no message queues and no tags. Every
// operation charges through the same helpers as the coroutine engine
// (arrival, waitUntil, treeExit, exitAt) with the same float operations
// in the same per-rank order, so a program yields the same Stats, bit
// for bit, on either executor.
//
// Which executor runs a program is decided by the program, not by an
// option: one that reads a received value or a reduction result, or
// decides anything from one (a KSP or SNES solve), runs on Run's
// coroutines; a straight-line cost program (a POP, GS2 or SLES run)
// runs here.

// Lockstep is one simulated job of n ranks on a machine, driven one
// operation at a time for all ranks at once. A Lockstep is used by one
// goroutine and must not be touched after Release.
type Lockstep struct {
	m *cluster.Machine
	n int
	// buf backs the five per-rank vectors below; a pooled job keeps it.
	buf               []float64
	clock, comp, wait []float64
	speed             []float64 // speed[i] is m.SpeedOf(i)
	pre               []float64 // Exchange: each rank's clock before its sends
	node              []int     // node[i] is m.NodeOf(i)

	collBytes, p2pBytes, msgs int64
}

var lockstepPool = sync.Pool{New: func() any { return new(Lockstep) }}

// AcquireLockstep returns a job of n ranks on m with every clock at
// zero. n must not exceed m.Procs(): ranks map to processors
// node-major. Release returns the job for reuse.
func AcquireLockstep(m *cluster.Machine, n int) (*Lockstep, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if n <= 0 || n > m.Procs() {
		return nil, fmt.Errorf("simmpi: %d ranks on %s (%d processors)", n, m, m.Procs())
	}
	l := lockstepPool.Get().(*Lockstep)
	l.reset(m, n)
	return l, nil
}

//harmonyvet:allocamortized the per-rank vectors grow to the largest job a pooled Lockstep has run, then reuse capacity
func (l *Lockstep) reset(m *cluster.Machine, n int) {
	if cap(l.buf) < 5*n {
		l.buf = make([]float64, 5*n)
	}
	b := l.buf[:5*n]
	clear(b[:3*n])
	l.clock, l.comp, l.wait = b[:n:n], b[n:2*n:2*n], b[2*n:3*n:3*n]
	l.speed, l.pre = b[3*n:4*n:4*n], b[4*n:]
	if cap(l.node) < n {
		l.node = make([]int, n)
	}
	l.node = l.node[:n]
	for i := range l.speed {
		l.speed[i], l.node[i] = m.SpeedOf(i), m.NodeOf(i)
	}
	l.m, l.n = m, n
	l.collBytes, l.p2pBytes, l.msgs = 0, 0, 0
}

// Release returns the job to the pool.
func (l *Lockstep) Release() {
	l.m = nil // a pooled job retains no machine
	lockstepPool.Put(l)
}

// Machine returns the machine the job runs on.
func (l *Lockstep) Machine() *cluster.Machine { return l.m }

// Time returns the job's virtual time so far: the maximum rank clock.
//
//harmonyvet:allocfree
func (l *Lockstep) Time() float64 {
	var t float64
	for _, c := range l.clock {
		if c > t {
			t = c
		}
	}
	return t
}

// Stats returns the job's statistics so far, exactly as Run reports
// them for the same program.
func (l *Lockstep) Stats() Stats {
	return Stats{
		Time:        l.Time(),
		RankClocks:  slices.Clone(l.clock),
		ComputeTime: slices.Clone(l.comp),
		WaitTime:    slices.Clone(l.wait),
		BytesSent:   l.collBytes + l.p2pBytes,
		Messages:    l.msgs,
	}
}

// Compute has every rank execute floating-point work: rank i performs
// work[i]·per flops, or per flops on every rank when work is nil. It
// charges what Rank.Compute charges for that count.
//
//harmonyvet:allocfree
func (l *Lockstep) Compute(work []float64, per float64) {
	if work != nil && len(work) != l.n {
		panic(fmt.Sprintf("simmpi: work for %d ranks in a job of %d", len(work), l.n))
	}
	for i, c := range l.clock {
		flops := per
		if work != nil {
			flops = work[i] * per
		}
		if flops < 0 {
			panic(fmt.Sprintf("simmpi: negative work %v", flops))
		}
		dt := flops / l.speed[i]
		l.clock[i] = c + dt
		l.comp[i] += dt
	}
}

// Sleep advances every rank's clock by dt seconds without counting it
// as compute, as Rank.Sleep does.
//
//harmonyvet:allocfree
func (l *Lockstep) Sleep(dt float64) {
	if dt < 0 {
		panic(fmt.Sprintf("simmpi: negative sleep %v", dt))
	}
	for i := range l.clock {
		l.clock[i] += dt
	}
}

// NeighbourPattern is a frozen point-to-point exchange among
// len(Start)-1 ranks, stored sparse: rank src sends one message of
// Bytes[k] bytes per field to rank Dst[k] for k in [Start[src],
// Start[src+1]), destinations strictly ascending and never src itself.
type NeighbourPattern struct {
	Start, Dst, Bytes []int
}

// Exchange performs one neighbour exchange of fields fields: every rank
// sends its messages in the pattern's order, then receives each
// message addressed to it in ascending order of source. It charges
// what a rank program calling SendBytes over its out-edges and then
// Recv over its in-edges charges on the coroutine engine.
//
//harmonyvet:allocfree
func (l *Lockstep) Exchange(nb *NeighbourPattern, fields int) {
	if len(nb.Start) != l.n+1 {
		panic(fmt.Sprintf("simmpi: neighbour pattern for %d ranks in a job of %d", len(nb.Start)-1, l.n))
	}
	if fields < 0 {
		panic(fmt.Sprintf("simmpi: negative field count %d", fields))
	}
	// Sends never block: each rank pays its injection overheads in
	// order.
	for src, c := range l.clock {
		l.pre[src] = c
		for k := nb.Start[src]; k < nb.Start[src+1]; k++ {
			dst := nb.Dst[k]
			if dst < 0 || dst >= l.n || dst == src || (k > nb.Start[src] && dst <= nb.Dst[k-1]) || nb.Bytes[k] < 0 {
				panic(fmt.Sprintf("simmpi: neighbour pattern row %d: %d bytes to rank %d", src, nb.Bytes[k], dst))
			}
			c += l.link(src, dst).Overhead
		}
		l.clock[src] = c
	}
	// Receives, visited by ascending source so that each receiver takes
	// its messages in that order. A message departs at its sender's
	// clock just after injecting it, replayed from the clock before the
	// sends by the same additions.
	for src := 0; src < l.n; src++ {
		depart := l.pre[src]
		for k := nb.Start[src]; k < nb.Start[src+1]; k++ {
			dst := nb.Dst[k]
			link := l.link(src, dst)
			depart += link.Overhead
			bytes := fields * nb.Bytes[k]
			l.clock[dst], l.wait[dst] = waitUntil(l.clock[dst], l.wait[dst], arrival(depart, link, bytes))
			l.p2pBytes += int64(bytes)
		}
	}
	l.msgs += int64(nb.Start[l.n] - nb.Start[0])
}

// link is m.LinkBetween(src, dst), read from the node numbers reset
// cached instead of dividing by the node size on every message.
func (l *Lockstep) link(src, dst int) cluster.Link {
	if l.node[src] == l.node[dst] {
		return l.m.Intra
	}
	return l.m.Inter
}

// Barrier synchronises all ranks, charging what Rank.Barrier charges.
//
//harmonyvet:allocfree
func (l *Lockstep) Barrier() { l.tree(0) }

// AllreduceBytes charges what Rank.AllreduceBytes charges for an
// allreduce of that many bytes; an 8-byte one is what Rank.Allreduce1
// charges.
//
//harmonyvet:allocfree
func (l *Lockstep) AllreduceBytes(bytes int) {
	if bytes < 0 {
		panic(fmt.Sprintf("simmpi: negative message size %d", bytes))
	}
	l.tree(bytes)
}

func (l *Lockstep) tree(bytes int) {
	t, traffic := treeExit(l.m, l.n, bytes, maxOf(l.clock))
	l.collBytes += traffic
	for i, c := range l.clock {
		l.clock[i], l.wait[i] = waitUntil(c, l.wait[i], t)
	}
}

// AlltoallvPriced performs the personalised all-to-all of a frozen
// pattern priced for this job's machine, charging what
// Rank.AlltoallvBytesRow charges over the pattern's dense rows.
//
//harmonyvet:allocfree
func (l *Lockstep) AlltoallvPriced(pr *PricedAlltoallv) {
	if pr.key != priceKeyOf(l.m, l.n) {
		panic(fmt.Sprintf("simmpi: alltoallv priced for another machine than %s with %d ranks", l.m, l.n))
	}
	base := maxOf(l.clock)
	for i, c := range l.clock {
		l.clock[i], l.wait[i] = waitUntil(c, l.wait[i], exitAt(base, pr.lat, pr.cost[i], pr.mo[i]))
	}
	l.collBytes += pr.total
}
