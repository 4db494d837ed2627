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
// (transfer, arriveAt, waitUntil, treeCharge, exitAt) with the same float operations
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
//
// A run prices each operation once: PriceWork and PriceExchange turn a
// Compute or an Exchange into what it adds to each rank, stored in a
// slot of the job, and AllreduceBytes and Barrier keep one tree cost
// per byte count. Compute and Exchange then only add and compare, with
// the float operations Rank.Compute and Rank.Recv perform, in the same
// per-rank order. The slots are reset with the job and pooled with it.
type Lockstep struct {
	m *cluster.Machine
	n int
	// gen tells this run's slots from those of the runs the pooled job
	// ran before: a handle of another run is refused.
	gen uint64
	// buf backs the four per-rank vectors below; a pooled job keeps it.
	buf               []float64
	clock, comp, wait []float64
	speed             []float64 // speed[i] is m.SpeedOf(i)
	node              []int     // node[i] is m.NodeOf(i)

	// The pricing slots. Work slot w is dts[w·n:(w+1)·n]; exchange slot
	// x is exchanges[x], a window of edges in ascending order of source.
	// trees holds one tree cost per byte count.
	dts       []float64
	edges     []edge
	exchanges []exchangeSlot
	trees     []treeSlot
	// depart is Exchange's scratch: each message's departure, in the
	// order of its slot's edges.
	depart []float64

	collBytes, p2pBytes, msgs int64
}

// edge is one priced message of an exchange: its sender and receiver
// and the three terms its departure and arrival add.
type edge struct {
	src, dst                    int32
	overhead, latency, transfer float64
}

// exchangeSlot is one priced Exchange: its edge window and what it
// adds to the job's message and byte counts.
type exchangeSlot struct {
	lo, hi      int // edges[lo:hi]
	bytes, msgs int64
}

// treeSlot is a tree collective priced for one payload size.
type treeSlot struct {
	bytes   int
	cost    float64
	traffic int64
}

// PricedWork is a Compute priced for one job by PriceWork.
type PricedWork struct {
	job  *Lockstep
	gen  uint64
	slot int
}

// PricedExchange is an Exchange priced for one job by PriceExchange.
type PricedExchange struct {
	job  *Lockstep
	gen  uint64
	slot int
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

// reset sizes a pooled Lockstep for an n-rank job on m. The per-rank
// vectors grow to the largest job a pooled Lockstep has run, then
// reuse capacity.
func (l *Lockstep) reset(m *cluster.Machine, n int) {
	if cap(l.buf) < 4*n {
		l.buf = make([]float64, 4*n)
	}
	b := l.buf[:4*n]
	clear(b[:3*n])
	l.clock, l.comp, l.wait, l.speed = b[:n:n], b[n:2*n:2*n], b[2*n:3*n:3*n], b[3*n:]
	if cap(l.node) < n {
		l.node = make([]int, n)
	}
	l.node = l.node[:n]
	for i := range l.speed {
		l.speed[i], l.node[i] = m.SpeedOf(i), m.NodeOf(i)
	}
	l.m, l.n = m, n
	l.gen++
	l.dts, l.edges = l.dts[:0], l.edges[:0]
	l.exchanges, l.trees = l.exchanges[:0], l.trees[:0]
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

// PriceWork prices floating-point work on every rank: rank i performs
// work[i]·per flops, or per flops on every rank when work is nil.
// Compute charges it as Rank.Compute charges that count. work is read
// only during the call.
//
// A job's work slots grow to the most pricings a pooled Lockstep has
// held, then reuse capacity.
func (l *Lockstep) PriceWork(work []float64, per float64) PricedWork {
	if work != nil && len(work) != l.n {
		panic(fmt.Sprintf("simmpi: work for %d ranks in a job of %d", len(work), l.n))
	}
	// The slot joins the job only once it is whole: a refused pricing
	// leaves the job as it was.
	w := PricedWork{job: l, gen: l.gen, slot: len(l.dts) / l.n}
	dts := l.dts
	for i, s := range l.speed {
		flops := per
		if work != nil {
			flops = work[i] * per
		}
		if flops < 0 {
			panic(fmt.Sprintf("simmpi: negative work %v", flops))
		}
		dts = append(dts, flops/s)
	}
	l.dts = dts
	return w
}

// Compute has every rank execute the work w prices, charging what
// Rank.Compute charges for that count.
func (l *Lockstep) Compute(w PricedWork) {
	if w.job != l || w.gen != l.gen {
		panic("simmpi: work priced for another job")
	}
	clock := l.clock
	dt, comp := l.dts[w.slot*l.n:][:len(clock)], l.comp[:len(clock)]
	for i, d := range dt {
		clock[i] += d
		comp[i] += d
	}
}

// Sleep advances every rank's clock by dt seconds without counting it
// as compute, as Rank.Sleep does.
func (l *Lockstep) Sleep(dt float64) {
	if dt < 0 {
		panic(fmt.Sprintf("simmpi: negative sleep %v", dt))
	}
	clock := l.clock
	for i := range clock {
		clock[i] += dt
	}
}

// NeighbourPattern is a frozen point-to-point exchange among
// len(Start)-1 ranks, stored sparse: rank src sends one message of
// Bytes[k] bytes per field to rank Dst[k] for k in [Start[src],
// Start[src+1]), destinations strictly ascending and never src itself.
type NeighbourPattern struct {
	Start, Dst, Bytes []int
}

// PriceExchange prices one neighbour exchange of fields fields over
// nb, checking the pattern: every rank sends its messages in the
// pattern's order, then receives each message addressed to it in
// ascending order of source. nb is read only during the call.
//
// A job's exchange slots grow to the most pricings a pooled Lockstep
// has held, then reuse capacity.
func (l *Lockstep) PriceExchange(nb *NeighbourPattern, fields int) PricedExchange {
	if len(nb.Start) != l.n+1 {
		panic(fmt.Sprintf("simmpi: neighbour pattern for %d ranks in a job of %d", len(nb.Start)-1, l.n))
	}
	if fields < 0 {
		panic(fmt.Sprintf("simmpi: negative field count %d", fields))
	}
	// As in PriceWork, the slot joins the job only once it is whole.
	x := exchangeSlot{lo: len(l.edges)}
	edges := l.edges
	for src := 0; src < l.n; src++ {
		for k := nb.Start[src]; k < nb.Start[src+1]; k++ {
			dst := nb.Dst[k]
			if dst < 0 || dst >= l.n || dst == src || (k > nb.Start[src] && dst <= nb.Dst[k-1]) || nb.Bytes[k] < 0 {
				panic(fmt.Sprintf("simmpi: neighbour pattern row %d: %d bytes to rank %d", src, nb.Bytes[k], dst))
			}
			link := l.link(src, dst)
			bytes := fields * nb.Bytes[k]
			edges = append(edges, edge{src: int32(src), dst: int32(dst), overhead: link.Overhead, latency: link.Latency, transfer: transfer(link, bytes)})
			x.bytes += int64(bytes)
		}
	}
	x.hi = len(edges)
	x.msgs = int64(x.hi - x.lo)
	l.edges = edges
	l.exchanges = append(l.exchanges, x)
	if cap(l.depart) < x.hi-x.lo {
		l.depart = make([]float64, x.hi-x.lo)
	}
	return PricedExchange{job: l, gen: l.gen, slot: len(l.exchanges) - 1}
}

// Exchange performs the neighbour exchange x prices. It charges what
// a rank program calling SendBytes over its out-edges and then Recv
// over its in-edges charges on the coroutine engine.
func (l *Lockstep) Exchange(x PricedExchange) {
	if x.job != l || x.gen != l.gen {
		panic("simmpi: exchange priced for another job")
	}
	s := l.exchanges[x.slot]
	edges := l.edges[s.lo:s.hi]
	depart := l.depart[:len(edges)]
	clock := l.clock
	wait := l.wait[:len(clock)]
	// Sends never block: each rank pays its injection overheads in
	// pattern order, and a message departs just after its own.
	src, c := int32(-1), 0.0
	for k, e := range edges {
		if e.src != src {
			if src >= 0 {
				clock[src] = c
			}
			src, c = e.src, clock[e.src]
		}
		c += e.overhead
		depart[k] = c
	}
	if src >= 0 {
		clock[src] = c
	}
	// Receives, in the edges' order, ascending by source, so that each
	// receiver takes its messages in that order.
	for k, e := range edges {
		d := int(e.dst)
		clock[d], wait[d] = waitUntil(clock[d], wait[d], arriveAt(depart[k], e.latency, e.transfer))
	}
	l.p2pBytes += s.bytes
	l.msgs += s.msgs
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
func (l *Lockstep) Barrier() { l.tree(0) }

// AllreduceBytes charges what Rank.AllreduceBytes charges for an
// allreduce of that many bytes; an 8-byte one is what Rank.Allreduce1
// charges.
func (l *Lockstep) AllreduceBytes(bytes int) {
	if bytes < 0 {
		panic(fmt.Sprintf("simmpi: negative message size %d", bytes))
	}
	l.tree(bytes)
}

// tree charges a tree collective moving bytes per stage, priced once
// per byte count in the job.
//
// A job keeps one slot per payload size it has reduced, a handful per
// run.
func (l *Lockstep) tree(bytes int) {
	k := 0
	for k < len(l.trees) && l.trees[k].bytes != bytes {
		k++
	}
	if k == len(l.trees) {
		cost, traffic := treeCharge(l.m, l.n, bytes)
		l.trees = append(l.trees, treeSlot{bytes: bytes, cost: cost, traffic: traffic})
	}
	ts := l.trees[k]
	t := maxOf(l.clock) + ts.cost
	l.collBytes += ts.traffic
	for i, c := range l.clock {
		l.clock[i], l.wait[i] = waitUntil(c, l.wait[i], t)
	}
}

// AlltoallvPriced performs the personalised all-to-all of a frozen
// pattern priced for this job's machine, charging what
// Rank.AlltoallvBytesRow charges over the pattern's dense rows.
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
