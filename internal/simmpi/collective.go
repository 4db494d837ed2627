package simmpi

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"harmony/internal/cluster"
)

// The collective cost policy: TreeCost and the all-to-all pieces below
// (reached through AlltoallvExits and AlltoallvPattern.Price) are the
// only place the repository prices a collective. The rendezvous below
// and the lockstep executor charge through them and the POP and SLES
// predictors call TreeCost, so simulator and surrogate cannot drift
// apart.

// worstLink returns the most expensive link class a collective over n
// ranks of m uses: the inter-node link when the ranks span several
// nodes, otherwise the intra-node link.
func worstLink(m *cluster.Machine, n int) cluster.Link {
	if n > m.PPN {
		return m.Inter
	}
	return m.Intra
}

// log2ceil is the stage count of a binomial tree over n ranks.
func log2ceil(n int) float64 {
	if n <= 1 {
		return 0
	}
	return math.Ceil(math.Log2(float64(n)))
}

// TreeCost models a binomial-tree collective over n ranks of m moving
// bytes per stage on the worst link class in use: what Barrier
// (bytes 0), Allreduce1 (8) and AllreduceBytes charge on top of the
// latest arrival.
func TreeCost(m *cluster.Machine, n, bytes int) float64 {
	l := worstLink(m, n)
	return log2ceil(n) * (l.Latency + l.Overhead + float64(bytes)/l.Bandwidth)
}

// AlltoallvScratch is the per-rank accumulator space AlltoallvExits
// works in. The caller owns it, so pricing an exchange allocates
// nothing: a world keeps one for its run.
type AlltoallvScratch struct {
	recvBytes []int // inbound bytes per rank, valid until the next call
	recvTime  []float64
	sendTime  []float64
	msgs      []int // messages touched per rank
	interNode float64
	total     int64
	// What settle leaves: each rank's serialisation cost (the larger of
	// its inbound, outbound and bisection times) and its per-message
	// overheads, the two per-rank terms of an exit.
	cost, mo []float64
}

// NewAlltoallvScratch returns scratch for exchanges among n ranks.
func NewAlltoallvScratch(n int) *AlltoallvScratch {
	return &AlltoallvScratch{
		recvBytes: make([]int, n),
		recvTime:  make([]float64, n),
		sendTime:  make([]float64, n),
		msgs:      make([]int, n),
		cost:      make([]float64, n),
		mo:        make([]float64, n),
	}
}

// priceScratch pools the accumulators AlltoallvPattern.Price works in.
// The per-rank terms a pricing keeps, cost and mo, are its own.
var priceScratch = sync.Pool{New: func() any { return new(AlltoallvScratch) }}

// The cost model of an all-to-all is two pieces that every pricing
// path shares, so the same float operations run in the same order
// whether an exchange is priced from dense rows at the rendezvous or
// once, from a frozen sparse pattern, per machine: begin, addRow over
// the sources in ascending order, and settle accumulate each rank's
// terms; exitAt turns them into exit clocks.

// begin clears the accumulators of the first n ranks.
func (sc *AlltoallvScratch) begin(n int) {
	for i := 0; i < n; i++ {
		sc.recvBytes[i], sc.recvTime[i], sc.sendTime[i], sc.msgs[i] = 0, 0, 0, 0
	}
	sc.interNode, sc.total = 0, 0
}

// addRow charges source src's entries: bytes[k] bytes to rank dst[k],
// or to rank k when dst is nil (a dense row). Self and zero entries
// are ignored. Callers visit sources in ascending order, each with its
// destinations ascending: per-rank float accumulation must stay a pure
// function of rank numbering or repeated runs diverge bitwise. A
// sparse row's destinations must ascend strictly within [0, n).
func (sc *AlltoallvScratch) addRow(m *cluster.Machine, n, src int, dst, bytes []int) {
	srcNode := m.NodeOf(src)
	for k, b := range bytes {
		d := k
		if dst != nil {
			if d = dst[k]; d < 0 || d >= n || (k > 0 && d <= dst[k-1]) {
				panic(fmt.Sprintf("simmpi: alltoallv pattern row %d: destination %d out of order", src, d))
			}
		}
		if b <= 0 || d == src {
			if b < 0 {
				panic(fmt.Sprintf("simmpi: alltoallv negative size %d", b))
			}
			continue
		}
		bw, inter := m.Intra.Bandwidth, m.NodeOf(d) != srcNode
		if inter {
			bw = m.Inter.Bandwidth
		}
		dt := float64(b) / bw
		sc.recvTime[d] += dt
		sc.sendTime[src] += dt
		sc.recvBytes[d] += b
		sc.msgs[src]++
		sc.msgs[d]++
		sc.total += int64(b)
		if inter {
			sc.interNode += float64(b)
		}
	}
}

// settle fills cost and mo for the first n ranks and returns the
// exchange's latency term.
func (sc *AlltoallvScratch) settle(m *cluster.Machine, n int) (lat float64) {
	link := worstLink(m, n)
	// The switch's bisection caps aggregate inter-node flow:
	// a dense exchange cannot finish before the fabric has
	// carried it, regardless of per-rank parallelism.
	congestion := sc.interNode / m.Bisection()
	for i := 0; i < n; i++ {
		cost := sc.recvTime[i]
		if sc.sendTime[i] > cost {
			cost = sc.sendTime[i]
		}
		if congestion > cost {
			cost = congestion
		}
		sc.cost[i] = cost
		sc.mo[i] = float64(sc.msgs[i]) * link.Overhead
	}
	return link.Latency * log2ceil(n)
}

// exitAt is the clock at which a rank with serialisation cost cost and
// message overheads mo leaves an all-to-all whose latency term is lat
// and whose last participant arrived at base.
func exitAt(base, lat, cost, mo float64) float64 { return base + lat + cost + mo }

// treeCharge is what a tree collective over n ranks of m moving bytes
// per stage charges: every rank leaves cost after the last arrival,
// and the collective moves traffic bytes.
func treeCharge(m *cluster.Machine, n, bytes int) (cost float64, traffic int64) {
	return TreeCost(m, n, bytes), int64(bytes * int(log2ceil(n)))
}

// AlltoallvExits prices one personalised all-to-all among the first
// len(rows) ranks of m, where rows[src][dst] is the byte count src
// sends dst (self and zero entries are ignored). It writes into
// exits[i] the clock at which rank i leaves an exchange whose last
// participant arrived at base, and returns the total volume moved.
// Each rank's exit is gated by its inbound and outbound serialisation
// on the per-pair links, its per-message injection overheads, and the
// fabric's bisection — the mechanism that makes data-layout choices in
// GS2 and block mappings in POP visible as communication time.
func AlltoallvExits(m *cluster.Machine, rows [][]int, base float64, exits []float64, sc *AlltoallvScratch) (total int64) {
	n := len(rows)
	sc.begin(n)
	for src, row := range rows {
		sc.addRow(m, n, src, nil, row)
	}
	lat := sc.settle(m, n)
	for i, c := range sc.cost[:n] {
		exits[i] = exitAt(base, lat, c, sc.mo[i])
	}
	return sc.total
}

// AlltoallvPattern is a frozen personalised all-to-all among
// len(Start)-1 ranks, stored sparse: source rank src sends Bytes[k]
// bytes to rank Dst[k] for k in [Start[src], Start[src+1]), with
// destinations strictly ascending within a source. It must not change
// once priced. Price charges it exactly as AlltoallvExits charges the
// dense rows holding the same entries.
type AlltoallvPattern struct {
	Start, Dst, Bytes []int

	// priced holds the pattern priced for the last machine asked for.
	priced atomic.Pointer[PricedAlltoallv]
}

// priceKey is every machine property the all-to-all cost model reads,
// for an exchange among n ranks: node membership (PPN), the two link
// classes, and the bisection.
type priceKey struct {
	n, ppn       int
	intra, inter cluster.Link
	bisection    float64
}

func priceKeyOf(m *cluster.Machine, n int) priceKey {
	return priceKey{n: n, ppn: m.PPN, intra: m.Intra, inter: m.Inter, bisection: m.Bisection()}
}

// PricedAlltoallv is an AlltoallvPattern priced for one machine: what
// the exchange charges each rank on top of the latest arrival, read by
// Lockstep.AlltoallvPriced. It is immutable, so concurrent jobs share
// it freely.
type PricedAlltoallv struct {
	key      priceKey
	lat      float64
	cost, mo []float64
	total    int64
}

// Price returns the pattern priced for m. The pattern keeps the last
// pricing and returns it while the machine's cost-relevant fields are
// unchanged; any other machine re-prices it, at O(ranks + entries).
// It is safe for concurrent use.
func (pt *AlltoallvPattern) Price(m *cluster.Machine) *PricedAlltoallv {
	n := len(pt.Start) - 1
	key := priceKeyOf(m, n)
	if pr := pt.priced.Load(); pr != nil && pr.key == key {
		return pr
	}
	if n < 0 || len(pt.Dst) != len(pt.Bytes) || pt.Start[n] != len(pt.Dst) {
		panic(fmt.Sprintf("simmpi: alltoallv pattern has %d row starts for %d destinations and %d sizes", len(pt.Start), len(pt.Dst), len(pt.Bytes)))
	}
	sc := priceScratch.Get().(*AlltoallvScratch)
	defer priceScratch.Put(sc)
	if len(sc.msgs) < n {
		sc.recvBytes, sc.recvTime, sc.sendTime, sc.msgs = make([]int, n), make([]float64, n), make([]float64, n), make([]int, n)
	}
	sc.cost, sc.mo = make([]float64, n), make([]float64, n)
	sc.begin(n)
	for src := 0; src < n; src++ {
		lo, hi := pt.Start[src], pt.Start[src+1]
		sc.addRow(m, n, src, pt.Dst[lo:hi], pt.Bytes[lo:hi])
	}
	lat := sc.settle(m, n)
	pr := &PricedAlltoallv{key: key, lat: lat, cost: sc.cost, mo: sc.mo, total: sc.total}
	sc.cost, sc.mo = nil, nil
	pt.priced.Store(pr)
	return pr
}

// collKind names one of the closed set of collective operations.
type collKind uint8

const (
	collBarrier collKind = iota
	collAllreduce1
	collAllreduceBytes
	collAlltoallv
)

func (k collKind) String() string {
	return [...]string{"barrier", "allreduce1", "allreducebytes", "alltoallv"}[k]
}

// collective is the rendezvous behind all collective operations.
// Every rank must call the same sequence of collectives (SPMD
// discipline); a mismatch is detected and reported as an application
// bug.
//
// Under the cooperative scheduler the rendezvous needs no lock: each
// arriving rank records its input and parks; the last arrival runs
// the combine, publishes per-rank exits and the result, and marks the
// parked ranks runnable before continuing. A resumed rank consumes
// its own slot before it can possibly arrive at the next rendezvous,
// so the scratch below is safely reused for the whole run.
type collective struct {
	w *world

	// What is in progress, recorded at the first arrival and checked
	// at every later one. op is the reduction operator of an
	// allreduce1 and Sum for every other kind.
	arrived int
	kind    collKind
	op      Op

	arrivals []float64
	in       []float64 // per-rank scalar input: allreduce1 value, allreducebytes size
	exits    []float64
	out      float64 // allreduce1 result, uniform across ranks

	// Dense alltoallv send plans: one row per rank (send[dst] = bytes),
	// priced at the combine. A row belongs to its caller, who is parked
	// inside the call until the combine has read it; the combine drops
	// the reference.
	rows [][]int
	a2a  *AlltoallvScratch
}

func newCollective(w *world) *collective {
	return &collective{
		w:        w,
		arrivals: make([]float64, w.n),
		in:       make([]float64, w.n),
		exits:    make([]float64, w.n),
		rows:     make([][]int, w.n),
		a2a:      NewAlltoallvScratch(w.n),
	}
}

// rendezvous runs one collective of the given kind for rank r: it
// records the arrival with the rank's scalar input x, parks until the
// last rank has arrived (which runs the combine and wakes the rest),
// and advances the clock to the rank's exit.
func (c *collective) rendezvous(r *Rank, kind collKind, op Op, x float64) {
	if c.arrived == 0 {
		c.kind, c.op = kind, op
	} else if c.kind != kind {
		panic(fmt.Sprintf("simmpi: collective mismatch: rank %d calls %s while %s in progress", r.id, kind, c.kind))
	} else if c.op != op {
		panic(fmt.Sprintf("simmpi: collective mismatch: rank %d calls %s with %s while %s in progress", r.id, kind, op, c.op))
	}
	c.arrivals[r.id] = r.clock
	c.in[r.id] = x
	c.arrived++
	if c.arrived == c.w.n {
		c.combine()
		// Retire the rendezvous and mark every parked participant
		// runnable. A combine that panics (an application bug) skips
		// this: the run fails with it.
		c.arrived = 0
		s := c.w.sched
		for i, st := range s.state {
			if st == stateBlocked && s.wait[i].kind == waitColl {
				s.unblock(i)
			}
		}
	} else {
		c.w.sched.block(r.id, waitRecord{kind: waitColl, coll: kind})
	}
	r.clock, r.wait = waitUntil(r.clock, r.wait, c.exits[r.id])
}

// combine computes, once all ranks have arrived, the per-rank exit
// clocks (and the allreduce1 result) from the per-rank inputs and
// arrival clocks, and charges the collective's traffic estimate.
func (c *collective) combine() {
	w := c.w
	base := maxOf(c.arrivals)
	if c.kind == collAlltoallv {
		w.collBytes += AlltoallvExits(w.machine, c.rows, base, c.exits, c.a2a)
		clear(c.rows)
		return
	}
	// The tree collectives differ only in the payload they move.
	var bytes int
	switch c.kind {
	case collAllreduce1:
		c.out = combineScalars(c.op, c.in)
		bytes = 8
	case collAllreduceBytes:
		for i, b := range c.in {
			if b != c.in[0] {
				panic(fmt.Sprintf("simmpi: allreduce size mismatch: rank 0 has %v, rank %d has %v", c.in[0], i, b))
			}
		}
		bytes = int(c.in[0])
	}
	cost, traffic := treeCharge(w.machine, w.n, bytes)
	t := base + cost
	w.collBytes += traffic
	for i := range c.exits {
		c.exits[i] = t
	}
}

// combineScalars folds xs under op, rank 0 upwards. The operator
// switch is hoisted out of the element loop: one branch per call, not
// per element. Max and min go through math.Max/math.Min so NaN and signed-
// zero handling stay bit-identical to the historical per-element
// Op.apply path.
func combineScalars(op Op, xs []float64) float64 {
	acc := xs[0]
	switch op {
	case Sum:
		for _, x := range xs[1:] {
			acc += x
		}
	case Max:
		for _, x := range xs[1:] {
			acc = math.Max(acc, x)
		}
	case minOp:
		for _, x := range xs[1:] {
			acc = math.Min(acc, x)
		}
	default:
		panic(fmt.Sprintf("simmpi: unknown op %d", int(op)))
	}
	return acc
}

func maxOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Barrier synchronises all ranks: every clock advances to the latest
// arrival plus the barrier's tree cost.
func (r *Rank) Barrier() {
	r.world.coll.rendezvous(r, collBarrier, Sum, 0)
}

// Allreduce1 combines each rank's scalar with op and returns the
// result to every rank: arrival synchronisation, the tree cost of an
// 8-byte payload, and the matching bytesSent estimate. Every rank must
// pass the same op.
func (r *Rank) Allreduce1(op Op, x float64) float64 {
	c := r.world.coll
	c.rendezvous(r, collAllreduce1, op, x)
	return c.out
}

// AllreduceBytes is an allreduce of a payload nobody reads: it charges
// what reducing a vector of that many bytes charges (arrival
// synchronisation, tree cost, bytesSent accounting), carrying no
// values. Every rank must pass the same size.
func (r *Rank) AllreduceBytes(bytes int) {
	if bytes < 0 {
		panic(fmt.Sprintf("simmpi: negative message size %d", bytes))
	}
	r.world.coll.rendezvous(r, collAllreduceBytes, Sum, float64(bytes))
}

// AlltoallvBytesRow performs a personalised all-to-all where each rank
// declares only the number of bytes it sends to every other rank:
// send[dst] is the byte count for destination dst, and len(send) must
// equal Size() (self and zero entries are ignored). It returns the
// number of bytes this rank received; AlltoallvExits prices the
// exchange at the rendezvous. The row is read there, in place, and not
// retained after the call returns, so a rank may reuse it at once.
func (r *Rank) AlltoallvBytesRow(send []int) int {
	c := r.world.coll
	if len(send) != c.w.n {
		panic(fmt.Sprintf("simmpi: alltoallv row has %d entries for %d ranks", len(send), c.w.n))
	}
	c.rows[r.id] = send
	c.rendezvous(r, collAlltoallv, Sum, 0)
	return c.a2a.recvBytes[r.id]
}
