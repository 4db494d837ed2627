package simmpi

import (
	"fmt"
	"math"

	"harmony/internal/cluster"
)

// The collective cost policy: TreeCost and AlltoallvExits are the only
// place the repository prices a collective. The rendezvous below
// charges through them and the analytic predictors of
// internal/surrogate call them, so simulator and surrogate cannot
// drift apart.

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
// nothing: a world keeps one for its pooled lifetime, a predictor one
// per prediction.
type AlltoallvScratch struct {
	recvBytes []int // inbound bytes per rank, valid until the next call
	recvTime  []float64
	sendTime  []float64
	msgs      []int // messages touched per rank
}

// NewAlltoallvScratch returns scratch for exchanges among n ranks.
func NewAlltoallvScratch(n int) *AlltoallvScratch {
	return &AlltoallvScratch{
		recvBytes: make([]int, n),
		recvTime:  make([]float64, n),
		sendTime:  make([]float64, n),
		msgs:      make([]int, n),
	}
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
	lat := worstLink(m, n).Latency * log2ceil(n)
	overhead := worstLink(m, n).Overhead
	var interNode float64
	recvBytes, recvTime, sendTime, msgs := sc.recvBytes, sc.recvTime, sc.sendTime, sc.msgs
	for i := 0; i < n; i++ {
		recvBytes[i], recvTime[i], sendTime[i], msgs[i] = 0, 0, 0, 0
	}
	// Destinations are visited in increasing rank order: per-rank
	// float accumulation must stay a pure function of rank numbering
	// or repeated runs diverge bitwise.
	for src, row := range rows {
		for dst, b := range row {
			if b <= 0 || dst == src {
				if b < 0 {
					panic(fmt.Sprintf("simmpi: alltoallv negative size %d", b))
				}
				continue
			}
			link := m.LinkBetween(src, dst)
			dt := float64(b) / link.Bandwidth
			recvTime[dst] += dt
			sendTime[src] += dt
			recvBytes[dst] += b
			msgs[src]++
			msgs[dst]++
			total += int64(b)
			if !m.SameNode(src, dst) {
				interNode += float64(b)
			}
		}
	}
	// The switch's bisection caps aggregate inter-node flow:
	// a dense exchange cannot finish before the fabric has
	// carried it, regardless of per-rank parallelism.
	congestion := interNode / m.Bisection()
	for i := 0; i < n; i++ {
		cost := recvTime[i]
		if sendTime[i] > cost {
			cost = sendTime[i]
		}
		if congestion > cost {
			cost = congestion
		}
		exits[i] = base + lat + cost + float64(msgs[i])*overhead
	}
	return total
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
// so the scratch below is safely reused for the whole life of a world
// — and, through the world pool, across runs.
type collective struct {
	w *World

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

	// alltoallv send plans: one dense row per rank (send[dst] =
	// bytes), which keeps the O(n²) combine loop free of map hashing.
	// A row belongs to its caller, who is parked inside the call until
	// the combine has read it; the combine drops the reference.
	rows [][]int
	a2a  *AlltoallvScratch
}

func newCollective(w *World) *collective {
	return &collective{
		w:        w,
		arrivals: make([]float64, w.n),
		in:       make([]float64, w.n),
		exits:    make([]float64, w.n),
		rows:     make([][]int, w.n),
		a2a:      NewAlltoallvScratch(w.n),
	}
}

// reset restores a pooled collective to its initial state. Nothing
// else needs clearing: the combine drops every send row it reads, and
// a failed world (whose rows may linger) is never pooled.
func (c *collective) reset() { c.arrived = 0 }

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
		// this: the run fails and the world is dropped.
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
	if exit := c.exits[r.id]; exit > r.clock {
		r.wait += exit - r.clock
		r.clock = exit
	}
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
	w.collBytes += int64(bytes * int(log2ceil(w.n)))
	t := base + TreeCost(w.machine, w.n, bytes)
	for i := range c.exits {
		c.exits[i] = t
	}
}

// combineScalars folds xs under op, rank 0 upwards. The operator
// switch is hoisted out of the element loop: one branch per call, not
// per element. Max/Min go through math.Max/math.Min so NaN and signed-
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
	case Min:
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
// exchange. The row is read at the rendezvous, in place, and not
// retained after the call returns: simulators with frozen exchange
// plans pass the plan's own rows, which keeps the per-step exchange
// free of copies.
func (r *Rank) AlltoallvBytesRow(send []int) int {
	c := r.world.coll
	if len(send) != c.w.n {
		panic(fmt.Sprintf("simmpi: alltoallv row has %d entries for %d ranks", len(send), c.w.n))
	}
	c.rows[r.id] = send
	c.rendezvous(r, collAlltoallv, Sum, 0)
	return c.a2a.recvBytes[r.id]
}
