package simmpi

import (
	"fmt"
	"math"
)

// collective is the rendezvous behind all collective operations.
// Every rank must call the same sequence of collectives (SPMD
// discipline); a mismatch is detected and reported as an application
// bug.
//
// Under the cooperative scheduler the rendezvous needs no lock: each
// arriving rank records its input and parks; the last arrival runs
// the combine, publishes per-rank exits and outputs, and marks the
// parked ranks runnable before continuing. A resumed rank consumes
// its own slot before it can possibly arrive at the next rendezvous,
// so the scratch below is safely reused for the whole life of a world
// — and, through the world pool, across runs.
type collective struct {
	w *World

	arrived  int
	op       string
	arrivals []float64
	inputs   []any
	exits    []float64
	outputs  []any

	// Scalar fast path (Allreduce1): inputs and the uniform result
	// live in flat float64 arrays, so no value is boxed.
	f64in []float64
	uExit float64
	uOut  float64

	// intOut carries per-rank integer results (AlltoallvBytes)
	// without boxing; each rank reads its slot on resume, before the
	// next combine can run, so in-place reuse is safe.
	intOut []int

	// alltoallv send plans: one dense row per rank (send[dst] =
	// bytes), which keeps the O(n²) combine loop free of map hashing.
	// A row belongs to its caller, who is parked inside the call until
	// the combine has read it; the combine drops the reference.
	a2aRows [][]int

	// alltoallv combine scratch.
	recvBytes []int
	recvTime  []float64
	sendTime  []float64
	msgs      []int
}

func newCollective(w *World) *collective {
	return &collective{
		w:         w,
		arrivals:  make([]float64, w.n),
		inputs:    make([]any, w.n),
		exits:     make([]float64, w.n),
		outputs:   make([]any, w.n),
		f64in:     make([]float64, w.n),
		intOut:    make([]int, w.n),
		a2aRows:   make([][]int, w.n),
		recvBytes: make([]int, w.n),
		recvTime:  make([]float64, w.n),
		sendTime:  make([]float64, w.n),
		msgs:      make([]int, w.n),
	}
}

// reset restores a pooled collective to its initial state. inputs are
// already nil (cleared at each combine); outputs are dropped so a
// pooled world retains no caller data.
func (c *collective) reset() {
	c.arrived = 0
	c.op = ""
	for i := range c.outputs {
		c.outputs[i] = nil
	}
}

// combineFunc computes, once all ranks have arrived, the per-rank
// exit clocks and outputs from the per-rank inputs and arrival
// clocks, writing them into exits and outputs in place.
type combineFunc func(w *World, arrivals []float64, inputs []any, exits []float64, outputs []any)

// arrive records rank r's arrival at the current rendezvous.
func (c *collective) arrive(r *Rank, op string) {
	if c.arrived == 0 {
		c.op = op
	} else if c.op != op {
		panic(fmt.Sprintf("simmpi: collective mismatch: rank %d calls %s while %s in progress", r.id, op, c.op))
	}
	c.arrivals[r.id] = r.clock
	c.arrived++
}

// complete retires the rendezvous after its combine has run and marks
// every parked participant runnable. A combine that panics (an
// application bug) skips this: the run fails and the world is dropped.
func (c *collective) complete() {
	for i := range c.inputs {
		c.inputs[i] = nil
	}
	c.arrived = 0
	s := c.w.sched
	for i, st := range s.state {
		if st == stateBlocked && s.wait[i].kind == waitColl {
			s.unblock(i)
		}
	}
}

// rendezvous runs one collective operation for rank r.
func (c *collective) rendezvous(r *Rank, op string, input any, combine combineFunc) any {
	c.arrive(r, op)
	c.inputs[r.id] = input
	if c.arrived == c.w.n {
		combine(c.w, c.arrivals, c.inputs, c.exits, c.outputs)
		c.complete()
	} else {
		c.w.sched.block(r.id, waitRecord{kind: waitColl, op: op})
	}
	exit := c.exits[r.id]
	out := c.outputs[r.id]
	c.outputs[r.id] = nil

	if exit > r.clock {
		r.wait += exit - r.clock
		r.clock = exit
	}
	return out
}

// scalarRendezvous runs a collective whose input is one float64 per
// rank and whose result (value and exit clock) is uniform across
// ranks: the boxing-free path behind Allreduce1.
func (c *collective) scalarRendezvous(r *Rank, op string, x float64, combine func(w *World, arrivals, inputs []float64) (exit, out float64)) float64 {
	c.arrive(r, op)
	c.f64in[r.id] = x
	if c.arrived == c.w.n {
		//harmonyvet:ignore allocfree combine is one of this file's scalar collective bodies, which allocate nothing; TestRunAllocationSteadyState pins 100 of them per Run
		c.uExit, c.uOut = combine(c.w, c.arrivals, c.f64in)
		c.complete()
	} else {
		c.w.sched.block(r.id, waitRecord{kind: waitColl, op: op})
	}
	exit, out := c.uExit, c.uOut

	if exit > r.clock {
		r.wait += exit - r.clock
		r.clock = exit
	}
	return out
}

// combineInto folds v into acc elementwise. The operator switch is
// hoisted out of the element loop: one branch per call, not per
// element. Max/Min go through math.Max/math.Min so NaN and signed-
// zero handling stay bit-identical to the historical per-element
// Op.apply path.
func combineInto(op Op, acc, v []float64) {
	switch op {
	case Sum:
		for j, x := range v {
			acc[j] += x
		}
	case Max:
		for j, x := range v {
			acc[j] = math.Max(acc[j], x)
		}
	case Min:
		for j, x := range v {
			acc[j] = math.Min(acc[j], x)
		}
	default:
		panic(fmt.Sprintf("simmpi: unknown op %d", int(op)))
	}
}

// combineScalars folds xs under op with the same per-call operator
// hoisting and the same fold order (rank 0 upwards) as combineInto.
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

func fillExits(exits []float64, t float64) {
	for i := range exits {
		exits[i] = t
	}
}

// treeCost models a binomial-tree collective over n ranks moving
// bytes per stage on the world's worst link class.
func (w *World) treeCost(bytes int) float64 {
	l := w.worstLink()
	stages := log2ceil(w.n)
	return stages * (l.Latency + l.Overhead + float64(bytes)/l.Bandwidth)
}

// Barrier synchronises all ranks: every clock advances to the latest
// arrival plus the barrier's tree cost.
func (r *Rank) Barrier() {
	r.world.coll.scalarRendezvous(r, "barrier", 0,
		func(w *World, arrivals, _ []float64) (float64, float64) {
			return maxOf(arrivals) + w.treeCost(0), 0
		})
}

// Allreduce combines each rank's vector elementwise with op and
// returns the combined vector to every rank. All vectors must have
// the same length.
func (r *Rank) Allreduce(op Op, vec []float64) []float64 {
	out := r.world.coll.rendezvous(r, "allreduce", vec,
		func(w *World, arrivals []float64, inputs []any, exits []float64, outputs []any) {
			first := inputs[0].([]float64)
			acc := append([]float64(nil), first...)
			for i := 1; i < w.n; i++ {
				v := inputs[i].([]float64)
				if len(v) != len(acc) {
					panic(fmt.Sprintf("simmpi: allreduce length mismatch: rank 0 has %d, rank %d has %d", len(acc), i, len(v)))
				}
				combineInto(op, acc, v)
			}
			t := maxOf(arrivals) + w.treeCost(8*len(acc))
			w.collBytes += int64(8 * len(acc) * int(log2ceil(w.n)))
			for i := range outputs {
				outputs[i] = append([]float64(nil), acc...)
			}
			fillExits(exits, t)
		})
	return out.([]float64)
}

// Allreduce1 is Allreduce for a single scalar. It takes the
// boxing-free scalar path: the cost model (arrival synchronisation,
// tree cost for an 8-byte payload, bytesSent accounting) and the
// combine order are exactly those of Allreduce with a length-1
// vector.
func (r *Rank) Allreduce1(op Op, x float64) float64 {
	return r.world.coll.scalarRendezvous(r, "allreduce1", x,
		//harmonyvet:ignore allocfree the combine closure captures only op and is stack-allocated (gcflags=-m: func literal does not escape)
		func(w *World, arrivals, inputs []float64) (float64, float64) {
			acc := combineScalars(op, inputs)
			t := maxOf(arrivals) + w.treeCost(8)
			w.collBytes += int64(8 * int(log2ceil(w.n)))
			return t, acc
		})
}

// AllreduceBytes is Allreduce for a payload nobody reads: it charges
// what Allreduce of a vector of that many bytes charges (arrival
// synchronisation, tree cost, bytesSent accounting) on the boxing-free
// scalar path, carrying no values. Every rank must pass the same size.
func (r *Rank) AllreduceBytes(bytes int) {
	if bytes < 0 {
		panic(fmt.Sprintf("simmpi: negative message size %d", bytes))
	}
	r.world.coll.scalarRendezvous(r, "allreducebytes", float64(bytes),
		func(w *World, arrivals, sizes []float64) (float64, float64) {
			for i, b := range sizes {
				if b != sizes[0] {
					panic(fmt.Sprintf("simmpi: allreduce size mismatch: rank 0 has %v, rank %d has %v", sizes[0], i, b))
				}
			}
			bytes := int(sizes[0])
			w.collBytes += int64(bytes * int(log2ceil(w.n)))
			return maxOf(arrivals) + w.treeCost(bytes), 0
		})
}

// Bcast distributes root's vector to every rank and returns it.
// Non-root ranks pass nil (or anything; only root's value is used).
func (r *Rank) Bcast(root int, vec []float64) []float64 {
	var in []float64
	if r.id == root {
		in = vec
	}
	out := r.world.coll.rendezvous(r, "bcast", in,
		func(w *World, arrivals []float64, inputs []any, exits []float64, outputs []any) {
			data, _ := inputs[root].([]float64)
			t := maxOf(arrivals) + w.treeCost(8*len(data))
			w.collBytes += int64(8 * len(data) * int(log2ceil(w.n)))
			for i := range outputs {
				outputs[i] = append([]float64(nil), data...)
			}
			fillExits(exits, t)
		})
	return out.([]float64)
}

// Gather concentrates each rank's vector at root, returning the
// rank-ordered concatenation at root and nil elsewhere. The root pays
// for receiving the full volume; other ranks leave after their send
// completes locally.
func (r *Rank) Gather(root int, vec []float64) [][]float64 {
	out := r.world.coll.rendezvous(r, "gather", vec,
		func(w *World, arrivals []float64, inputs []any, exits []float64, outputs []any) {
			l := w.worstLink()
			var bytes int
			gathered := make([][]float64, w.n)
			for i := 0; i < w.n; i++ {
				v := inputs[i].([]float64)
				gathered[i] = append([]float64(nil), v...)
				if i != root {
					bytes += 8 * len(v)
				}
			}
			tRoot := maxOf(arrivals) + l.Latency + float64(bytes)/l.Bandwidth
			w.collBytes += int64(bytes)
			for i := range exits {
				if i == root {
					exits[i] = tRoot
					outputs[i] = gathered
				} else {
					// Senders proceed once their message is injected.
					exits[i] = arrivals[i] + l.Overhead
					outputs[i] = [][]float64(nil)
				}
			}
		})
	return out.([][]float64)
}

// AlltoallvBytes performs a personalised all-to-all where each rank
// declares only the number of bytes it sends to every other rank
// (sendBytes[dst]; entries for self or missing ranks are ignored).
// It returns the number of bytes this rank received. The exit time of
// each rank is gated by its inbound volume on the per-pair links —
// the mechanism that makes data-layout choices in GS2 and block
// mappings in POP visible as communication time.
func (r *Rank) AlltoallvBytes(sendBytes map[int]int) int {
	row := make([]int, r.world.n)
	for dst, b := range sendBytes {
		if dst < 0 || dst >= r.world.n {
			panic(fmt.Sprintf("simmpi: alltoallv to invalid rank %d", dst))
		}
		row[dst] = b
	}
	return r.AlltoallvBytesRow(row)
}

// AlltoallvBytesRow is AlltoallvBytes taking a dense send row:
// send[dst] is the byte count for destination dst, and len(send)
// must equal Size() (self and zero entries are ignored). The row is
// read at the rendezvous, in place, and not retained after the call
// returns: simulators with frozen exchange plans pass the plan's own
// rows, which keeps the per-step exchange free of map traffic and
// copies.
func (r *Rank) AlltoallvBytesRow(send []int) int {
	c := r.world.coll
	if len(send) != c.w.n {
		panic(fmt.Sprintf("simmpi: alltoallv row has %d entries for %d ranks", len(send), c.w.n))
	}
	c.a2aRows[r.id] = send
	c.rendezvous(r, "alltoallv", nil, alltoallvCombine)
	return c.intOut[r.id]
}

func alltoallvCombine(w *World, arrivals []float64, _ []any, exits []float64, outputs []any) {
	c := w.coll
	base := maxOf(arrivals)
	lat := w.worstLink().Latency * log2ceil(w.n)
	overhead := w.worstLink().Overhead
	var total int64
	var interNode float64
	recvBytes := c.recvBytes
	recvTime := c.recvTime
	sendTime := c.sendTime
	msgs := c.msgs // messages touched per rank
	for i := 0; i < w.n; i++ {
		recvBytes[i], recvTime[i], sendTime[i], msgs[i] = 0, 0, 0, 0
	}
	// Destinations are visited in increasing rank order: per-rank
	// float accumulation must stay a pure function of rank numbering
	// or repeated runs diverge bitwise.
	for src, row := range c.a2aRows {
		c.a2aRows[src] = nil
		for dst, b := range row {
			if b <= 0 || dst == src {
				if b < 0 {
					panic(fmt.Sprintf("simmpi: alltoallv negative size %d", b))
				}
				continue
			}
			link := w.machine.LinkBetween(src, dst)
			dt := float64(b) / link.Bandwidth
			recvTime[dst] += dt
			sendTime[src] += dt
			recvBytes[dst] += b
			msgs[src]++
			msgs[dst]++
			total += int64(b)
			if !w.machine.SameNode(src, dst) {
				interNode += float64(b)
			}
		}
	}
	// The switch's bisection caps aggregate inter-node flow:
	// a dense exchange cannot finish before the fabric has
	// carried it, regardless of per-rank parallelism.
	congestion := interNode / w.machine.Bisection()
	for i := range exits {
		cost := recvTime[i]
		if sendTime[i] > cost {
			cost = sendTime[i]
		}
		if congestion > cost {
			cost = congestion
		}
		exits[i] = base + lat + cost + float64(msgs[i])*overhead
		c.intOut[i] = recvBytes[i]
		outputs[i] = nil
	}
	w.collBytes += total
}

// Reduce combines each rank's vector elementwise with op and delivers
// the combined vector at root only; other ranks receive nil. Senders
// proceed once their contribution is injected; the root pays the tree
// cost.
func (r *Rank) Reduce(root int, op Op, vec []float64) []float64 {
	if root < 0 || root >= r.world.n {
		panic(fmt.Sprintf("simmpi: reduce to invalid root %d", root))
	}
	out := r.world.coll.rendezvous(r, "reduce", vec,
		func(w *World, arrivals []float64, inputs []any, exits []float64, outputs []any) {
			l := w.worstLink()
			acc := append([]float64(nil), inputs[0].([]float64)...)
			for i := 1; i < w.n; i++ {
				v := inputs[i].([]float64)
				if len(v) != len(acc) {
					panic(fmt.Sprintf("simmpi: reduce length mismatch: rank 0 has %d, rank %d has %d", len(acc), i, len(v)))
				}
				combineInto(op, acc, v)
			}
			w.collBytes += int64(8 * len(acc) * int(log2ceil(w.n)))
			tRoot := maxOf(arrivals) + w.treeCost(8*len(acc))
			for i := range exits {
				if i == root {
					exits[i] = tRoot
					outputs[i] = acc
				} else {
					exits[i] = arrivals[i] + l.Overhead
					outputs[i] = []float64(nil)
				}
			}
		})
	return out.([]float64)
}
