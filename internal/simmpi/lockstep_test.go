package simmpi

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"harmony/internal/cluster"
)

// costOp is one operation of a generated cost program: a Compute of
// work (nil: per on every rank) times per, an Exchange of fields over
// nb, an AllreduceBytes of bytes, a Barrier, a Sleep of dt, or an
// AlltoallvPriced of rows.
type costOp struct {
	kind   string
	work   []float64
	per    float64
	nb     *NeighbourPattern
	fields int
	bytes  int
	dt     float64
	rows   [][]int
	pt     *AlltoallvPattern
}

// randomMachine is a machine of 1–4 nodes with 2–4 ranks per node, so
// a job uses both link classes, unequal per-node speeds and links.
func randomMachine(rng *rand.Rand) *cluster.Machine {
	nodes, ppn := 1+rng.Intn(4), 2+rng.Intn(3)
	gflops := make([]float64, nodes)
	for i := range gflops {
		gflops[i] = 0.25 + 3*rng.Float64()
	}
	link := func(scale float64) cluster.Link {
		return cluster.Link{
			Latency:   scale * (1 + rng.Float64()) * 1e-6,
			Bandwidth: (1 + rng.Float64()) * 1e9 / scale,
			Overhead:  scale * rng.Float64() * 1e-7,
		}
	}
	return &cluster.Machine{Name: "random", Nodes: nodes, PPN: ppn, Gflops: gflops, Intra: link(1), Inter: link(10)}
}

// randomNeighbours is a neighbour pattern among n ranks with empty
// rows, zero-byte edges and unequal volumes.
func randomNeighbours(rng *rand.Rand, n int) *NeighbourPattern {
	nb := &NeighbourPattern{Start: make([]int, n+1)}
	for src := 0; src < n; src++ {
		if rng.Intn(4) > 0 {
			for dst := 0; dst < n; dst++ {
				if dst != src && rng.Intn(3) == 0 {
					nb.Dst = append(nb.Dst, dst)
					nb.Bytes = append(nb.Bytes, rng.Intn(3)*rng.Intn(5000))
				}
			}
		}
		nb.Start[src+1] = len(nb.Dst)
	}
	return nb
}

// randomCostProgram is a sequence of operations over a handful of
// distinct ones, so the lockstep run reuses each pricing many times.
func randomCostProgram(rng *rand.Rand, n int) []*costOp {
	var distinct []*costOp
	for len(distinct) < 2+rng.Intn(6) {
		op := &costOp{}
		switch k := rng.Intn(6); k {
		case 0:
			op.kind, op.per = "compute", float64(1+rng.Intn(100))*1e5
			if rng.Intn(3) > 0 {
				op.work = make([]float64, n)
				for i := range op.work {
					op.work[i] = float64(rng.Intn(1000)) * rng.Float64()
				}
			}
		case 1:
			fields := []int{0, 1, 8 * (1 + rng.Intn(40))}
			op.kind, op.nb, op.fields = "exchange", randomNeighbours(rng, n), fields[rng.Intn(len(fields))]
		case 2:
			op.kind, op.bytes = "allreduce", 8*rng.Intn(512)
		case 3:
			op.kind = "barrier"
		case 4:
			op.kind, op.dt = "sleep", rng.Float64()*1e-3
		case 5:
			op.kind, op.rows = "alltoallv", make([][]int, n)
			for src := range op.rows {
				op.rows[src] = make([]int, n)
				for dst := range op.rows[src] {
					if rng.Intn(2) == 0 {
						op.rows[src][dst] = rng.Intn(1 << 16)
					}
				}
			}
			op.pt = patternOf(op.rows)
		}
		distinct = append(distinct, op)
	}
	prog := make([]*costOp, 5+rng.Intn(40))
	for i := range prog {
		prog[i] = distinct[rng.Intn(len(distinct))]
	}
	return prog
}

// runPriced runs prog on a lockstep job, pricing each distinct
// operation once, at its first use.
func runPriced(m *cluster.Machine, n int, prog []*costOp) Stats {
	job, err := AcquireLockstep(m, n)
	if err != nil {
		panic(err)
	}
	defer job.Release()
	works := make(map[*costOp]PricedWork)
	exchanges := make(map[*costOp]PricedExchange)
	for _, op := range prog {
		switch op.kind {
		case "compute":
			w, ok := works[op]
			if !ok {
				w = job.PriceWork(op.work, op.per)
				works[op] = w
			}
			job.Compute(w)
		case "exchange":
			x, ok := exchanges[op]
			if !ok {
				x = job.PriceExchange(op.nb, op.fields)
				exchanges[op] = x
			}
			job.Exchange(x)
		case "allreduce":
			job.AllreduceBytes(op.bytes)
		case "barrier":
			job.Barrier()
		case "sleep":
			job.Sleep(op.dt)
		case "alltoallv":
			job.AlltoallvPriced(op.pt.Price(m))
		}
	}
	return job.Stats()
}

// runCoroutines runs prog as a rank program on the coroutine engine:
// an exchange is SendBytes over the rank's out-edges, then Recv over
// its in-edges by ascending source; an alltoallv is the dense rows.
func runCoroutines(m *cluster.Machine, n int, prog []*costOp) (Stats, error) {
	return Run(m, n, func(r *Rank) {
		id := r.ID()
		for _, op := range prog {
			switch op.kind {
			case "compute":
				if op.work == nil {
					r.Compute(op.per)
				} else {
					r.Compute(op.work[id] * op.per)
				}
			case "exchange":
				nb := op.nb
				for k := nb.Start[id]; k < nb.Start[id+1]; k++ {
					r.SendBytes(nb.Dst[k], 0, op.fields*nb.Bytes[k])
				}
				for src := 0; src < n; src++ {
					for k := nb.Start[src]; k < nb.Start[src+1]; k++ {
						if nb.Dst[k] == id {
							r.Recv(src, 0)
						}
					}
				}
			case "allreduce":
				r.AllreduceBytes(op.bytes)
			case "barrier":
				r.Barrier()
			case "sleep":
				r.Sleep(op.dt)
			case "alltoallv":
				r.AlltoallvBytesRow(op.rows[id])
			}
		}
	})
}

// TestPricedLockstepMatchesCoroutines: on random cost programs a
// lockstep job that prices each operation once charges what the
// coroutine engine charges for the same rank program, bit for bit.
func TestPricedLockstepMatchesCoroutines(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := randomMachine(rng)
		n := m.Procs() - rng.Intn(m.PPN)
		prog := randomCostProgram(rng, n)
		want, err := runCoroutines(m, n, prog)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if got := runPriced(m, n, prog); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d, %s, %d ranks: lockstep charges\n%+v\ncoroutine engine\n%+v", seed, m, n, got, want)
		}
	}
}

// TestPricingRefusesMalformedOperations: a malformed pattern, field
// count or work vector panics when it is priced, before any rank is
// charged and without disturbing the job's later pricings, and a
// pricing serves only the run it was made for.
func TestPricingRefusesMalformedOperations(t *testing.T) {
	m := testMachine(2, 2)
	pattern := func(dst, bytes []int, start ...int) *NeighbourPattern {
		return &NeighbourPattern{Start: start, Dst: dst, Bytes: bytes}
	}
	ring := pattern([]int{1, 2, 3, 0}, []int{8, 16, 24, 32}, 0, 1, 2, 3, 4)
	work := []float64{1e6, 2e6, 3e6, 4e6}
	// What the job charges once the refused operation is behind it.
	after := func(l *Lockstep) Stats {
		l.Exchange(l.PriceExchange(ring, 2))
		l.Compute(l.PriceWork(work, 3))
		return l.Stats()
	}
	ref, err := AcquireLockstep(m, 4)
	if err != nil {
		t.Fatal(err)
	}
	ref.Compute(ref.PriceWork(work, 1))
	want := after(ref)
	ref.Release()
	stale, err := AcquireLockstep(m, 4)
	if err != nil {
		t.Fatal(err)
	}
	staleWork, staleExchange := stale.PriceWork(nil, 1), stale.PriceExchange(pattern(nil, nil, 0, 0, 0, 0, 0), 1)
	stale.Release()
	for _, c := range []struct {
		name, want string
		price      func(l *Lockstep)
	}{
		{"descending destinations", "neighbour pattern row 0", func(l *Lockstep) {
			l.PriceExchange(pattern([]int{2, 1}, []int{8, 8}, 0, 2, 2, 2, 2), 1)
		}},
		{"repeated destination", "neighbour pattern row 0", func(l *Lockstep) {
			l.PriceExchange(pattern([]int{1, 1}, []int{8, 8}, 0, 2, 2, 2, 2), 1)
		}},
		{"self destination", "neighbour pattern row 1", func(l *Lockstep) {
			l.PriceExchange(pattern([]int{0, 1}, []int{8, 8}, 0, 0, 2, 2, 2), 1)
		}},
		{"destination out of range", "neighbour pattern row 3", func(l *Lockstep) {
			l.PriceExchange(pattern([]int{4}, []int{8}, 0, 0, 0, 0, 1), 1)
		}},
		{"negative bytes", "neighbour pattern row 2", func(l *Lockstep) {
			l.PriceExchange(pattern([]int{3}, []int{-8}, 0, 0, 0, 1, 1), 1)
		}},
		{"wrong rank count", "neighbour pattern for 3 ranks in a job of 4", func(l *Lockstep) {
			l.PriceExchange(pattern(nil, nil, 0, 0, 0, 0), 1)
		}},
		{"negative field count", "negative field count", func(l *Lockstep) {
			l.PriceExchange(pattern(nil, nil, 0, 0, 0, 0, 0), -1)
		}},
		{"negative work", "negative work", func(l *Lockstep) { l.PriceWork([]float64{1, 2, -3, 4}, 1) }},
		{"work for other ranks", "work for 3 ranks in a job of 4", func(l *Lockstep) { l.PriceWork([]float64{1, 2, 3}, 1) }},
		{"work of an earlier run", "work priced for another job", func(l *Lockstep) { l.Compute(staleWork) }},
		{"exchange of an earlier run", "exchange priced for another job", func(l *Lockstep) { l.Exchange(staleExchange) }},
	} {
		l, err := AcquireLockstep(m, 4)
		if err != nil {
			t.Fatal(err)
		}
		l.Compute(l.PriceWork(work, 1))
		before := l.Stats()
		func() {
			defer func() {
				if p := recover(); p == nil || !strings.Contains(fmt.Sprint(p), c.want) {
					t.Errorf("%s: panic %v, want one naming %q", c.name, p, c.want)
				}
			}()
			c.price(l)
		}()
		if got := l.Stats(); !reflect.DeepEqual(got, before) {
			t.Errorf("%s: refused operation charged the job: %+v, was %+v", c.name, got, before)
		}
		if got := after(l); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: the job charges %+v after the refusal, want %+v", c.name, got, want)
		}
		l.Release()
	}
}
