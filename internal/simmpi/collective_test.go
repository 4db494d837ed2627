package simmpi

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"harmony/internal/cluster"
)

func TestAlltoallvBisectionCongestion(t *testing.T) {
	// A dense exchange across few nodes must be gated by the
	// bisection, not by per-rank parallelism: doubling per-pair
	// volume doubles the time even though every rank "receives in
	// parallel".
	m := testMachine(2, 4)
	timeFor := func(bytes int) float64 {
		st, err := Run(m, 8, func(r *Rank) {
			send := make([]int, 8)
			for dst := 0; dst < 8; dst++ {
				if dst != r.ID() {
					send[dst] = bytes
				}
			}
			r.AlltoallvBytesRow(send)
		})
		if err != nil {
			t.Fatal(err)
		}
		return st.Time
	}
	t1 := timeFor(1 << 20)
	t2 := timeFor(2 << 20)
	if ratio := t2 / t1; ratio < 1.8 || ratio > 2.2 {
		t.Errorf("volume doubling changed time by %.2fx, want ~2x (bisection-bound)", ratio)
	}
	// The absolute time must respect the bisection floor.
	interBytes := 0
	for src := 0; src < 8; src++ {
		for dst := 0; dst < 8; dst++ {
			if dst != src && !m.SameNode(src, dst) {
				interBytes += 1 << 20
			}
		}
	}
	if floor := float64(interBytes) / m.Bisection(); t1 < floor {
		t.Errorf("time %v below bisection floor %v", t1, floor)
	}
}

func TestAlltoallvMoreNodesRelieveCongestion(t *testing.T) {
	// The same aggregate exchange finishes faster on a machine with
	// more nodes (larger bisection).
	run := func(nodes, ppn int) float64 {
		st, err := Run(testMachine(nodes, ppn), 8, func(r *Rank) {
			send := make([]int, 8)
			for dst := 0; dst < 8; dst++ {
				if dst != r.ID() {
					send[dst] = 1 << 20
				}
			}
			r.AlltoallvBytesRow(send)
		})
		if err != nil {
			t.Fatal(err)
		}
		return st.Time
	}
	wide := run(8, 1)
	narrow := run(2, 4)
	if wide >= narrow {
		t.Errorf("8-node exchange (%v) should beat 2-node exchange (%v)", wide, narrow)
	}
}

func TestBisectionDefault(t *testing.T) {
	m := &cluster.Machine{Nodes: 16, PPN: 2,
		Inter: cluster.Link{Bandwidth: 100e6, Latency: 1e-6},
		Intra: cluster.Link{Bandwidth: 1e9, Latency: 1e-7}}
	if got, want := m.Bisection(), 16*100e6/2; got != want {
		t.Errorf("Bisection = %v, want %v", got, want)
	}
	m.BisectionBandwidth = 42
	if got := m.Bisection(); got != 42 {
		t.Errorf("explicit bisection = %v, want 42", got)
	}
}

func TestCollectiveSequenceTiming(t *testing.T) {
	// Two barriers back-to-back cost twice one barrier's tree cost.
	m := testMachine(2, 2)
	one, err := Run(m, 4, func(r *Rank) { r.Barrier() })
	if err != nil {
		t.Fatal(err)
	}
	two, err := Run(m, 4, func(r *Rank) { r.Barrier(); r.Barrier() })
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(two.Time-2*one.Time) > 1e-12 {
		t.Errorf("two barriers = %v, want %v", two.Time, 2*one.Time)
	}
}

// statsDigest folds every per-rank clock of a run into one word, so a
// golden can pin a whole Stats in a literal.
func statsDigest(st Stats) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	add := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, xs := range [][]float64{st.RankClocks, st.ComputeTime, st.WaitTime} {
		for _, x := range xs {
			add(math.Float64bits(x))
		}
	}
	add(uint64(st.Messages))
	return h.Sum64()
}

// allreduceGolden is one run of staggeredReduces as the vector
// Allreduce charged it before PR 23 deleted that collective: the
// float64 bits of Stats.Time, Stats.BytesSent, and statsDigest.
type allreduceGolden struct {
	time   uint64
	bytes  int64
	digest uint64
}

func (g allreduceGolden) check(t *testing.T, what string, st Stats) {
	t.Helper()
	if got := (allreduceGolden{math.Float64bits(st.Time), st.BytesSent, statsDigest(st)}); got != g {
		t.Errorf("%s: (Time bits, BytesSent, digest) = %#x, want %#x", what, got, g)
	}
}

// allreduceGoldens holds, for each machine of allreduceCases in order,
// the goldens for vectors of 0, 1, 64 and 1000 doubles.
var allreduceGoldens = [][4]allreduceGolden{
	{
		{0x3f819ce075f6fd21, 0, 0x51876b3d90d4a194},
		{0x3f819ce075f6fd21, 0, 0x51876b3d90d4a194},
		{0x3f819ce075f6fd21, 0, 0x51876b3d90d4a194},
		{0x3f819ce075f6fd21, 0, 0x51876b3d90d4a194},
	},
	{
		{0x3f85847bfb23216d, 0, 0x4697a33b6e2a7991},
		{0x3f8584826c67987b, 48, 0x70665634d8cf6fd6},
		{0x3f8586184c40e511, 3072, 0xdbd62abcdedef989},
		{0x3f859da66e943251, 48000, 0x9c13d8a6c6271e16},
	},
	{
		{0x3f8a01eeed8904f8, 0, 0x6788b53205b7adcf},
		{0x3f8a024f908bfed2, 72, 0xcfd1a19aaefc03d7},
		{0x3f8a1a17ae477b96, 4608, 0x3587145cc09d650},
		{0x3f8b7b6bb1290259, 72000, 0x9675bb68abd952a6},
	},
	{
		{0x3fa2bd1aa821f298, 0, 0x5d91838981936a42},
		{0x3fa2bd32d0e2b110, 72, 0xcafe12ce3879329e},
		{0x3fa2c324d8519041, 4608, 0x294b1ff317c43f4b},
		{0x3fa31b79d909f1f2, 72000, 0x32ac1ea8002627d1},
	},
	{
		{0x3f9773684bcb9ce8, 0, 0xaf904d1f3eb99f4b},
		{0x3f9773888221f031, 168, 0xd56f886a65701517},
		{0x3f977b75e1606f1c, 10752, 0xdd75076b7d10a17b},
		{0x3f97f13c8d00f15d, 168000, 0xf200c8e543c64ad8},
	},
	{
		{0x3f8490413bc85eb9, 0, 0xf412a7bfd676dd1b},
		{0x3f84909d44bf0389, 168, 0xdd55877a14c766f8},
		{0x3f84a743797192bd, 10752, 0x7b11cf77a0857585},
		{0x3f85f7c43f3c2b77, 168000, 0xd319bc325f69c82},
	},
}

// allreduce1Goldens holds, for each machine of allreduceCases and each
// of Sum, Max, minOp in order, the float64 bits of the three results a
// length-1 vector Allreduce returned for staggeredReduces' inputs.
var allreduce1Goldens = [][3][3]uint64{
	{{0x3fdb6db6db6db6db, 0xbfdb6db6db6db6db, 0x3ff2492492492492}, {0x3fdb6db6db6db6db, 0xbfdb6db6db6db6db, 0x3ff2492492492492}, {0x3fdb6db6db6db6db, 0xbfdb6db6db6db6db, 0x3ff2492492492492}},
	{{0x3fc2492492492490, 0x0, 0xbfc2492492492492}, {0x3feb6db6db6db6db, 0x3fdb6db6db6db6db, 0x3ff2492492492492}, {0xbff2492492492492, 0xbfdb6db6db6db6db, 0xbfeb6db6db6db6db}},
	{{0x3feb6db6db6db6da, 0xbff2492492492492, 0xbfe6db6db6db6db7}, {0x3ff0000000000000, 0x3feb6db6db6db6db, 0x3ff2492492492492}, {0xbff2492492492492, 0xbff2492492492492, 0xbff2492492492492}},
	{{0xbfeb6db6db6db6dc, 0xbfd2492492492492, 0x3fd2492492492492}, {0x3feb6db6db6db6db, 0x3feb6db6db6db6db, 0x3ff2492492492492}, {0xbff2492492492492, 0xbff2492492492492, 0xbfeb6db6db6db6db}},
	{{0x3ff4924924924924, 0xbfdb6db6db6db6d9, 0x3fd2492492492492}, {0x3ff2492492492492, 0x3ff2492492492492, 0x3ff2492492492492}, {0xbff2492492492492, 0xbff2492492492492, 0xbff2492492492492}},
	{{0xbfc2492492492498, 0xbfe2492492492492, 0xbff0000000000000}, {0x3ff2492492492492, 0x3ff2492492492492, 0x3ff2492492492492}, {0xbff2492492492492, 0xbff2492492492492, 0xbff2492492492492}},
}

func allreduceCases() []struct {
	m *cluster.Machine
	n int
} {
	hetero := testMachine(3, 2)
	hetero.Gflops = []float64{1, 0.25, 3}
	return []struct {
		m *cluster.Machine
		n int
	}{
		{testMachine(1, 1), 1}, {testMachine(1, 4), 3}, {testMachine(4, 2), 8},
		{hetero, 5}, {cluster.Seaborg(5, 16), 70}, {cluster.MyrinetLinux(64, 2), 128},
	}
}

// staggeredReduces is three reductions whose arrivals are staggered
// differently every step.
func staggeredReduces(reduce func(r *Rank, step int)) func(r *Rank) {
	return func(r *Rank) {
		for step := 1; step <= 3; step++ {
			r.Compute(float64((r.ID()*7+step*3)%5) * 1e6)
			reduce(r, step)
			if r.ID()%2 == 0 {
				r.Sleep(1e-4 * float64(step))
			}
		}
	}
}

// TestAllreduceBytesEqualsAllreduce is what keeps the cost-only
// reduction honest: a program that declares only the size of a vector
// must agree on every statistic, at any rank count, link mix and
// arrival stagger, with one that reduced the vector itself — which,
// now that the vector Allreduce is gone, means with the literals
// captured from it.
func TestAllreduceBytesEqualsAllreduce(t *testing.T) {
	for i, c := range allreduceCases() {
		for j, k := range []int{0, 1, 64, 1000} {
			got, err := Run(c.m, c.n, staggeredReduces(func(r *Rank, _ int) { r.AllreduceBytes(8 * k) }))
			if err != nil {
				t.Fatal(err)
			}
			allreduceGoldens[i][j].check(t, fmt.Sprintf("%s, %d ranks, %d doubles", c.m, c.n, k), got)
		}
	}
}

// TestAllreduce1EqualsLength1Allreduce pins the scalar reduction to
// the length-1 vector Allreduce it replaced: same statistics, and the
// same result bits (so the same fold order) under every operator.
func TestAllreduce1EqualsLength1Allreduce(t *testing.T) {
	for i, c := range allreduceCases() {
		for j, op := range []Op{Sum, Max, minOp} {
			var results [3]uint64
			got, err := Run(c.m, c.n, staggeredReduces(func(r *Rank, step int) {
				v := r.Allreduce1(op, float64((r.ID()*37+step*11)%17-8)/7)
				if r.ID() == r.Size()-1 {
					results[step-1] = math.Float64bits(v)
				}
			}))
			if err != nil {
				t.Fatal(err)
			}
			what := fmt.Sprintf("%s, %d ranks, %s", c.m, c.n, op)
			allreduceGoldens[i][1].check(t, what, got)
			if results != allreduce1Goldens[i][j] {
				t.Errorf("%s: result bits = %#x, want %#x", what, results, allreduce1Goldens[i][j])
			}
		}
	}
}

func TestAllreduceBytesRejectsBadSizes(t *testing.T) {
	for want, size := range map[string]func(r *Rank) int{
		"negative message size -8": func(*Rank) int { return -8 },
		"allreduce size mismatch":  func(r *Rank) int { return 8 * r.ID() },
	} {
		_, err := Run(testMachine(1, 2), 2, func(r *Rank) { r.AllreduceBytes(size(r)) })
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("err = %v, want %q", err, want)
		}
	}
}

// TestAlltoallvRowReadAtRendezvous: a send row is read in place while
// its owner is parked in the call and never afterwards, so a rank may
// reuse — here, scribble over — its row as soon as the call returns
// without changing that exchange or any later one.
func TestAlltoallvRowReadAtRendezvous(t *testing.T) {
	m := testMachine(3, 2)
	const n, exchanges = 6, 4
	fillRow := func(row []int, id, x int) {
		for dst := range row {
			row[dst] = 1000 * ((id*5+dst*3+x)%4 + x)
		}
	}
	program := func(reuse bool) func(r *Rank) {
		return func(r *Rank) {
			row := make([]int, n)
			for x := 0; x < exchanges; x++ {
				if !reuse {
					row = make([]int, n)
				}
				fillRow(row, r.ID(), x)
				r.Compute(float64(r.ID()+x) * 1e5)
				r.AlltoallvBytesRow(row)
				if reuse {
					for dst := range row {
						row[dst] = -1 - dst
					}
				}
			}
		}
	}
	want, err := Run(m, n, program(false))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(m, n, program(true))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("reused rows changed the result:\n got %+v\nwant %+v", got, want)
	}
}

func TestAlltoallvNegativeSizeDetected(t *testing.T) {
	_, err := Run(testMachine(1, 3), 3, func(r *Rank) {
		if r.ID() == 1 {
			r.AlltoallvBytesRow([]int{0, 0, -5})
		} else {
			r.AlltoallvBytesRow(make([]int, 3))
		}
	})
	if err == nil || !strings.Contains(err.Error(), "simmpi: alltoallv negative size -5") {
		t.Errorf("err = %v, want the negative size named", err)
	}
}

// TestAlltoallvPatternPanics: Price refuses a malformed pattern with a
// panic naming the defect, for a destination out of order, one out of
// range, and a negative size.
func TestAlltoallvPatternPanics(t *testing.T) {
	m := testMachine(2, 2)
	for _, c := range []struct {
		name       string
		dst, bytes []int
		want       string
	}{
		{"out of order", []int{2, 1, 3}, []int{8, 8, 8}, "simmpi: alltoallv pattern row 1: destination 1 out of order"},
		{"repeated", []int{0, 0}, []int{8, 8}, "simmpi: alltoallv pattern row 1: destination 0 out of order"},
		{"out of range", []int{0, 4}, []int{8, 8}, "simmpi: alltoallv pattern row 1: destination 4 out of order"},
		{"negative", []int{-1}, []int{8}, "simmpi: alltoallv pattern row 1: destination -1 out of order"},
		{"negative size", []int{0, 2}, []int{8, -3}, "simmpi: alltoallv negative size -3"},
	} {
		t.Run(c.name, func(t *testing.T) {
			// Rank 0 sends 8 bytes to rank 3; rank 1's row is c's.
			n := len(c.dst)
			pt := &AlltoallvPattern{
				Start: []int{0, 1, 1 + n, 1 + n, 1 + n},
				Dst:   append([]int{3}, c.dst...),
				Bytes: append([]int{8}, c.bytes...),
			}
			defer func() {
				if r := recover(); r != c.want {
					t.Errorf("Price panicked with %v, want %q", r, c.want)
				}
			}()
			pt.Price(m)
		})
	}
}

// patternOf freezes dense rows into the sparse pattern holding the
// same nonzero entries.
func patternOf(rows [][]int) *AlltoallvPattern {
	pt := &AlltoallvPattern{Start: make([]int, len(rows)+1)}
	for src, row := range rows {
		for dst, b := range row {
			if b != 0 {
				pt.Dst = append(pt.Dst, dst)
				pt.Bytes = append(pt.Bytes, b)
			}
		}
		pt.Start[src+1] = len(pt.Dst)
	}
	return pt
}

// skewedRows is an exchange whose volumes depend on the pair, with
// silent pairs, self entries, and one hot receiver.
func skewedRows(n int) [][]int {
	rows := make([][]int, n)
	for src := range rows {
		rows[src] = make([]int, n)
		for dst := range rows[src] {
			if (src+2*dst)%5 != 0 {
				rows[src][dst] = 1024 * (1 + (src*7+dst*3)%11)
			}
			if dst == 1 {
				rows[src][dst] += 1 << 18
			}
		}
	}
	return rows
}

// TestAlltoallvPricedEqualsBytesRow: a frozen pattern priced once per
// machine and charged by the lockstep executor charges every statistic
// exactly what its dense rows charge at the coroutine rendezvous, under
// staggered arrivals.
func TestAlltoallvPricedEqualsBytesRow(t *testing.T) {
	for _, c := range allreduceCases() {
		rows := skewedRows(c.n)
		pr := patternOf(rows).Price(c.m)
		var stagger [3][]float64 // per step, each rank's work before the exchange
		for step := range stagger {
			stagger[step] = make([]float64, c.n)
			for i := range stagger[step] {
				stagger[step][i] = float64((i*7+step*3)%5) * 1e6
			}
		}
		want, err := Run(c.m, c.n, func(r *Rank) {
			for _, work := range stagger {
				r.Compute(work[r.ID()])
				got := r.AlltoallvBytesRow(rows[r.ID()])
				recv := 0
				for src := range rows {
					if src != r.ID() {
						recv += rows[src][r.ID()]
					}
				}
				if got != recv {
					panic(fmt.Sprintf("rank %d received %d bytes, want %d", r.ID(), got, recv))
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		job, err := AcquireLockstep(c.m, c.n)
		if err != nil {
			t.Fatal(err)
		}
		for _, work := range stagger {
			job.Compute(job.PriceWork(work, 1))
			job.AlltoallvPriced(pr)
		}
		if got := job.Stats(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s, %d ranks: lockstep priced\n%+v\ncoroutine dense rows\n%+v", c.m, c.n, got, want)
		}
		job.Release()
	}
}

// TestAlltoallvPricingRaceFree prices one pattern from several
// goroutines on two machines at once; every pricing must be the one
// its machine's dense rows give, read as the clocks at which a
// lockstep job's ranks leave the priced exchange.
func TestAlltoallvPricingRaceFree(t *testing.T) {
	const n = 16
	rows := skewedRows(n)
	pt := patternOf(rows)
	machines := []*cluster.Machine{cluster.MyrinetLinux(8, 2), cluster.Seaborg(4, 4)}
	want := make([][]float64, len(machines))
	for i, m := range machines {
		want[i] = make([]float64, n)
		AlltoallvExits(m, rows, 0, want[i], NewAlltoallvScratch(n))
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 50; k++ {
				i := (g + k) % len(machines)
				job, err := AcquireLockstep(machines[i], n)
				if err != nil {
					t.Error(err)
					return
				}
				job.AlltoallvPriced(pt.Price(machines[i]))
				got := job.Stats().RankClocks
				job.Release()
				if !reflect.DeepEqual(got, want[i]) {
					t.Errorf("goroutine %d: %s priced %v, want %v", g, machines[i], got, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestAlltoallvPricedMismatches: a lockstep job refuses an exchange
// priced for another machine or another rank count.
func TestAlltoallvPricedMismatches(t *testing.T) {
	m := testMachine(2, 2)
	pt := patternOf(skewedRows(4))
	for _, c := range []struct {
		pricedOn *cluster.Machine
		n        int
	}{{testMachine(4, 1), 4}, {m, 3}} {
		job, err := AcquireLockstep(m, c.n)
		if err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() {
				if p := recover(); p == nil || !strings.Contains(fmt.Sprint(p), "alltoallv priced for another machine") {
					t.Errorf("priced on %s, job of %d ranks: panic %v, want the mismatch named", c.pricedOn, c.n, p)
				}
			}()
			job.AlltoallvPriced(pt.Price(c.pricedOn))
		}()
		job.Release()
	}
}
