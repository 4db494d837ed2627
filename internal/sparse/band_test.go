package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// randomBand draws an n-row band with reaches anywhere in their range,
// so a row's left neighbours need not be contiguous, and fixed rows in
// the shapes the reach scans could get wrong: row 0 reaches the last
// row (every rank's lower ghost under p = N), row n/2 reaches nothing,
// and the last rows reach what is left.
func randomBand(rng *rand.Rand, n int) *Band {
	reach := randomReaches(rng, n)
	return newBand(n, func(i int) int { return reach[i] })
}

// randomReaches draws randomBand's reaches, row by row.
func randomReaches(rng *rand.Rand, n int) []int {
	reach := make([]int, n)
	for i := range reach {
		switch {
		case i == 0:
			reach[i] = n - 1
		case i == n/2:
			reach[i] = 0
		case rng.Intn(3) == 0:
			reach[i] = rng.Intn(n - i)
		default:
			reach[i] = min(rng.Intn(4), n-1-i)
		}
	}
	return reach
}

// rowNNZ returns the number of stored entries in rows [lo, hi).
func (b *Band) rowNNZ(lo, hi int) int {
	ptr := func(h int) int { return b.rowPtr(b.seek(0, max(0, h-b.maxReach)), h) }
	return ptr(hi) - ptr(lo)
}

// rowBand is the per-row form a Band had before it kept runs: each
// row's reach, and the CSR row pointers built from them in two passes.
// It is kept here, and only here, as the reference the runs answer to.
type rowBand struct {
	reach    []uint16
	rowPtr   []int32
	maxReach int
}

// newRowBand builds the per-row band of the given reaches: rowPtr
// first holds the difference array of the left-neighbour counts.
func newRowBand(reach []int) *rowBand {
	n := len(reach)
	b := &rowBand{reach: make([]uint16, n), rowPtr: make([]int32, n+1)}
	for i, m := range reach {
		b.reach[i] = uint16(m)
		b.maxReach = max(b.maxReach, m)
		b.rowPtr[i+1]++
		b.rowPtr[i+1+m]--
	}
	left, stored := 0, 0
	for i := 0; i < n; i++ {
		left += int(b.rowPtr[i])
		b.rowPtr[i] = int32(stored)
		stored += left + 1 + int(b.reach[i])
	}
	b.rowPtr[n] = int32(stored)
	return b
}

func (b *rowBand) rowNNZ(lo, hi int) int { return int(b.rowPtr[hi] - b.rowPtr[lo]) }

// pattern expands the rows into a structure-only CSR.
func (b *rowBand) pattern() *CSR {
	n := len(b.reach)
	a := &CSR{N: n, RowPtr: make([]int, n+1), Col: make([]int32, b.rowPtr[n])}
	next := a.RowPtr[1:]
	for i, p := range b.rowPtr[:n] {
		next[i] = int(p)
	}
	for i := 0; i < n; i++ {
		a.Col[next[i]] = int32(i)
		next[i]++
		for j := i + 1; j <= i+int(b.reach[i]); j++ {
			a.Col[next[i]] = int32(j)
			a.Col[next[j]] = int32(i)
			next[i]++
			next[j]++
		}
	}
	return a
}

// plan builds the halo plan row by row, O(P·maxReach).
func (b *rowBand) plan(part Partition) *HaloPlan {
	p := part.P()
	hp := new(HaloPlan)
	hp.reset(part)
	from := hp.from
	for r := 0; r < p; r++ {
		lo, hi := part.Range(r)
		hp.setNNZ(r, b.rowNNZ(lo, hi))
		for c, q := lo-1, r-1; c >= max(0, lo-b.maxReach); c-- {
			for c < part.Starts[q] {
				q--
			}
			if c+int(b.reach[c]) >= lo {
				from[q]++
			}
		}
		top := hi - 1
		for i := max(lo, hi-b.maxReach); i < hi; i++ {
			top = max(top, i+int(b.reach[i]))
		}
		for q := r + 1; q < p && part.Starts[q] <= top; q++ {
			from[q] += min(top+1, part.Starts[q+1]) - part.Starts[q]
		}
		hp.addRecvs(r)
	}
	hp.mirrorSends()
	return hp
}

// TestRunBandMatchesRows pins the runs to the per-row form they
// replaced: on random bands, VariableBand's edge specs and dense-block
// bands, a Band's runs are maximal, so BandOf reads its Pattern back
// deeply equal, and it agrees with the rows on NNZ, on rowNNZ(lo, hi)
// for every 0 ≤ lo ≤ hi ≤ N (every 7th pair past 200 rows), on Pattern,
// and on HaloPlan and AcquirePlan under even, random and one-row-per-rank
// partitions.
func TestRunBandMatchesRows(t *testing.T) {
	gen := rand.New(rand.NewSource(31))
	rng := rand.New(rand.NewSource(37))
	type bandCase struct {
		name  string
		b     *Band
		reach []int
	}
	var cases []bandCase
	for _, n := range []int{1, 2, 3, 40, 97, 160} {
		reach := randomReaches(gen, n)
		cases = append(cases, bandCase{fmt.Sprintf("random-%d", n), newBand(n, func(i int) int { return reach[i] }), reach})
	}
	for _, s := range []struct{ n, minBand, maxBand, waves int }{
		{7, 2, 3, 1}, {120, 4, 120, 2}, {121, 2, 121, 3}, {300, 2, 24, 3}, {500, 9, 9, 4},
	} {
		reach := make([]int, s.n)
		for i := range reach {
			reach[i] = min(bandAt(s.n, s.minBand, s.maxBand, s.waves, i)/2, s.n-1-i)
		}
		cases = append(cases, bandCase{fmt.Sprintf("variable-%d-[%d,%d]x%d", s.n, s.minBand, s.maxBand, s.waves),
			VariableBand(s.n, s.minBand, s.maxBand, s.waves), reach})
	}
	for _, s := range []struct{ n, count, size int }{{240, 3, 40}, {600, 3, 60}} {
		a := DenseBlockLaplacian(s.n, RandomBlocks(s.n, s.count, s.size, 11))
		b, err := BandOf(a)
		if err != nil {
			t.Fatal(err)
		}
		reach := make([]int, s.n)
		for i := range reach {
			reach[i] = int(a.Col[a.RowPtr[i+1]-1]) - i
		}
		cases = append(cases, bandCase{fmt.Sprintf("dense-%d", s.n), b, reach})
	}
	for _, tc := range cases {
		b, ref := tc.b, newRowBand(tc.reach)
		for k := 0; k+1 < len(b.runs); k++ {
			r, next := b.runs[k], b.runs[k+1]
			if r.start >= next.start || k+2 < len(b.runs) && r.reach == next.reach {
				t.Fatalf("%s: runs %d and %d, %+v and %+v, are not maximal runs", tc.name, k, k+1, r, next)
			}
		}
		if got, err := BandOf(b.Pattern()); err != nil || !reflect.DeepEqual(got, b) {
			t.Fatalf("%s: BandOf(Pattern) = %+v (err %v), want %+v", tc.name, got, err, b)
		}
		if b.NNZ() != int(ref.rowPtr[b.N]) || b.maxReach != ref.maxReach {
			t.Fatalf("%s: NNZ %d, maxReach %d; rows %d and %d", tc.name, b.NNZ(), b.maxReach, ref.rowPtr[b.N], ref.maxReach)
		}
		step := 1
		if b.N > 200 {
			step = 7
		}
		for lo := 0; lo <= b.N; lo += step {
			for hi := lo; hi <= b.N; hi++ {
				if got, want := b.rowNNZ(lo, hi), ref.rowNNZ(lo, hi); got != want {
					t.Fatalf("%s: rowNNZ(%d, %d) = %d, rows %d", tc.name, lo, hi, got, want)
				}
			}
		}
		if got, want := b.Pattern(), ref.pattern(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Pattern differs from the rows'", tc.name)
		}
		parts := []Partition{EvenPartition(b.N, 1), EvenPartition(b.N, b.N), EvenPartition(b.N, min(b.N, 4)), EvenPartition(b.N, min(b.N, 16))}
		for range 12 {
			parts = append(parts, randomPartition(rng, b.N, 1+rng.Intn(min(b.N, 33))))
		}
		for _, part := range parts {
			want := ref.plan(part)
			got, err := b.HaloPlan(part)
			if err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s %v: HaloPlan err %v\n%+v\nrows\n%+v", tc.name, part.Starts, err, got, want)
			}
			got, err = b.AcquirePlan(part)
			if err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s %v: AcquirePlan err %v\n%+v\nrows\n%+v", tc.name, part.Starts, err, got, want)
			}
			got.Release()
		}
	}
}

// TestBandPlanMatchesCSRPlan pins the plan a band builds to the one
// the CSR walk builds: for random bands, the Fig. 2 band and the
// dense-block chain, under the even partition, random ones, p = 1 and
// p = N, Band.HaloPlan is deeply equal to haloPlanOf the band's
// Pattern — ranges, stored entries, every receive and send leg. A
// partition that does not cover the band is an error.
func TestBandPlanMatchesCSRPlan(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	gen := rand.New(rand.NewSource(23))
	dense, err := BandOf(DenseBlockLaplacian(240, RandomBlocks(240, 3, 40, 11)))
	if err != nil {
		t.Fatal(err)
	}
	bands := []struct {
		name string
		b    *Band
	}{
		{"random-1", randomBand(gen, 1)},
		{"random-40", randomBand(gen, 40)},
		{"random-97", randomBand(gen, 97)},
		{"variable-300", VariableBand(300, 2, 24, 3)},
		{"variable-7", VariableBand(7, 2, 3, 1)},
		{"dense-240", dense},
	}
	for _, tc := range bands {
		b := tc.b
		a := b.Pattern()
		for trial := 0; trial < 24; trial++ {
			var part Partition
			switch trial {
			case 0:
				part = EvenPartition(b.N, 1)
			case 1:
				part = EvenPartition(b.N, b.N)
			case 2:
				part = EvenPartition(b.N, min(b.N, 4))
			default:
				part = randomPartition(rng, b.N, 1+rng.Intn(min(b.N, 9)))
			}
			got, err := b.HaloPlan(part)
			if err != nil {
				t.Fatalf("%s %v: %v", tc.name, part.Starts, err)
			}
			if want, err := haloPlanOf(a, part); err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s %v: band plan\n%+v\nCSR plan (err %v)\n%+v", tc.name, part.Starts, got, err, want)
			}
		}
		if _, err := b.HaloPlan(EvenPartition(b.N+1, 1)); err == nil {
			t.Errorf("%s: planned a partition of %d rows", tc.name, b.N+1)
		}
	}
}

// TestBandOf pins the reading of a CSR as a band: it round-trips every
// band's Pattern, agrees with it on NNZ and RowNNZ, and refuses a
// matrix that is not a band — a gap in a row's run (a 2-D grid), a
// missing diagonal, a reach the reached row does not mirror, and a
// left column that does not reach its row — with an error.
func TestBandOf(t *testing.T) {
	gen := rand.New(rand.NewSource(29))
	for _, b := range []*Band{randomBand(gen, 1), randomBand(gen, 50), VariableBand(200, 2, 30, 2)} {
		a := b.Pattern()
		got, err := BandOf(a)
		if err != nil || !reflect.DeepEqual(got, b) {
			t.Fatalf("%d rows: BandOf(Pattern) = %+v (err %v), want %+v", b.N, got, err, b)
		}
		if b.NNZ() != a.NNZ() {
			t.Fatalf("%d rows: NNZ %d, pattern %d", b.N, b.NNZ(), a.NNZ())
		}
		for lo := 0; lo <= b.N; lo += 7 {
			for hi := lo; hi <= b.N; hi += 11 {
				if b.rowNNZ(lo, hi) != a.RowNNZ(lo, hi) {
					t.Fatalf("%d rows: RowNNZ(%d, %d) = %d, pattern %d", b.N, lo, hi, b.rowNNZ(lo, hi), a.RowNNZ(lo, hi))
				}
			}
		}
	}
	csr := func(rows ...[]int32) *CSR {
		a := &CSR{N: len(rows), RowPtr: make([]int, len(rows)+1)}
		for i, row := range rows {
			a.Col = append(a.Col, row...)
			a.RowPtr[i+1] = len(a.Col)
		}
		return a
	}
	for _, tc := range []struct {
		name string
		a    *CSR
	}{
		{"grid", Poisson2D(4, 4)},
		{"no diagonal", csr([]int32{1}, []int32{0, 1})},
		{"unmirrored reach", csr([]int32{0, 1}, []int32{1}, []int32{2})},
		{"left column out of reach", csr([]int32{0, 1}, []int32{0, 1, 2}, []int32{0, 2})},
	} {
		if b, err := BandOf(tc.a); err == nil {
			t.Errorf("%s: BandOf read a band %+v", tc.name, b)
		}
	}
}

// TestReusedPlanMatchesFresh pins planning into used storage: on
// random partitions of random bands, a plan built where a plan of more
// ranks (32), of fewer (4) or of one rank was built before, of another
// band, is deeply equal to a fresh Band.HaloPlan — nothing of the
// earlier plan survives the reset, and the storage grows when it is
// short. A plan from AcquirePlan, released and acquired again, is too.
func TestReusedPlanMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	gen := rand.New(rand.NewSource(29))
	prior := randomBand(gen, 64)
	for _, n := range []int{1, 9, 40, 97, 160} {
		b := randomBand(gen, n)
		for trial := 0; trial < 12; trial++ {
			part := randomPartition(rng, b.N, 1+rng.Intn(min(b.N, 12)))
			if trial == 0 {
				part = EvenPartition(b.N, min(b.N, 4))
			}
			want, err := b.HaloPlan(part)
			if err != nil {
				t.Fatal(err)
			}
			for _, before := range []int{32, 4, 1} {
				hp := new(HaloPlan)
				if err := prior.plan(hp, randomPartition(rng, prior.N, before)); err != nil {
					t.Fatal(err)
				}
				if err := b.plan(hp, part); err != nil || !reflect.DeepEqual(hp, want) {
					t.Fatalf("n=%d %v after a %d-rank plan: err %v, plan\n%+v\nfresh\n%+v", n, part.Starts, before, err, hp, want)
				}
			}
			got, err := b.AcquirePlan(part)
			if err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d %v: AcquirePlan err %v, plan\n%+v\nfresh\n%+v", n, part.Starts, err, got, want)
			}
			got.Release()
		}
	}
	if _, err := prior.AcquirePlan(EvenPartition(prior.N+1, 2)); err == nil {
		t.Error("AcquirePlan planned a partition of another size")
	}
}

// TestBandReachLimit pins a band's farthest reach, maxBandReach: a row
// reaching exactly that far is kept and read back by BandOf, every
// row's entry count agrees with the per-row form on it and on the band
// of the most entries such rows can hold, and one column farther
// VariableBand panics, newBand too, and BandOf returns an error naming
// the limit.
func TestBandReachLimit(t *testing.T) {
	// Row 0 reaches every later row; no other row reaches any.
	fan := func(n int) func(int) int {
		return func(i int) int {
			if i == 0 {
				return n - 1
			}
			return 0
		}
	}
	n := maxBandReach + 1
	b := newBand(n, fan(n))
	if b.maxReach != maxBandReach || b.NNZ() != n+2*maxBandReach {
		t.Fatalf("a row reaching %d columns: maxReach %d, NNZ %d, want %d and %d", maxBandReach, b.maxReach, b.NNZ(), maxBandReach, n+2*maxBandReach)
	}
	if got, err := BandOf(b.Pattern()); err != nil || !reflect.DeepEqual(got, b) {
		t.Fatalf("BandOf(Pattern) of a row reaching %d columns: err %v", maxBandReach, err)
	}
	// The closed forms sum whole windows of the farthest reach: they must
	// fit a 32-bit int, on the fan and on the band whose top rows reach
	// as far as they may until it holds math.MaxInt32 entries.
	wide := func(n int) func(int) int {
		left := (math.MaxInt32 - n) / 2
		return func(i int) int {
			m := min(maxBandReach, n-1-i, left)
			left -= m
			return m
		}
	}
	for _, tc := range []struct {
		name  string
		n     int
		reach func(int) int
	}{{"fan", n, fan(n)}, {"widest", 100_001, wide(100_001)}} {
		reach := make([]int, tc.n)
		for i := range reach {
			reach[i] = tc.reach(i)
		}
		b, ref := newBand(tc.n, func(i int) int { return reach[i] }), newRowBand(reach)
		for h := 0; h <= tc.n; h++ {
			if got, want := b.rowNNZ(0, h), ref.rowNNZ(0, h); got != want {
				t.Fatalf("%s: rowNNZ(0, %d) = %d, rows %d", tc.name, h, got, want)
			}
		}
	}

	// The same fan one row taller: row 0 reaches one column past the limit.
	n++
	over := &CSR{N: n, RowPtr: make([]int, n+1)}
	for i := 0; i < n; i++ {
		if i == 0 {
			for j := 0; j < n; j++ {
				over.Col = append(over.Col, int32(j))
			}
		} else {
			over.Col = append(over.Col, 0, int32(i))
		}
		over.RowPtr[i+1] = len(over.Col)
	}
	if _, err := BandOf(over); err == nil || !strings.Contains(err.Error(), "limit") {
		t.Errorf("BandOf of a row reaching %d columns: err %v, want the reach limit", n-1, err)
	}
	mustPanic(t, "newBand past the reach limit", func() { newBand(n, fan(n)) })
	mustPanic(t, "VariableBand past the reach limit", func() {
		VariableBand(2*(maxBandReach+1), 2*(maxBandReach+1), 2*(maxBandReach+1), 1)
	})
}

// TestBandEntryLimit pins a band's entry count at math.MaxInt32, the
// limit of its int32 row pointers: reaches that store exactly that many
// entries build, two more (a reach adds an entry and its mirror) are an
// error, and VariableBand panics past it. BandOf shares the check, but
// a CSR it could refuse on this count holds over 2³⁰ columns, too many
// for a test.
func TestBandEntryLimit(t *testing.T) {
	const n = 100_001
	// Rows from the top reach as far as they may until the band stores
	// total entries: n diagonals and twice the reaches.
	reaching := func(total int64) func(int) int {
		left := (total - n) / 2
		return func(i int) int {
			m := min(int64(maxBandReach), int64(n-1-i), left)
			left -= m
			return int(m)
		}
	}
	b, err := buildBand(n, reaching(math.MaxInt32))
	if err != nil || int64(b.NNZ()) != math.MaxInt32 || b.rowNNZ(0, n) != b.NNZ() {
		t.Fatalf("a band of %d entries: err %v, NNZ %d", int64(math.MaxInt32), err, b.NNZ())
	}
	if _, err := buildBand(n, reaching(math.MaxInt32+2)); err == nil || !strings.Contains(err.Error(), "limit") {
		t.Errorf("a band of %d entries: err %v, want the entry limit", int64(math.MaxInt32)+2, err)
	}
	mustPanic(t, "VariableBand past the entry limit", func() { VariableBand(2*maxBandReach, 2*maxBandReach, 2*maxBandReach, 1) })
}

// mustPanic fails the test unless f panics with the band limit.
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "limit") {
			t.Errorf("%s: recovered %v, want a panic naming the limit", what, r)
		}
	}()
	f()
}
