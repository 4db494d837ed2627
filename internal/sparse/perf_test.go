package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"harmony/internal/simmpi"
)

// TestBuilderAllocationRegression pins the generators' allocation
// behaviour: constructing a matrix costs a small constant number of
// allocations, independent of the number of nonzeros. The previous
// map-of-maps builder allocated per row and per entry — thousands for
// these sizes — so a ceiling two orders of magnitude below that
// catches any slide back. VariableBand allocates the band and its
// runs, its Pattern the CSR with its row pointers and columns, and
// VariableBandLaplacian adds the values, so their ceiling is a fixed
// handful. VariableBand's bytes are pinned too, at 16 per run and 64
// for the band: a run takes 12, and size-class rounding lifts that to
// ~12.4 for the 61 runs and sentinel (816 bytes in all) at 2000 rows,
// where the per-row reaches and row pointers it held before took 6
// bytes per row (12 KiB).
func TestBuilderAllocationRegression(t *testing.T) {
	const n = 2000
	cases := []struct {
		name      string
		build     func()
		maxAllocs float64
		maxBytes  float64 // per build, size-class rounding included; 0 = unpinned
	}{
		{"Poisson2D", func() { Poisson2D(64, 64) }, 128, 0},
		{"DenseBlockLaplacian", func() { DenseBlockLaplacian(n, []Block{{5, 100}, {900, 200}}) }, 128, 0},
		{"VariableBand", func() { VariableBand(n, 2, 16, 4) }, 2, float64(16*len(VariableBand(n, 2, 16, 4).runs) + 64)},
		{"VariableBand.Pattern", func() { VariableBand(n, 2, 16, 4).Pattern() }, 6, 0},
		{"VariableBandLaplacian", func() { VariableBandLaplacian(n, 2, 16, 4) }, 8, 0},
	}
	for _, tc := range cases {
		allocs := testing.AllocsPerRun(10, tc.build)
		if allocs > tc.maxAllocs {
			t.Errorf("%s: %v allocs per build, want <= %v (nnz-proportional allocation regression)", tc.name, allocs, tc.maxAllocs)
		}
		if tc.maxBytes == 0 || raceEnabled {
			continue
		}
		if bytes := bytesPerRun(10, tc.build); bytes > tc.maxBytes {
			t.Errorf("%s: %v bytes per build, want <= %v", tc.name, bytes, tc.maxBytes)
		}
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the heap bytes an
// average call of f allocates, size-class rounding included, after one
// warm-up call.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// BenchmarkVariableBand builds the Fig. 2 large case's band, whose
// build every SLES campaign pays: B/op is the band's footprint.
func BenchmarkVariableBand(b *testing.B) {
	b.ReportAllocs()
	for b.Loop() {
		VariableBand(6000, 4, 120, 2)
	}
}

// BenchmarkBandPlan builds and releases pooled plans of the Fig. 2
// large band, as every SLES evaluation does, over a fixed spread of
// partitions: the even ones and seeded random ones of 16 and 32 ranks.
// ns/op is one plan; once the pool is warm it allocates nothing.
func BenchmarkBandPlan(b *testing.B) {
	band := VariableBand(6000, 4, 120, 2)
	rng := rand.New(rand.NewSource(7))
	var parts []Partition
	for _, p := range []int{16, 32} {
		parts = append(parts, EvenPartition(band.N, p))
		for range 7 {
			parts = append(parts, randomPartition(rng, band.N, p))
		}
	}
	// Warm the pool with a plan of the most ranks.
	hp, err := band.AcquirePlan(parts[len(parts)-1])
	if err != nil {
		b.Fatal(err)
	}
	hp.Release()
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		hp, err := band.AcquirePlan(parts[i%len(parts)])
		if err != nil {
			b.Fatal(err)
		}
		hp.Release()
		i++
	}
}

// TestMatVecMatchesMulVecBitwise checks the colIdx fast path: the
// distributed product over any partition must agree with the dense
// reference. Per-row accumulation order is identical (CSR order), so
// the comparison is exact, not within-epsilon.
func TestMatVecMatchesMulVecBitwise(t *testing.T) {
	a := VariableBandLaplacian(120, 2, 9, 3)
	xg := make([]float64, a.N)
	for i := range xg {
		xg[i] = math.Sin(float64(i)*0.7) + 0.01*float64(i%17)
	}
	want := a.MulVec(xg)
	for _, p := range []int{1, 3, 5} {
		part := EvenPartition(a.N, p)
		dm, err := NewDistMatrix(a, part)
		if err != nil {
			t.Fatalf("NewDistMatrix(p=%d): %v", p, err)
		}
		got := make([]float64, a.N)
		_, err = simmpi.Run(distTestMachine(p, 1), p, func(r *simmpi.Rank) {
			yl := dm.MatVecInto(new(Workspace), r, 0, dm.Scatter(r.ID(), xg))
			lo, _ := part.Range(r.ID())
			copy(got[lo:], yl)
		})
		if err != nil {
			t.Fatalf("Run(p=%d): %v", p, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("p=%d: y[%d] = %v, want exactly %v", p, i, got[i], want[i])
			}
		}
	}
}

// variableBandLaplacian is VariableBandLaplacian through the triplet
// builder, as it was generated before the direct assembly: the
// reference TestPresizedBuilderSameMatrix holds the direct one to.
func variableBandLaplacian(b *builder, minBand, maxBand, waves int) *CSR {
	n := b.n
	// off accumulates each row's absolute off-diagonal mass in the
	// order the entries are emitted.
	off := make([]float64, n)
	for i := 0; i < n; i++ {
		half := bandAt(n, minBand, maxBand, waves, i) / 2
		for k := 1; k <= half && i+k < n; k++ {
			v := -1.0 / float64(k)
			b.set(i, i+k, v)
			b.set(i+k, i, v)
			off[i] += math.Abs(v)
			off[i+k] += math.Abs(v)
		}
	}
	// Diagonal dominance.
	for i := 0; i < n; i++ {
		b.set(i, i, off[i]+1)
	}
	return b.build()
}

// sameBits reports whether two matrices have the same structure and
// the same value bits entry by entry (reflect.DeepEqual would let +0
// equal -0).
func sameBits(a, b *CSR) bool {
	if a.N != b.N || !reflect.DeepEqual(a.RowPtr, b.RowPtr) || !reflect.DeepEqual(a.Col, b.Col) || len(a.Val) != len(b.Val) {
		return false
	}
	for k := range a.Val {
		if math.Float64bits(a.Val[k]) != math.Float64bits(b.Val[k]) {
			return false
		}
	}
	return true
}

// TestPresizedBuilderSameMatrix checks that the generators changed
// nothing but the garbage. The band matrix, assembled straight into
// CSR, carries the same structure and value bits as the builder-based
// reference, and VariableBand's Pattern is exactly its structure with
// no values, as BandOf reads it back; the edge specs cover a band as wide as the matrix, a
// constant band, no waves, and odd sizes. The dense-block matrix is
// deeply equal to the one its emit loop produces on a builder that
// starts empty and grows by doubling. Each sized build — the update
// counts being exact — performs a fixed handful of allocations.
func TestPresizedBuilderSameMatrix(t *testing.T) {
	type genCase struct {
		name           string
		sized, unsized func() *CSR
		band           func() *Band // the structure of sized, or nil
	}
	var cases []genCase
	for _, s := range []struct{ n, minBand, maxBand, waves int }{
		{4000, 16, 100, 2},
		{333, 2, 120, 5},
		{120, 4, 120, 2}, // n == maxBand
		{121, 2, 121, 3}, // n == maxBand, odd
		{500, 9, 9, 4},   // minBand == maxBand
		{301, 3, 40, 0},  // no waves
		{7, 2, 3, 1},
	} {
		cases = append(cases, genCase{fmt.Sprintf("band-%d-[%d,%d]x%d", s.n, s.minBand, s.maxBand, s.waves),
			func() *CSR { return VariableBandLaplacian(s.n, s.minBand, s.maxBand, s.waves) },
			func() *CSR { return variableBandLaplacian(newBuilder(s.n, 0), s.minBand, s.maxBand, s.waves) },
			func() *Band { return VariableBand(s.n, s.minBand, s.maxBand, s.waves) }})
	}
	blocks := RandomBlocks(600, 3, 60, 11)
	cases = append(cases, genCase{"dense-600", func() *CSR { return DenseBlockLaplacian(600, blocks) },
		func() *CSR { return denseBlockLaplacian(newBuilder(600, 0), blocks) }, nil})
	for _, tc := range cases {
		got, want := tc.sized(), tc.unsized()
		if !sameBits(got, want) {
			t.Errorf("%s: build differs from the builder reference", tc.name)
		}
		if err := got.checkRows(); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
		if tc.band != nil {
			b := tc.band()
			if pat := b.Pattern(); pat.Val != nil || !sameBits(pat, &CSR{N: got.N, RowPtr: got.RowPtr, Col: got.Col}) {
				t.Errorf("%s: the pattern is not the matrix's structure without values", tc.name)
			}
			if read, err := BandOf(got); err != nil || !reflect.DeepEqual(read, b) {
				t.Errorf("%s: BandOf reads back a different band (err %v)", tc.name, err)
			}
		}
		if allocs := testing.AllocsPerRun(3, func() { tc.sized() }); allocs > 12 {
			t.Errorf("%s: %v allocs per sized build, want <= 12 (update count too low: the triplet slices grew)", tc.name, allocs)
		}
	}
}
