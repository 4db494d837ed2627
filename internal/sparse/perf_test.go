package sparse

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"harmony/internal/simmpi"
)

// TestBuilderAllocationRegression pins the generators' allocation
// behaviour: constructing a matrix costs a small constant number of
// allocations, independent of the number of nonzeros. The previous
// map-of-maps builder allocated per row and per entry — thousands for
// these sizes — so a ceiling two orders of magnitude below that
// catches any slide back. VariableBandLaplacian, assembled directly,
// allocates the CSR's three slices, the CSR itself and two n-length
// scratch arrays, so its ceiling is a fixed handful.
func TestBuilderAllocationRegression(t *testing.T) {
	cases := []struct {
		name      string
		build     func()
		maxAllocs float64
	}{
		{"Poisson2D", func() { Poisson2D(64, 64) }, 128},
		{"DenseBlockLaplacian", func() { DenseBlockLaplacian(2000, []Block{{5, 100}, {900, 200}}) }, 128},
		{"VariableBandLaplacian", func() { VariableBandLaplacian(2000, 2, 16, 4) }, 8},
	}
	for _, tc := range cases {
		allocs := testing.AllocsPerRun(10, tc.build)
		if allocs > tc.maxAllocs {
			t.Errorf("%s: %v allocs per build, want <= %v (nnz-proportional allocation regression)", tc.name, allocs, tc.maxAllocs)
		}
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
			yl := dm.MatVec(r, 0, dm.Scatter(r.ID(), xg))
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

// TestPlanCacheReusesPlans checks the layer-1 cache: the same
// partition yields the same *DistMatrix (the communication schedule
// is built once), distinct partitions get distinct plans, and Len
// tracks the number of distinct schedules.
func TestPlanCacheReusesPlans(t *testing.T) {
	a := Poisson2D(10, 10)
	pc := NewPlanCache(a)
	p2 := EvenPartition(a.N, 2)
	dm1, err := pc.Get(p2)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	dm2, err := pc.Get(EvenPartition(a.N, 2))
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if dm1 != dm2 {
		t.Error("equal partitions returned distinct plans")
	}
	if pc.Len() != 1 {
		t.Errorf("Len = %d after repeated Get, want 1", pc.Len())
	}
	dm3, err := pc.Get(EvenPartition(a.N, 4))
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if dm3 == dm1 {
		t.Error("distinct partitions shared a plan")
	}
	if pc.Len() != 2 {
		t.Errorf("Len = %d after two distinct partitions, want 2", pc.Len())
	}
	// A shifted boundary with the same rank count is a distinct key.
	if _, err := pc.Get(FromBoundaries(a.N, []int{30})); err != nil {
		t.Fatalf("Get: %v", err)
	}
	if pc.Len() != 3 {
		t.Errorf("Len = %d after shifted boundary, want 3", pc.Len())
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
// reference; the edge specs cover a band as wide as the matrix, a
// constant band, no waves, and odd sizes. The dense-block matrix is
// deeply equal to the one its emit loop produces on a builder that
// starts empty and grows by doubling. Each sized build — the update
// counts being exact — performs a fixed handful of allocations.
func TestPresizedBuilderSameMatrix(t *testing.T) {
	type genCase struct {
		name           string
		sized, unsized func() *CSR
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
			func() *CSR { return variableBandLaplacian(newBuilder(s.n, 0), s.minBand, s.maxBand, s.waves) }})
	}
	blocks := RandomBlocks(600, 3, 60, 11)
	cases = append(cases, genCase{"dense-600", func() *CSR { return DenseBlockLaplacian(600, blocks) },
		func() *CSR { return denseBlockLaplacian(newBuilder(600, 0), blocks) }})
	for _, tc := range cases {
		got, want := tc.sized(), tc.unsized()
		if !sameBits(got, want) {
			t.Errorf("%s: build differs from the builder reference", tc.name)
		}
		if err := got.checkRows(); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
		if allocs := testing.AllocsPerRun(3, func() { tc.sized() }); allocs > 12 {
			t.Errorf("%s: %v allocs per sized build, want <= 12 (update count too low: the triplet slices grew)", tc.name, allocs)
		}
	}
}
