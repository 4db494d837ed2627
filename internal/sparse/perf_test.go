package sparse

import (
	"math"
	"reflect"
	"testing"

	"harmony/internal/simmpi"
)

// TestBuilderAllocationRegression pins the triplet-slice builder's
// allocation behaviour: constructing a matrix costs a small constant
// number of allocations (the triplet and CSR slices plus amortised
// growth), independent of the number of nonzeros. The previous
// map-of-maps builder allocated per row and per entry — thousands for
// these sizes — so a ceiling two orders of magnitude below that
// catches any slide back.
func TestBuilderAllocationRegression(t *testing.T) {
	cases := []struct {
		name  string
		build func()
	}{
		{"Poisson2D", func() { Poisson2D(64, 64) }},
		{"DenseBlockLaplacian", func() { DenseBlockLaplacian(2000, []Block{{5, 100}, {900, 200}}) }},
		{"VariableBandLaplacian", func() { VariableBandLaplacian(2000, 2, 16, 4) }},
	}
	const maxAllocs = 128
	for _, tc := range cases {
		allocs := testing.AllocsPerRun(10, tc.build)
		if allocs > maxAllocs {
			t.Errorf("%s: %v allocs per build, want <= %d (nnz-proportional allocation regression)", tc.name, allocs, maxAllocs)
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

// TestPresizedBuilderSameMatrix checks that sizing the triplet builder
// up front changed nothing but the garbage: each generator's matrix is
// deeply equal to the one the same emit loop produces on a builder
// that starts empty and grows by doubling, and — the update counts
// being exact — a sized build performs a fixed handful of allocations.
func TestPresizedBuilderSameMatrix(t *testing.T) {
	blocks := RandomBlocks(600, 3, 60, 11)
	cases := []struct {
		name           string
		sized, unsized func() *CSR
	}{
		{"band-4000", func() *CSR { return VariableBandLaplacian(4000, 16, 100, 2) },
			func() *CSR { return variableBandLaplacian(newBuilder(4000, 0), 16, 100, 2) }},
		{"band-odd", func() *CSR { return VariableBandLaplacian(333, 2, 120, 5) },
			func() *CSR { return variableBandLaplacian(newBuilder(333, 0), 2, 120, 5) }},
		{"dense-600", func() *CSR { return DenseBlockLaplacian(600, blocks) },
			func() *CSR { return denseBlockLaplacian(newBuilder(600, 0), blocks) }},
	}
	for _, tc := range cases {
		if got, want := tc.sized(), tc.unsized(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: presized build differs from the unsized one", tc.name)
		}
		if allocs := testing.AllocsPerRun(3, func() { tc.sized() }); allocs > 12 {
			t.Errorf("%s: %v allocs per sized build, want <= 12 (update count too low: the triplet slices grew)", tc.name, allocs)
		}
	}
}
