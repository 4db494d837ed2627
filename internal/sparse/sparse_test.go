package sparse

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"harmony/internal/cluster"
	"harmony/internal/simmpi"
)

func TestPoisson2DStructure(t *testing.T) {
	a := Poisson2D(3, 3)
	if a.N != 9 {
		t.Fatalf("N = %d, want 9", a.N)
	}
	// Interior point (1,1) = row 4 has 5 entries; corner row 0 has 3.
	if got := a.RowNNZ(4, 5); got != 5 {
		t.Errorf("interior row nnz = %d, want 5", got)
	}
	if got := a.RowNNZ(0, 1); got != 3 {
		t.Errorf("corner row nnz = %d, want 3", got)
	}
	// Symmetry check via dense reference.
	for i := 0; i < a.N; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			j := int(a.Col[k])
			found := false
			for k2 := a.RowPtr[j]; k2 < a.RowPtr[j+1]; k2++ {
				if int(a.Col[k2]) == i && a.Val[k2] == a.Val[k] {
					found = true
				}
			}
			if !found {
				t.Fatalf("asymmetric entry (%d,%d)", i, j)
			}
		}
	}
}

func TestDenseBlockLaplacianDiagonallyDominant(t *testing.T) {
	a := DenseBlockLaplacian(100, []Block{{10, 20}, {60, 30}})
	for i := 0; i < a.N; i++ {
		var diag, off float64
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if int(a.Col[k]) == i {
				diag = a.Val[k]
			} else {
				off += math.Abs(a.Val[k])
			}
		}
		if diag <= off {
			t.Fatalf("row %d not diagonally dominant: %v vs %v", i, diag, off)
		}
	}
}

func TestDenseBlockLaplacianBlockNNZ(t *testing.T) {
	plain := DenseBlockLaplacian(100, nil)
	blocked := DenseBlockLaplacian(100, []Block{{10, 20}})
	// The block adds 20*19 off-diagonal entries, minus the 2*19
	// adjacent couplings the tridiagonal base already stores.
	if got := blocked.NNZ() - plain.NNZ(); got != 20*19-2*19 {
		t.Errorf("block added %d entries, want %d", got, 20*19-2*19)
	}
}

func TestRandomBlocksNonOverlapping(t *testing.T) {
	f := func(seed int64) bool {
		blocks := RandomBlocks(1000, 8, 50, seed)
		end := 0
		for _, b := range blocks {
			if b.Start < end || b.Start+b.Size > 1000 {
				return false
			}
			end = b.Start + b.Size
		}
		return len(blocks) == 8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestEvenPartition(t *testing.T) {
	pt := EvenPartition(10, 3)
	if err := pt.Validate(10); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	total := 0
	for r := 0; r < 3; r++ {
		total += rows(pt, r)
	}
	if total != 10 {
		t.Errorf("sizes sum to %d, want 10", total)
	}
	if rows(pt, 0) < 3 || rows(pt, 0) > 4 {
		t.Errorf("even partition size %d", rows(pt, 0))
	}
}

func TestFromBoundariesRepairs(t *testing.T) {
	cases := []struct {
		n      int
		bounds []int
	}{
		{10, []int{3, 7}},
		{10, []int{7, 3}},   // unsorted
		{10, []int{0, 0}},   // collapsed at left
		{10, []int{10, 10}}, // collapsed at right
		{10, []int{5, 5}},   // duplicates
		{3, []int{0, 3}},    // minimum rows
	}
	for _, c := range cases {
		pt := FromBoundaries(c.n, c.bounds)
		if err := pt.Validate(c.n); err != nil {
			t.Errorf("FromBoundaries(%d, %v): %v", c.n, c.bounds, err)
		}
	}
}

func TestFromBoundariesRepairProperty(t *testing.T) {
	f := func(b1, b2, b3 int64) bool {
		const n = 50
		bounds := []int{int(b1 % 100), int(b2 % 100), int(b3 % 100)}
		for i, b := range bounds {
			if b < 0 {
				bounds[i] = -b
			}
		}
		pt := FromBoundaries(n, bounds)
		// Into storage that holds the boundaries, and over stale starts,
		// the repair is the same.
		starts := []int{-1, bounds[0], bounds[1], bounds[2], -1}
		into := FromBoundariesInto(starts, n, starts[1:4])
		return pt.Validate(n) == nil && slices.Equal(into.Starts, pt.Starts)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOwnerOf(t *testing.T) {
	pt := Partition{Starts: []int{0, 4, 4 + 3, 10}}
	wants := []int{0, 0, 0, 0, 1, 1, 1, 2, 2, 2}
	for row, want := range wants {
		if got := pt.ownerOf(row); got != want {
			t.Errorf("OwnerOf(%d) = %d, want %d", row, got, want)
		}
	}
}

func distTestMachine(nodes, ppn int) *cluster.Machine {
	g := make([]float64, nodes)
	for i := range g {
		g[i] = 1.0
	}
	return &cluster.Machine{
		Name: "t", Nodes: nodes, PPN: ppn, Gflops: g,
		Intra: cluster.Link{Latency: 1e-6, Bandwidth: 1e9, Overhead: 1e-7},
		Inter: cluster.Link{Latency: 1e-5, Bandwidth: 1e8, Overhead: 1e-6},
	}
}

func TestDistMatVecMatchesDense(t *testing.T) {
	a := DenseBlockLaplacian(60, []Block{{5, 10}, {40, 12}})
	rng := rand.New(rand.NewSource(9))
	xg := make([]float64, a.N)
	for i := range xg {
		xg[i] = rng.NormFloat64()
	}
	want := a.MulVec(xg)

	for _, p := range []int{1, 2, 3, 4, 7} {
		part := EvenPartition(a.N, p)
		dm, err := NewDistMatrix(a, part)
		if err != nil {
			t.Fatalf("NewDistMatrix(p=%d): %v", p, err)
		}
		got := make([]float64, a.N)
		_, err = simmpi.Run(distTestMachine(p, 1), p, func(r *simmpi.Rank) {
			xl := dm.Scatter(r.ID(), xg)
			yl := dm.MatVecInto(new(Workspace), r, 0, xl)
			lo, _ := part.Range(r.ID())
			copy(got[lo:], yl) // each rank writes a disjoint range
		})
		if err != nil {
			t.Fatalf("Run(p=%d): %v", p, err)
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-12 {
				t.Fatalf("p=%d: y[%d] = %v, want %v", p, i, got[i], want[i])
			}
		}
	}
}

func TestDistMatVecProperty(t *testing.T) {
	// Property: distributed product equals dense product for random
	// partitions of a random-ish matrix.
	a := Poisson2D(8, 8)
	xg := make([]float64, a.N)
	for i := range xg {
		xg[i] = float64(i%13) - 6
	}
	want := a.MulVec(xg)
	f := func(seedRaw int64) bool {
		rng := rand.New(rand.NewSource(seedRaw))
		p := 2 + rng.Intn(5)
		bounds := make([]int, p-1)
		for i := range bounds {
			bounds[i] = rng.Intn(a.N)
		}
		part := FromBoundaries(a.N, bounds)
		dm, err := NewDistMatrix(a, part)
		if err != nil {
			return false
		}
		got := make([]float64, a.N)
		_, err = simmpi.Run(distTestMachine(p, 1), p, func(r *simmpi.Rank) {
			yl := dm.MatVecInto(new(Workspace), r, 0, dm.Scatter(r.ID(), xg))
			lo, _ := part.Range(r.ID())
			copy(got[lo:], yl)
		})
		if err != nil {
			return false
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// rows is the number of rows part gives rank.
func rows(part Partition, rank int) int {
	lo, hi := part.Range(rank)
	return hi - lo
}

func TestHaloBytesGrowWhenBlockSplit(t *testing.T) {
	// Splitting a dense block across a boundary must increase halo
	// volume versus aligning the boundary with the block edge: the
	// paper's Fig. 2(a) boundary-A-vs-boundary-B effect.
	a := DenseBlockLaplacian(100, []Block{{40, 20}})
	aligned, err := NewDistMatrix(a, Partition{Starts: []int{0, 40, 100}})
	if err != nil {
		t.Fatal(err)
	}
	split, err := NewDistMatrix(a, Partition{Starts: []int{0, 50, 100}})
	if err != nil {
		t.Fatal(err)
	}
	alignedHalo := haloBytes(aligned.HaloPlan, 0) + haloBytes(aligned.HaloPlan, 1)
	splitHalo := haloBytes(split.HaloPlan, 0) + haloBytes(split.HaloPlan, 1)
	if splitHalo <= alignedHalo {
		t.Errorf("split halo %d should exceed aligned halo %d", splitHalo, alignedHalo)
	}
}

func TestLocalNNZAndMax(t *testing.T) {
	a := DenseBlockLaplacian(100, []Block{{0, 30}})
	part := EvenPartition(100, 2)
	dm, err := NewDistMatrix(a, part)
	if err != nil {
		t.Fatal(err)
	}
	if dm.LocalNNZ(0) <= dm.LocalNNZ(1) {
		t.Errorf("rank 0 holds the dense block; nnz %d vs %d", dm.LocalNNZ(0), dm.LocalNNZ(1))
	}
	if dm.MaxLocalNNZ() != dm.LocalNNZ(0) {
		t.Errorf("MaxLocalNNZ = %d, want %d", dm.MaxLocalNNZ(), dm.LocalNNZ(0))
	}
	if dm.LocalSize(0) != 50 {
		t.Errorf("LocalSize = %d, want 50", dm.LocalSize(0))
	}
}

func TestNewDistMatrixRejectsBadPartition(t *testing.T) {
	a := Poisson2D(4, 4)
	if _, err := NewDistMatrix(a, Partition{Starts: []int{0, 20}}); err == nil {
		t.Error("expected error for partition not covering matrix")
	}
	if _, err := NewDistMatrix(a, Partition{}); err == nil {
		t.Error("expected error for the zero partition")
	}
	if _, err := haloPlanOf(a, Partition{Starts: []int{0, 8, 8, 16}}); err == nil {
		t.Error("expected error for an empty range")
	}
}

func TestDotAndAxpySimulated(t *testing.T) {
	m := distTestMachine(2, 1)
	_, err := simmpi.Run(m, 2, func(r *simmpi.Rank) {
		local := []float64{float64(r.ID() + 1), 2}
		// Vectors: rank0 [1,2], rank1 [2,2] -> dot(v,v) = 1+4+4+4 = 13.
		if got := Dot(r, local, local); got != 13 {
			panic("dot wrong")
		}
		y := []float64{1, 1}
		Axpy(r, 2, local, y)
		if y[0] != 1+2*float64(r.ID()+1) {
			panic("axpy wrong")
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}
