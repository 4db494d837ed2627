// Package sparse provides compressed-sparse-row matrices, row
// partitions, and distributed matrix-vector products over the
// simulated message-passing machine — the data-structure layer of the
// mini-PETSc used by the paper's first case study.
//
// A matrix is stored globally (the simulator host holds all data) but
// operated on distributively: a Partition assigns contiguous row
// ranges to ranks, and DistMatrix precomputes, per rank, which remote
// vector entries its rows touch. During a simulated solve each rank
// exchanges exactly those entries, paying the machine's communication
// costs, then computes its local product, paying compute cost
// proportional to its local nonzeros. Moving a partition boundary
// therefore shifts both load balance and communication volume —
// the two effects the paper tunes in Section IV.
//
// Every row of a CSR stores its columns strictly ascending. Halo
// plans rely on it: a rank's off-rank references are the ascending
// prefix of each row below its range and the suffix above it, so a plan
// reads only those ends, O(rows + halo), and never the local middle.
// Every generator here produces such rows; the plan entry points check
// a hand-built matrix and refuse it with an error rather than mis-plan
// it.
//
// Columns are int32: a matrix, and every generator here, has at most
// math.MaxInt32 rows. Values are optional: a structure-only matrix
// (Val nil) plans like any other, and the numeric product (DistMatrix,
// MulVec) refuses it.
//
// A Band holds a symmetric pattern as its maximal runs of rows of equal
// reach, 12 bytes per run whatever its rows and stored entries: the
// form a cost-only application keeps (260 runs, ~3 KiB, for the Fig. 2
// large band of 6 000 rows). A reach is at most 65 535 columns
// (maxBandReach) and a band stores at most math.MaxInt32 entries.
// Both Fig. 2 matrices are bands (VariableBand; BandOf of a dense-block
// Laplacian), and a Band plans a partition from the runs alone, in
// closed forms per run with no row or column list to read, into the
// plan NewDistMatrix builds from its Pattern; AcquirePlan builds it
// into pooled storage for one evaluation, with no allocation once
// warm. VariableBandLaplacian is
// VariableBand's Pattern plus one value pass in which each row's
// diagonal accumulates its off-diagonal mass in column order, the order
// the generator has always summed it in, so every value is the same
// bits the triplet builder produced. Poisson2D and DenseBlockLaplacian
// still go through the builder.
package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
)

// CSR is a square sparse matrix in compressed-sparse-row form. Row i
// is Col/Val[RowPtr[i]:RowPtr[i+1]], and its columns are strictly
// ascending and inside [0, N): halo plans read only the off-rank ends
// of each row and refuse a matrix that breaks this (see checkRows).
// Val is optional: nil makes a structure-only matrix, which plans but
// has no product. A cost-only application keeps a Band instead.
type CSR struct {
	N      int
	RowPtr []int // len N+1
	Col    []int32
	Val    []float64 // len(Col), or nil
}

// checkSize panics unless an n-row matrix fits int32 columns: every
// generator calls it first.
func checkSize(n int) {
	if n < 0 || n > math.MaxInt32 {
		panic(fmt.Sprintf("sparse: %d rows do not fit int32 columns", n))
	}
}

// maxBandReach is the farthest a Band row may reach right of its
// diagonal: reaches are held as uint16, and their prefix sums as int32.
const maxBandReach = math.MaxUint16

// hasValues reports whether a stores a value for every entry.
func (a *CSR) hasValues() bool { return len(a.Val) == len(a.Col) }

// NNZ returns the number of stored entries.
func (a *CSR) NNZ() int { return len(a.Col) }

// checkRows reports the first violation of the row invariant: RowPtr
// spans Col monotonically and every row's columns are strictly
// ascending in [0, N). It is O(nnz), so the plan entry points run it
// once per matrix, not per partition.
func (a *CSR) checkRows() error {
	if a.N < 0 || a.N > math.MaxInt32 {
		return fmt.Errorf("sparse: %d rows do not fit int32 columns", a.N)
	}
	if len(a.RowPtr) != a.N+1 || a.RowPtr[0] != 0 || a.RowPtr[a.N] != len(a.Col) {
		return fmt.Errorf("sparse: row pointers do not span the %d stored columns of a %d-row matrix", len(a.Col), a.N)
	}
	n := int32(a.N)
	for i := 0; i < a.N; i++ {
		if a.RowPtr[i+1] < a.RowPtr[i] {
			return fmt.Errorf("sparse: row %d ends before it starts", i)
		}
		prev := int32(-1)
		for _, c := range a.Col[a.RowPtr[i]:a.RowPtr[i+1]] {
			if c <= prev || c >= n {
				return fmt.Errorf("sparse: row %d columns are not strictly ascending in [0,%d) at column %d", i, a.N, c)
			}
			prev = c
		}
	}
	return nil
}

// RowNNZ returns the number of stored entries in rows [lo, hi).
func (a *CSR) RowNNZ(lo, hi int) int {
	return a.RowPtr[hi] - a.RowPtr[lo]
}

// MulVec computes y = A·x densely on the host (no simulation); used
// as the reference implementation in tests. It panics on a
// structure-only matrix.
func (a *CSR) MulVec(x []float64) []float64 {
	if !a.hasValues() {
		panic(fmt.Sprintf("sparse: MulVec of a matrix with %d values for %d entries", len(a.Val), len(a.Col)))
	}
	if len(x) != a.N {
		panic(fmt.Sprintf("sparse: MulVec dimension mismatch: %d vs %d", len(x), a.N))
	}
	y := make([]float64, a.N)
	for i := 0; i < a.N; i++ {
		var s float64
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			s += a.Val[k] * x[a.Col[k]]
		}
		y[i] = s
	}
	return y
}

// triplet is one recorded matrix update. set replaces any earlier
// value of the cell; otherwise the value accumulates.
type triplet struct {
	j   int
	v   float64
	set bool
}

// builder accumulates triplets in flat slices and freezes them into
// CSR with a bucket-by-row, sort-within-row merge. Unlike the
// previous map-of-maps representation it performs no per-row map
// allocation and no hashing, and the freeze applies duplicate updates
// in their original program order, so the result is deterministic to
// the bit.
type builder struct {
	n     int
	rowOf []int // rowOf[k] is the row of trips[k]
	trips []triplet
}

// newBuilder returns a builder for an n×n matrix with room for the
// given number of updates: generators know (or cheaply count) how many
// they emit, and growing the triplet slices by doubling instead costs
// several times the finished matrix in garbage.
func newBuilder(n, updates int) *builder {
	checkSize(n)
	return &builder{n: n, rowOf: make([]int, 0, updates), trips: make([]triplet, 0, updates)}
}

func (b *builder) add(i, j int, v float64) {
	b.rowOf = append(b.rowOf, i)
	b.trips = append(b.trips, triplet{j: j, v: v})
}

func (b *builder) set(i, j int, v float64) {
	b.rowOf = append(b.rowOf, i)
	b.trips = append(b.trips, triplet{j: j, v: v, set: true})
}

func (b *builder) build() *CSR {
	// Stable bucket by row: counting sort keeps each row's updates in
	// program order.
	counts := make([]int, b.n+1)
	for _, i := range b.rowOf {
		counts[i+1]++
	}
	for i := 0; i < b.n; i++ {
		counts[i+1] += counts[i]
	}
	byRow := make([]triplet, len(b.trips))
	next := make([]int, b.n)
	copy(next, counts[:b.n])
	for k, t := range b.trips {
		i := b.rowOf[k]
		byRow[next[i]] = t
		next[i]++
	}

	a := &CSR{N: b.n, RowPtr: make([]int, b.n+1)}
	a.Col = make([]int32, 0, len(b.trips))
	a.Val = make([]float64, 0, len(b.trips))
	for i := 0; i < b.n; i++ {
		row := byRow[counts[i]:counts[i+1]]
		// Stable insertion sort by column: duplicates stay in program
		// order so set/add semantics replay exactly.
		for x := 1; x < len(row); x++ {
			for y := x; y > 0 && row[y].j < row[y-1].j; y-- {
				row[y], row[y-1] = row[y-1], row[y]
			}
		}
		for x := 0; x < len(row); {
			j := row[x].j
			var acc float64
			for ; x < len(row) && row[x].j == j; x++ {
				if row[x].set {
					acc = row[x].v
				} else {
					acc += row[x].v
				}
			}
			a.Col = append(a.Col, int32(j))
			a.Val = append(a.Val, acc)
		}
		a.RowPtr[i+1] = len(a.Col)
	}
	return a
}

// Poisson2D builds the standard 5-point finite-difference Laplacian
// on an nx×ny grid with Dirichlet boundaries: the matrix of the
// paper's first PETSc example (SLES on a linear system). N = nx·ny.
func Poisson2D(nx, ny int) *CSR {
	b := newBuilder(nx*ny, 5*nx*ny)
	idx := func(i, j int) int { return j*nx + i }
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			r := idx(i, j)
			b.set(r, r, 4)
			if i > 0 {
				b.set(r, idx(i-1, j), -1)
			}
			if i < nx-1 {
				b.set(r, idx(i+1, j), -1)
			}
			if j > 0 {
				b.set(r, idx(i, j-1), -1)
			}
			if j < ny-1 {
				b.set(r, idx(i, j+1), -1)
			}
		}
	}
	return b.build()
}

// Block describes one dense sub-block on the diagonal.
type Block struct {
	Start, Size int
}

// DenseBlockLaplacian builds the Fig. 2 test matrix: a 1-D Laplacian
// chain of size n with dense symmetric positive-definite sub-blocks
// injected on the diagonal. The dense blocks model strongly coupled
// regions; a partition boundary that cuts through one turns its
// couplings into remote references, exactly the effect shown in the
// paper's Fig. 2(a) (boundary A versus boundary B).
func DenseBlockLaplacian(n int, blocks []Block) *CSR {
	updates := 3 * n
	for _, blk := range blocks {
		updates += blk.Size * blk.Size
	}
	return denseBlockLaplacian(newBuilder(n, updates), blocks)
}

func denseBlockLaplacian(b *builder, blocks []Block) *CSR {
	n := b.n
	for i := 0; i < n; i++ {
		b.set(i, i, 4)
		if i > 0 {
			b.set(i, i-1, -1)
		}
		if i < n-1 {
			b.set(i, i+1, -1)
		}
	}
	for _, blk := range blocks {
		end := blk.Start + blk.Size
		if blk.Start < 0 || end > n || blk.Size <= 0 {
			panic(fmt.Sprintf("sparse: block [%d,%d) outside matrix of size %d", blk.Start, end, n))
		}
		for i := blk.Start; i < end; i++ {
			for j := blk.Start; j < end; j++ {
				if i == j {
					// Keep diagonal dominance: the row gains Size-1
					// off-diagonal entries of magnitude 0.01.
					b.add(i, i, 0.02*float64(blk.Size))
				} else {
					b.add(i, j, -0.01)
				}
			}
		}
	}
	return b.build()
}

// VariableBandLaplacian builds a symmetric positive-definite matrix
// whose per-row density varies smoothly along the diagonal: row i
// couples to its band(i)/2 nearest neighbours on each side, where
// band oscillates between minBand and maxBand over `waves` periods.
// Under an equal-rows decomposition the dense regions overload some
// ranks — the load-imbalance landscape of the paper's Fig. 2 — while
// staying smooth enough for a direct search to navigate.
//
// It is VariableBand's Pattern plus one value pass: −1/|i−j| off the
// diagonal, and the diagonal 1 plus the row's absolute off-diagonal
// mass, summed in column order — every left neighbour ascending, then
// the right ones — which is the order the triplet-builder generator
// summed in, so every value is the same bits
// (TestPresizedBuilderSameMatrix keeps that generator as the
// reference).
func VariableBandLaplacian(n, minBand, maxBand, waves int) *CSR {
	a := VariableBand(n, minBand, maxBand, waves).Pattern()
	a.Val = make([]float64, len(a.Col))
	for i := 0; i < n; i++ {
		diag, off := -1, 0.0
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			d := i - int(a.Col[k])
			if d == 0 {
				diag = k
				continue
			}
			v := -1.0 / float64(max(d, -d))
			a.Val[k] = v
			off += math.Abs(v)
		}
		// Diagonal dominance.
		a.Val[diag] = off + 1
	}
	return a
}

// RandomBlocks places count non-overlapping dense blocks of the given
// size at deterministic pseudo-random positions in [0, n).
func RandomBlocks(n, count, size int, seed int64) []Block {
	if count*size > n {
		panic(fmt.Sprintf("sparse: %d blocks of %d rows exceed matrix size %d", count, size, n))
	}
	rng := rand.New(rand.NewSource(seed))
	// Choose gaps between blocks by distributing the slack.
	slack := n - count*size
	cuts := make([]int, count)
	for i := range cuts {
		cuts[i] = rng.Intn(slack + 1)
	}
	sort.Ints(cuts)
	blocks := make([]Block, count)
	pos := 0
	prev := 0
	for i := range blocks {
		pos += cuts[i] - prev
		prev = cuts[i]
		blocks[i] = Block{Start: pos, Size: size}
		pos += size
	}
	return blocks
}

// Partition assigns contiguous row ranges to P ranks.
// Starts has length P+1 with Starts[0]=0 and Starts[P]=N.
type Partition struct {
	Starts []int
}

// EvenPartition splits n rows into p nearly equal ranges — the
// default configuration in the paper's experiments.
func EvenPartition(n, p int) Partition {
	starts := make([]int, p+1)
	for i := 0; i <= p; i++ {
		starts[i] = i * n / p
	}
	return Partition{Starts: starts}
}

// FromBoundaries builds a partition of n rows from p-1 interior
// boundary rows. The boundaries are repaired rather than rejected:
// they are sorted and then nudged so every partition keeps at least
// one row (the paper requires "each partition has at least one row").
// Repairing keeps the tuning search space box-shaped, which the
// simplex needs; it implements the dependent-parameter handling of
// the authors' SC'04 techniques. It allocates only the partition's
// Starts and does not retain bounds.
func FromBoundaries(n int, bounds []int) Partition {
	return FromBoundariesInto(make([]int, len(bounds)+2), n, bounds)
}

// FromBoundariesInto is FromBoundaries writing the partition's Starts
// into starts, which must hold len(bounds)+2 entries and may hold the
// boundaries themselves at starts[1:len(bounds)+1]. It allocates
// nothing.
func FromBoundariesInto(starts []int, n int, bounds []int) Partition {
	p := len(bounds) + 1
	if n < p {
		panic(fmt.Sprintf("sparse: %d rows cannot form %d partitions", n, p))
	}
	if len(starts) != p+1 {
		panic(fmt.Sprintf("sparse: %d starts for %d partitions", len(starts), p))
	}
	starts[0] = 0
	copy(starts[1:p], bounds)
	// slices.Sort, not sort.Ints: through sort.Ints a 386 build lets
	// starts escape, and with it the SLES objective's stack array.
	slices.Sort(starts[1:p])
	starts[p] = n
	for i := 1; i < p; i++ {
		b := starts[i]
		if min := i; b < min { // leave >=1 row for each earlier partition
			b = min
		}
		if max := n - (p - i); b > max { // and for each later partition
			b = max
		}
		if b <= starts[i-1] {
			b = starts[i-1] + 1
		}
		starts[i] = b
	}
	return Partition{Starts: starts}
}

// P returns the number of ranges.
func (pt Partition) P() int { return len(pt.Starts) - 1 }

// Range returns the row range [lo, hi) of the given rank.
func (pt Partition) Range(rank int) (lo, hi int) {
	return pt.Starts[rank], pt.Starts[rank+1]
}

// ownerOf returns the rank owning the given row.
func (pt Partition) ownerOf(row int) int {
	// Binary search over Starts.
	lo, hi := 0, pt.P()
	for lo < hi {
		mid := (lo + hi) / 2
		if pt.Starts[mid+1] <= row {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Validate checks the partition covers [0, n) monotonically with
// non-empty ranges.
func (pt Partition) Validate(n int) error {
	if len(pt.Starts) < 2 {
		return fmt.Errorf("sparse: partition has %d starts", len(pt.Starts))
	}
	if pt.Starts[0] != 0 || pt.Starts[pt.P()] != n {
		return fmt.Errorf("sparse: partition spans [%d,%d), want [0,%d)", pt.Starts[0], pt.Starts[pt.P()], n)
	}
	for i := 0; i < pt.P(); i++ {
		if pt.Starts[i+1] <= pt.Starts[i] {
			return fmt.Errorf("sparse: partition range %d is empty", i)
		}
	}
	return nil
}
