package sparse

import (
	"fmt"
	"math"
)

// Band is a symmetric sparsity pattern held as each row's reach, in 6
// bytes per row however many entries it stores: row i stores its
// diagonal, its right neighbours i+1..i+reach(i), and, by symmetry,
// every earlier row j that reaches it (j+reach(j) ≥ i). Both Fig. 2
// matrices have this shape — the variable band, and the 1-D chain with
// dense diagonal blocks — and a halo plan needs nothing else: the rows
// below a rank's range that reach into it are its lower ghosts, and the
// farthest column its own rows reach bounds its upper ones.
//
// A reach is at most maxBandReach columns and a band stores at most
// math.MaxInt32 entries: VariableBand panics past either limit, and
// BandOf returns an error. Build one with VariableBand or BandOf. A
// Band is immutable and safe for concurrent use.
type Band struct {
	N int
	// reach[i] is how far right of its diagonal row i stores: its last
	// column is i+reach[i].
	reach []uint16
	// rowPtr[i] is the number of entries stored in rows before i: the
	// RowPtr of the pattern's CSR.
	rowPtr []int32
	// maxReach is the largest reach: only the maxReach rows below a
	// range can reach into it, and only its top maxReach rows past it.
	maxReach int
}

// newBand is buildBand for reaches the caller vouches for: it panics
// where buildBand returns an error.
func newBand(n int, reach func(i int) int) *Band {
	b, err := buildBand(n, reach)
	if err != nil {
		panic(err)
	}
	return b
}

// buildBand builds the n-row band whose row i reaches reach(i) columns
// right of its diagonal, in two passes and no scratch: rowPtr first
// holds the difference array of the left-neighbour counts. A reach
// outside the band or past maxBandReach, or more than math.MaxInt32
// stored entries, is an error.
func buildBand(n int, reach func(i int) int) (*Band, error) {
	checkSize(n)
	b := &Band{N: n, reach: make([]uint16, n), rowPtr: make([]int32, n+1)}
	for i := 0; i < n; i++ {
		m := reach(i)
		if m < 0 || m > n-1-i {
			return nil, fmt.Errorf("sparse: row %d reaches %d columns of a %d-row band", i, m, n)
		}
		if m > maxBandReach {
			return nil, fmt.Errorf("sparse: row %d reaches %d columns, past a band's limit of %d", i, m, maxBandReach)
		}
		b.reach[i] = uint16(m)
		b.maxReach = max(b.maxReach, m)
		b.rowPtr[i+1]++
		b.rowPtr[i+1+m]--
	}
	left, stored := 0, 0
	for i := 0; i < n; i++ {
		left += int(b.rowPtr[i])
		b.rowPtr[i] = int32(stored)
		row := left + 1 + int(b.reach[i])
		if stored > math.MaxInt32-row {
			return nil, fmt.Errorf("sparse: rows 0..%d store more than a band's limit of %d entries", i, math.MaxInt32)
		}
		stored += row
	}
	b.rowPtr[n] = int32(stored)
	return b, nil
}

// VariableBand is the pattern of VariableBandLaplacian: row i couples
// to rows i+1..i+m, m = min(band(i)/2, n-1-i), where band(i) oscillates
// between minBand and maxBand over `waves` periods.
func VariableBand(n, minBand, maxBand, waves int) *Band {
	if minBand < 2 || maxBand < minBand || n < maxBand {
		panic(fmt.Sprintf("sparse: bad band spec n=%d band=[%d,%d]", n, minBand, maxBand))
	}
	return newBand(n, func(i int) int { return min(bandAt(n, minBand, maxBand, waves, i)/2, n-1-i) })
}

// bandAt is the band width of row i of VariableBandLaplacian.
func bandAt(n, minBand, maxBand, waves, i int) int {
	phase := 2 * math.Pi * float64(waves) * float64(i) / float64(n)
	w := float64(minBand) + (float64(maxBand-minBand))*(0.5+0.5*math.Sin(phase))
	return int(w)
}

// BandOf returns a's pattern as a Band, or an error when a is not one:
// a row must hold its diagonal, a contiguous run of columns right of
// it, and exactly the earlier rows that reach it. O(nnz); values are
// not read.
func BandOf(a *CSR) (*Band, error) {
	if err := a.checkRows(); err != nil {
		return nil, err
	}
	var bad error
	b, err := buildBand(a.N, func(i int) int {
		row := a.Col[a.RowPtr[i]:a.RowPtr[i+1]]
		k := 0
		for k < len(row) && int(row[k]) < i {
			k++
		}
		// Ascending and distinct, the run from the diagonal is contiguous
		// exactly when its last column is i plus its length less one.
		if k == len(row) || int(row[len(row)-1])-i != len(row)-1-k || int(row[k]) != i {
			if bad == nil {
				bad = fmt.Errorf("sparse: row %d does not store its diagonal and a contiguous run right of it", i)
			}
			return 0
		}
		return len(row) - 1 - k
	})
	if bad != nil {
		return nil, bad
	}
	if err != nil {
		return nil, err
	}
	// Equal row lengths and every stored left column reaching its row
	// make each row's left part exactly the rows that reach it.
	for i := 0; i < a.N; i++ {
		if a.RowPtr[i+1] != int(b.rowPtr[i+1]) {
			return nil, fmt.Errorf("sparse: row %d stores %d entries, its band %d: the pattern is not symmetric", i, a.RowPtr[i+1]-a.RowPtr[i], b.rowNNZ(i, i+1))
		}
		for _, c := range a.Col[a.RowPtr[i]:a.RowPtr[i+1]] {
			if int(c) >= i {
				break
			}
			if int(c)+int(b.reach[c]) < i {
				return nil, fmt.Errorf("sparse: row %d stores column %d, which does not reach it: the pattern is not symmetric", i, c)
			}
		}
	}
	return b, nil
}

// NNZ returns the number of stored entries.
func (b *Band) NNZ() int { return int(b.rowPtr[b.N]) }

// rowNNZ returns the number of stored entries in rows [lo, hi).
func (b *Band) rowNNZ(lo, hi int) int { return int(b.rowPtr[hi] - b.rowPtr[lo]) }

// Pattern expands the band into a structure-only CSR (Val nil), in one
// pass in (i, j) order: row i's left neighbours all arrive before its
// own turn, ascending, so each row is emitted in column order.
func (b *Band) Pattern() *CSR {
	n := b.N
	a := &CSR{N: n, RowPtr: make([]int, n+1), Col: make([]int32, b.NNZ())}
	// RowPtr[i+1] is row i's next free slot while filling, and its end
	// afterwards.
	next := a.RowPtr[1:]
	for i, p := range b.rowPtr[:n] {
		next[i] = int(p)
	}
	for i := 0; i < n; i++ {
		// The left neighbours are in: the diagonal is next.
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

// HaloPlan builds the halo plan of the band under the given partition
// into a new plan the caller keeps. It equals the plan a one-off CSR
// plan (NewDistMatrix) builds from the band's Pattern.
func (b *Band) HaloPlan(part Partition) (*HaloPlan, error) {
	hp := new(HaloPlan)
	if err := b.plan(hp, part); err != nil {
		return nil, err
	}
	return hp, nil
}

// AcquirePlan is HaloPlan built into pooled storage: a plan for one
// evaluation, which allocates nothing once the pool holds a plan of as
// many ranks. Release returns it for reuse.
func (b *Band) AcquirePlan(part Partition) (*HaloPlan, error) {
	hp := planPool.Get().(*HaloPlan)
	if err := b.plan(hp, part); err != nil {
		hp.Release()
		return nil, err
	}
	return hp, nil
}

// plan builds the band's plan under the partition into hp from the
// rows' reaches alone, O(P·maxReach): every row below rank r's range
// that reaches it is one ghost of its owner, and the columns from the
// range's end to the farthest one its rows reach are all ghosts, split
// among their owners.
func (b *Band) plan(hp *HaloPlan, part Partition) error {
	if err := part.Validate(b.N); err != nil {
		return err
	}
	p := part.P()
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
	return nil
}
