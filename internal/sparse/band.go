package sparse

import (
	"fmt"
	"iter"
	"math"
)

// Band is a symmetric sparsity pattern held as its maximal runs of
// rows of equal reach, in 12 bytes per run however many rows and
// entries it holds: row i stores its diagonal, its right neighbours
// i+1..i+reach(i), and, by symmetry, every earlier row j that reaches
// it (j+reach(j) ≥ i). Both Fig. 2 matrices have this shape — the
// variable band, and the 1-D chain with dense diagonal blocks — and a
// halo plan needs nothing else: the rows below a rank's range that
// reach into it are its lower ghosts, and the farthest column its own
// rows reach bounds its upper ones. Every count a plan reads has a
// closed form over the runs, so a run of rows costs what one row does.
//
// A reach is at most maxBandReach columns and a band stores at most
// math.MaxInt32 entries: VariableBand panics past either limit, and
// BandOf returns an error. Build one with VariableBand or BandOf. A
// Band is immutable and safe for concurrent use.
type Band struct {
	N int
	// runs are the maximal runs of equal reach in row order, then a
	// sentinel starting at N with reach 0: run k holds the rows
	// runs[k].start..runs[k+1].start-1.
	runs []bandRun
	// maxReach is the largest reach: only the maxReach rows below a
	// range can reach into it, and only its top maxReach rows past it.
	maxReach int
}

// bandRun is a run of rows that each reach reach columns right of
// their diagonal. reachSum is R(start), the sum of the reaches of every
// row before it: a band's NNZ is N + 2R(N), so R fits int32.
type bandRun struct {
	start    int32
	reach    uint16
	reachSum int32
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
// right of its diagonal, asking each row's reach once. A reach outside
// the band or past maxBandReach, or more than math.MaxInt32 stored
// entries, is an error.
func buildBand(n int, reach func(i int) int) (*Band, error) {
	checkSize(n)
	// The runs gather on the stack, so the band allocates only its
	// exact-size copy; the Fig. 2 bands have 179 and 260.
	var stack [512]bandRun
	runs := stack[:0]
	b := &Band{N: n}
	sum := 0
	for i := 0; i < n; i++ {
		m := reach(i)
		if m < 0 || m > n-1-i {
			return nil, fmt.Errorf("sparse: row %d reaches %d columns of a %d-row band", i, m, n)
		}
		if m > maxBandReach {
			return nil, fmt.Errorf("sparse: row %d reaches %d columns, past a band's limit of %d", i, m, maxBandReach)
		}
		if len(runs) == 0 || int(runs[len(runs)-1].reach) != m {
			runs = append(runs, bandRun{start: int32(i), reach: uint16(m), reachSum: int32(sum)})
		}
		b.maxReach = max(b.maxReach, m)
		// The band stores n + 2·sum entries.
		if sum += m; sum > (math.MaxInt32-n)/2 {
			return nil, fmt.Errorf("sparse: rows 0..%d store more than a band's limit of %d entries", i, math.MaxInt32)
		}
	}
	runs = append(runs, bandRun{start: int32(n), reachSum: int32(sum)})
	b.runs = make([]bandRun, len(runs))
	copy(b.runs, runs)
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
	// Every stored left column, distinct and reaching its row, makes each
	// row's left part a subset of the rows that reach it; equal entry
	// counts then make every subset the whole.
	for i, k := 0, 0; i < a.N; i++ {
		w := max(0, i-b.maxReach)
		k = b.seek(k, w)
		j := k
		for _, c := range a.Col[a.RowPtr[i]:a.RowPtr[i+1]] {
			if int(c) >= i {
				break
			}
			if int(c) >= w {
				j = b.seek(j, int(c))
			}
			if int(c) < w || int(c)+int(b.runs[j].reach) < i {
				return nil, fmt.Errorf("sparse: row %d stores column %d, which does not reach it: the pattern is not symmetric", i, c)
			}
		}
	}
	if a.NNZ() != b.NNZ() {
		return nil, fmt.Errorf("sparse: the matrix stores %d entries, its band %d: the pattern is not symmetric", a.NNZ(), b.NNZ())
	}
	return b, nil
}

// seek advances k, a run at or before row i's, to the run holding row
// i, or for i = N to the last run before the sentinel.
func (b *Band) seek(k, i int) int {
	for k+2 < len(b.runs) && int(b.runs[k+1].start) <= i {
		k++
	}
	return k
}

// NNZ returns the number of stored entries: every diagonal, and each
// reached column twice, once right of its row and once mirrored.
func (b *Band) NNZ() int { return b.N + 2*int(b.runs[len(b.runs)-1].reachSum) }

// rowPtr returns the number of entries stored in rows before h, the
// RowPtr of the pattern's CSR, walking from run k, the run holding row
// w = max(0, h−maxReach): the h diagonals, the reaches R(h) of the rows
// before h, and their left entries. A row j below w reaches at most
// maxReach columns, so all of them lie before h: R(w) in all. A row j
// of the window holds min(reach(j), h−1−j) of them, which over a run is
// its reach up to the run's first row that reaches h, and from that
// row on a descending series. Every product below is at most twice a
// count of stored entries, so it fits a 32-bit int.
func (b *Band) rowPtr(k, h int) int {
	w, r := max(0, h-b.maxReach), b.runs[k]
	ptr := h + 2*(int(r.reachSum)+(w-int(r.start))*int(r.reach)) // h + 2R(w)
	for ; int(b.runs[k].start) < h; k++ {
		a, e, m := max(w, int(b.runs[k].start)), min(h, int(b.runs[k+1].start)), int(b.runs[k].reach)
		c := min(max(a, h-m), e) // rows [c, e) reach h
		ptr += m*(e-a) + m*(c-a) + (e-c)*(2*h-1-c-e)/2
	}
	return ptr
}

// rows yields every row of the band with its reach, in row order.
func (b *Band) rows() iter.Seq2[int, int] {
	return func(yield func(i, m int) bool) {
		for k := 0; k+1 < len(b.runs); k++ {
			m := int(b.runs[k].reach)
			for i := int(b.runs[k].start); i < int(b.runs[k+1].start); i++ {
				if !yield(i, m) {
					return
				}
			}
		}
	}
}

// Pattern expands the band into a structure-only CSR (Val nil), in one
// pass in (i, j) order: row i's left neighbours all arrive before its
// own turn, ascending, so each row is emitted in column order.
func (b *Band) Pattern() *CSR {
	n := b.N
	a := &CSR{N: n, RowPtr: make([]int, n+1), Col: make([]int32, b.NNZ())}
	// RowPtr first holds the difference array of the left-neighbour
	// counts, then each row's start.
	for i, m := range b.rows() {
		a.RowPtr[i+1]++
		a.RowPtr[i+1+m]--
	}
	left, stored := 0, 0
	for i, m := range b.rows() {
		left += a.RowPtr[i]
		a.RowPtr[i] = stored
		stored += left + 1 + m
	}
	// RowPtr[i+1] is row i's next free slot while filling, and its end
	// afterwards.
	next := a.RowPtr[1:]
	copy(next, a.RowPtr[:n])
	for i, m := range b.rows() {
		// The left neighbours are in: the diagonal is next.
		a.Col[next[i]] = int32(i)
		next[i]++
		for j := i + 1; j <= i+m; j++ {
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
// runs alone, O(P · runs in a window): every row of the maxReach below
// rank r's range that reaches it is one ghost of its owner, and the
// columns from the range's end to the farthest one its rows reach are
// all ghosts, split among their owners. Each boundary's window is
// walked run by run, from a run cursor and an owner cursor that only
// move forward as the boundaries rise.
func (b *Band) plan(hp *HaloPlan, part Partition) error {
	if err := part.Validate(b.N); err != nil {
		return err
	}
	p, starts, runs := part.P(), part.Starts, b.runs
	hp.reset(part)
	from := hp.from
	// k holds the first row of the window below lo, rank ow owns it, and
	// ptr is rowPtr(lo).
	k, ow, ptr := 0, 0, 0
	for r := 0; r < p; r++ {
		lo, hi := part.Range(r)
		w := max(0, lo-b.maxReach)
		for starts[ow+1] <= w {
			ow++
		}
		for j, o := k, ow; int(runs[j].start) < lo; j++ {
			c := max(w, int(runs[j].start), lo-int(runs[j].reach))
			for e := min(lo, int(runs[j+1].start)); c < e; {
				for starts[o+1] <= c {
					o++
				}
				n := min(e, starts[o+1]) - c
				from[o] += n
				c += n
			}
		}
		k = b.seek(k, max(0, hi-b.maxReach))
		top := hi - 1
		for j := k; int(runs[j].start) < hi; j++ {
			if e := min(hi, int(runs[j+1].start)); e > lo {
				top = max(top, e-1+int(runs[j].reach))
			}
		}
		next := b.rowPtr(k, hi)
		hp.setNNZ(r, next-ptr)
		ptr = next
		for q := r + 1; q < p && starts[q] <= top; q++ {
			from[q] += min(top+1, starts[q+1]) - starts[q]
		}
		hp.addRecvs(r)
	}
	hp.mirrorSends()
	return nil
}
