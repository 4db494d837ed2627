package gs2

import (
	"fmt"
	"maps"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"harmony/internal/cluster"
	"harmony/internal/simmpi"
)

func TestMoveMatrixRoundTripSymmetry(t *testing.T) {
	// The volume moved A->B equals the volume moved B->A: the inverse
	// transform of a redistribution moves the same elements back.
	d := Dims{X: 11, Y: 8, L: 5, E: 6, S: 2}
	for _, p := range []int{3, 8, 16} {
		ab := MovedElements(MoveMatrix(d, "lxyes", "xyles", p))
		ba := MovedElements(MoveMatrix(d, "xyles", "lxyes", p))
		if ab != ba {
			t.Errorf("p=%d: forward moves %d, backward moves %d", p, ab, ba)
		}
	}
}

func TestMoveMatrixTransposeProperty(t *testing.T) {
	// mat2 (B->A) is the transpose of mat1 (A->B): what rank i sends
	// to j going out, j sends back to i coming home.
	d := Dims{X: 7, Y: 6, L: 4, E: 4, S: 2}
	p := 6
	fwd := MoveMatrix(d, "lxyes", "lexys", p)
	bwd := MoveMatrix(d, "lexys", "lxyes", p)
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			if fwd[i][j] != bwd[j][i] {
				t.Fatalf("fwd[%d][%d]=%d != bwd[%d][%d]=%d", i, j, fwd[i][j], j, i, bwd[j][i])
			}
		}
	}
}

func TestMoveMatrixSinglingRank(t *testing.T) {
	d := DefaultConfig().Dims()
	mat := MoveMatrix(d, "lxyes", "xyles", 1)
	if MovedElements(mat) != 0 {
		t.Error("one rank owns everything; nothing should move")
	}
}

func TestFrontPreservesPermutation(t *testing.T) {
	f := func(choice uint8) bool {
		layouts := Layouts()
		l := layouts[int(choice)%len(layouts)]
		for _, dims := range []string{"xy", "le", "s", "xyles"} {
			if err := l.front(dims).validate(); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFrontIdempotent(t *testing.T) {
	for _, l := range Layouts() {
		once := l.front("xy")
		twice := once.front("xy")
		if once != twice {
			t.Errorf("%s: front not idempotent: %s vs %s", l, once, twice)
		}
	}
}

// walk is the O(N/run) reference the count replaced. It walks the
// index space in runs along the fastest dimension of one of the two
// layouts; inside a run both owners are monotone step functions, so
// each run costs O(owner changes), not O(run length). Because
// moved(A→B) = moved(B→A)ᵀ either layout can be the walked one: it
// takes whichever has the smaller stride for its run dimension under
// the other layout (fewest owner changes per run) and transposes the
// result when that is the target.
func walk(d Dims, home, target Layout, p int) [][]int {
	if d.n() == 0 || home == target {
		return newMatrix(p)
	}
	if home.strides(d)[dimIndex(target[0])] < target.strides(d)[dimIndex(home[0])] {
		return transpose(walkRuns(d, target, home, p))
	}
	return walkRuns(d, home, target, p)
}

// walkRuns accumulates moved(a→b) run by run along a[0]. Runs are
// visited in a's flat order, so a's base advances by the run length;
// b's base is carried by an odometer over a's other four dimensions.
func walkRuns(d Dims, a, b Layout, p int) [][]int {
	mat := newMatrix(p)
	n := d.n()
	bs := b.strides(d)
	runLen := d.size(a[0])
	s2 := bs[dimIndex(a[0])]
	var size, step, idx [4]int
	for k := range size {
		size[k] = d.size(a[k+1])
		step[k] = bs[dimIndex(a[k+1])]
	}
	f2 := 0
	for f1 := 0; f1 < n; f1 += runLen {
		accumulateRun(mat, f1, f2, s2, runLen, p, n)
		for k := 0; k < 4; k++ {
			idx[k]++
			f2 += step[k]
			if idx[k] < size[k] {
				break
			}
			idx[k] = 0
			f2 -= size[k] * step[k]
		}
	}
	return mat
}

// accumulateRun distributes a run of `length` elements starting at
// flat index f1 of the walked layout (stride 1) and f2 of the other
// (stride s2) into mat[walkedOwner][otherOwner].
func accumulateRun(mat [][]int, f1, f2, s2, length, p, n int) {
	k := 0
	for k < length {
		o1 := (f1 + k) * p / n
		o2 := (f2 + k*s2) * p / n
		// Next k where o1 changes: (f1+k')·p >= (o1+1)·n.
		k1 := refCeilDiv((o1+1)*n, p) - f1
		// Next k where o2 changes: (f2+k'·s2)·p >= (o2+1)·n.
		k2 := length
		if s2 > 0 {
			k2 = refCeilDiv(refCeilDiv((o2+1)*n, p)-f2, s2)
		}
		next := min(k1, k2, length)
		if next <= k { // guard against pathological stalls
			next = k + 1
		}
		if o1 != o2 {
			mat[o1][o2] += next - k
		}
		k = next
	}
}

func newMatrix(p int) [][]int {
	mat := make([][]int, p)
	for i := range mat {
		mat[i] = make([]int, p)
	}
	return mat
}

func transpose(m [][]int) [][]int {
	t := newMatrix(len(m))
	for i, row := range m {
		for j, v := range row {
			t[j][i] = v
		}
	}
	return t
}

// dimIndex numbers the dimension letters for array-indexed tables.
func dimIndex(c byte) int { return strings.IndexByte("xyles", c) }

// strides returns the flattened-index stride of each dimension under
// the layout (leftmost fastest), indexed by dimIndex.
func (l Layout) strides(d Dims) [5]int {
	var s [5]int
	stride := 1
	for i := 0; i < len(l); i++ {
		s[dimIndex(l[i])] = stride
		stride *= d.size(l[i])
	}
	return s
}

// countMovesRef is the box-intersection count that countMoves replaced,
// kept as its reference. Owner boundaries are b_k = ⌈kN/p⌉. Rank i's
// home range [b_i, b_{i+1}) splits into at most nine boxes (products
// of one index interval per dimension), and a target prefix [0, b_j)
// into at most five, so
// G_i(j) — how many of rank i's elements have a target index below
// b_j — is a sum of box intersections, and moved[i][j] = G_i(j+1) −
// G_i(j). It builds every target prefix's boxes up front and
// intersects each home box with every box of every candidate owner's
// prefix.
func countMovesRef(d Dims, home, target Layout, p int) moves {
	if err := home.validate(); err != nil {
		panic(err)
	}
	if err := target.validate(); err != nil {
		panic(err)
	}
	if p <= 0 {
		panic(fmt.Sprintf("gs2: %d ranks", p))
	}
	mv := moves{start: make([]int, p+1)}
	n := d.n()
	if n == 0 || home == target {
		return mv
	}
	hr, tr, ts := home.refRadix(d), target.refRadix(d), target.strides(d)
	bound := func(k int) int { return refCeilDiv(k*n, p) }
	// pre[preStart[j]:preStart[j+1]] are the boxes of the target
	// prefix [0, b_j).
	preStart := make([]int, p+1)
	var pre []refBox
	for j := 0; j < p; j++ {
		preStart[j] = len(pre)
		pre = tr.boxes(0, bound(j), pre)
	}
	preStart[p] = len(pre)

	var hb []refBox
	for i := 0; i < p; i++ {
		lo, hi := bound(i), bound(i+1)
		hb = hr.boxes(lo, hi, hb[:0])
		// The target index is increasing in every coordinate, so each
		// box's lower and upper corners bound its target indices.
		tmin, tmax := n, -1
		for b := range hb {
			first, last := 0, 0
			for c := 0; c < 5; c++ {
				first += hb[b].lo[c] * ts[c]
				last += (hb[b].hi[c] - 1) * ts[c]
			}
			tmin, tmax = min(tmin, first), max(tmax, last)
		}
		if tmax >= 0 {
			// G_i(jmin) is 0 and G_i(jmax+1) is the whole range.
			jmin, jmax := tmin*p/n, tmax*p/n
			prev := 0
			for j := jmin; j <= jmax; j++ {
				g := hi - lo
				if j < jmax {
					g = 0
					for t := preStart[j+1]; t < preStart[j+2]; t++ {
						for h := range hb {
							g += refOverlap(&hb[h], &pre[t])
						}
					}
				}
				if g > prev && j != i {
					mv.dst = append(mv.dst, j)
					mv.n = append(mv.n, g-prev)
				}
				prev = g
			}
		}
		mv.start[i+1] = len(mv.dst)
	}
	return mv
}

// refRadix is a layout's mixed-radix numbering of the flat index: the
// dimension (by dimIndex), extent and stride of each position, fastest
// first, with stride[5] = N.
type refRadix struct {
	dim, ext [5]int
	stride   [6]int
}

func (l Layout) refRadix(d Dims) refRadix {
	r := refRadix{stride: [6]int{1}}
	for q := 0; q < 5; q++ {
		r.dim[q], r.ext[q] = dimIndex(l[q]), d.size(l[q])
		r.stride[q+1] = r.stride[q] * r.ext[q]
	}
	return r
}

// refBox is a product of one half-open index interval per dimension,
// indexed by dimIndex.
type refBox struct{ lo, hi [5]int }

// boxes appends to out boxes whose disjoint union is the flat index
// range [lo, hi): at most nine, and at most five when lo is 0. It
// climbs from lo, completing each position's digit up to the next
// multiple of the stride above it, until that would pass hi; what is
// left lies inside one block of that stride, and it descends to hi
// taking whole blocks of each lower stride.
func (r *refRadix) boxes(lo, hi int, out []refBox) []refBox {
	cur, q := lo, 0
	for ; q < 5; q++ {
		next := refCeilDiv(cur, r.stride[q+1]) * r.stride[q+1]
		if next > hi {
			break
		}
		if next > cur {
			out = append(out, r.box(cur, q, (next-cur)/r.stride[q]))
		}
		cur = next
	}
	for ; q >= 0 && cur < hi; q-- {
		if end := hi / r.stride[q] * r.stride[q]; end > cur {
			out = append(out, r.box(cur, q, (end-cur)/r.stride[q]))
			cur = end
		}
	}
	return out
}

// box returns the flat range [cur, cur+count·stride[q]), where cur is
// a multiple of stride[q] and the range stays inside one block of
// stride[q+1]: positions below q span their extent, position q spans
// count digits from cur's, and positions above q are cur's digits.
func (r *refRadix) box(cur, q, count int) refBox {
	var b refBox
	for k := 0; k < 5; k++ {
		c := r.dim[k]
		digit := cur / r.stride[k] % r.ext[k]
		switch {
		case k < q:
			b.lo[c], b.hi[c] = 0, r.ext[k]
		case k == q:
			b.lo[c], b.hi[c] = digit, digit+count
		default:
			b.lo[c], b.hi[c] = digit, digit+1
		}
	}
	return b
}

// refOverlap returns the number of indices two boxes share.
func refOverlap(a, b *refBox) int {
	v := 1
	for c := 0; c < 5; c++ {
		lo, hi := max(a.lo[c], b.lo[c]), min(a.hi[c], b.hi[c])
		if hi <= lo {
			return 0
		}
		v *= hi - lo
	}
	return v
}

// MovedElements sums a move matrix: the total element count changing
// owner.
func MovedElements(mat [][]int) int {
	var total int
	for _, row := range mat {
		for _, v := range row {
			total += v
		}
	}
	return total
}

// refCeilDiv is ⌈a/b⌉ in full-width integers: the references do not
// share the count's 32-bit arithmetic.
func refCeilDiv(a, b int) int { return (a + b - 1) / b }

// allLayouts returns the 120 permutations of "xyles".
func allLayouts() []Layout {
	var out []Layout
	var perm func(prefix, rest string)
	perm = func(prefix, rest string) {
		if rest == "" {
			out = append(out, Layout(prefix))
			return
		}
		for i := range rest {
			perm(prefix+rest[i:i+1], rest[:i]+rest[i+1:])
		}
	}
	perm("", "xyles")
	return out
}

func TestMoveMatrixBothDirectionsMatchBruteForce(t *testing.T) {
	// Extents that are 1 or prime divide evenly by no rank count, so
	// owner boundaries fall inside every digit; every layout is a home,
	// and each (x,y)- and (l,e)-front target is queried both ways.
	d := Dims{X: 11, Y: 1, L: 5, E: 7, S: 3}
	// With more ranks than elements, some ranks own nothing.
	tiny := Dims{X: 3, Y: 1, L: 2, E: 1, S: 2}
	layouts := allLayouts()
	if len(layouts) != 120 {
		t.Fatalf("%d layouts", len(layouts))
	}
	for _, c := range []struct {
		d  Dims
		ps []int
	}{{d, []int{1, 2, 3, 7, 64, 97, 128}}, {tiny, []int{29}}} {
		for _, home := range layouts {
			for _, dims := range []string{"xy", "le"} {
				target := home.front(dims)
				for _, p := range c.ps {
					for _, pair := range [][2]Layout{{home, target}, {target, home}} {
						got := MoveMatrix(c.d, pair[0], pair[1], p)
						if !matricesEqual(got, bruteMatrix(c.d, pair[0], pair[1], p)) {
							t.Errorf("MoveMatrix(%+v, %s->%s, p=%d) differs from brute force", c.d, pair[0], pair[1], p)
						}
					}
				}
			}
		}
	}
}

// shape is a redistribution's extents and rank count.
type shape struct {
	d Dims
	p int
}

// latticeShapes returns the Table III lattice shapes whose negrid,
// ntheta and nodes levels are multiples of the three strides, each on
// the 2·nodes ranks of the Linux cluster.
func latticeShapes(strides [3]int64) []shape {
	ps := ResolutionSpace(64).Params()
	var out []shape
	for a := int64(0); a < ps[0].Levels(); a += strides[0] {
		for b := int64(0); b < ps[1].Levels(); b += strides[1] {
			for c := int64(0); c < ps[2].Levels(); c += strides[2] {
				cfg := Config{Negrid: int(ps[0].IntAt(a)), Ntheta: int(ps[1].IntAt(b))}
				out = append(out, shape{cfg.Dims(), 2 * int(ps[2].IntAt(c))})
			}
		}
	}
	return out
}

// campaignRedistributions are the (home, target) pairs the Table III
// campaigns count: lxyes and yxles to their (x,y)-local target (yxles
// is its own) and to their (l,e)-local one, which collisions add.
func campaignRedistributions() [][2]Layout {
	var out [][2]Layout
	for _, home := range []Layout{DefaultLayout, "yxles"} {
		for _, dims := range []string{"xy", "le"} {
			out = append(out, [2]Layout{home, home.front(dims)})
		}
	}
	return out
}

func TestMoveMatrixCountMatchesWalkOnLattice(t *testing.T) {
	// The campaign's own shapes, at full size: a strided sweep of the
	// Table III lattice, every campaign redistribution counted against
	// the reference walk. The walk of an (l,e)-local target is slow, so
	// the others take every other negrid and ntheta level of lxyes to
	// xyles's sweep.
	for _, pair := range campaignRedistributions() {
		strides := [3]int64{6, 10, 7}
		if pair == [2]Layout{DefaultLayout, "xyles"} {
			strides = [3]int64{3, 5, 7}
		}
		for _, s := range latticeShapes(strides) {
			if !matricesEqual(MoveMatrix(s.d, pair[0], pair[1], s.p), walk(s.d, pair[0], pair[1], s.p)) {
				t.Errorf("%+v on %d ranks, %s->%s: count differs from the walk", s.d, s.p, pair[0], pair[1])
			}
		}
	}
}

func TestCountMovesMatchesReferenceOnLattice(t *testing.T) {
	// The count is the box-intersection count it replaced, entry for
	// entry and in the same order, on a strided sweep of the lattice
	// other than the walk's, for every campaign redistribution.
	for _, s := range latticeShapes([3]int64{4, 8, 9}) {
		for _, pair := range campaignRedistributions() {
			got, want := countMoves(s.d, pair[0], pair[1], s.p), countMovesRef(s.d, pair[0], pair[1], s.p)
			if !slices.Equal(got.start, want.start) || !slices.Equal(got.dst, want.dst) || !slices.Equal(got.n, want.n) {
				t.Errorf("%+v on %d ranks, %s->%s: count differs from the reference", s.d, s.p, pair[0], pair[1])
			}
		}
	}
}

// allocShapes are the shapes the allocation pins count: the paper's
// default on 64 ranks and an odd one on 38.
var allocShapes = []shape{{Dims{X: 26, Y: 32, L: 20, E: 16, S: 2}, 64}, {Dims{X: 41, Y: 32, L: 20, E: 13, S: 2}, 38}}

// TestCountIntoWarmScratchAllocatesNothing pins the count at no
// allocation once its scratch has held the shape: a count that kept a
// table beside its output, or sized it in a second pass, allocates.
func TestCountIntoWarmScratchAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments what it runs; allocation pins run without it")
	}
	for _, s := range allocShapes {
		for _, pair := range campaignRedistributions() {
			var mv moves
			mv.count(s.d, pair[0], pair[1], s.p)
			if got := testing.AllocsPerRun(10, func() { mv.count(s.d, pair[0], pair[1], s.p) }); got != 0 {
				t.Errorf("%+v on %d ranks, %s->%s: %v allocations, want 0", s.d, s.p, pair[0], pair[1], got)
			}
		}
	}
}

// TestCountMovesAllocatesOnlyItsOutput pins a plan counted into warm
// scratch at the seven allocations the frozen redist keeps: its
// pattern's Start, Dst and Bytes, the pattern, pack, unpack, and the
// redist itself. A plan that moves nothing keeps only the redist.
func TestCountMovesAllocatesOnlyItsOutput(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments what it runs; allocation pins run without it")
	}
	for _, s := range allocShapes {
		for _, pair := range campaignRedistributions() {
			var mv moves
			mv.count(s.d, pair[0], pair[1], s.p)
			want := 7.0
			if pair[0] == pair[1] {
				want = 1
			}
			got := testing.AllocsPerRun(10, func() {
				mv.count(s.d, pair[0], pair[1], s.p)
				coldPlan = newRedist(&mv, 1)
			})
			if got != want {
				t.Errorf("%+v on %d ranks, %s->%s: %v allocations, want %v", s.d, s.p, pair[0], pair[1], got, want)
			}
		}
	}
}

func TestCountIntoDirtyScratchEqualsFresh(t *testing.T) {
	// A pooled scratch last held some other shape's count, often a
	// larger one. Before every shape of a lattice stride the scratch
	// holds the largest campaign shape's count of the same
	// redistribution; counting into it must give what fresh storage
	// gets, received totals included.
	largest := shape{Config{Negrid: 32, Ntheta: 80}.Dims(), 128}
	for _, pair := range campaignRedistributions() {
		var mv moves
		for _, s := range latticeShapes([3]int64{4, 8, 9}) {
			mv.count(largest.d, pair[0], pair[1], largest.p)
			mv.count(s.d, pair[0], pair[1], s.p)
			want := countMoves(s.d, pair[0], pair[1], s.p)
			if !slices.Equal(mv.start, want.start) || !slices.Equal(mv.dst, want.dst) || !slices.Equal(mv.n, want.n) || !slices.Equal(mv.recv, want.recv) {
				t.Errorf("%+v on %d ranks, %s->%s: the dirty scratch counts differently", s.d, s.p, pair[0], pair[1])
			}
		}
	}
}

func TestCountRefusesWhat32BitsCannotHold(t *testing.T) {
	// The count divides owner bounds ⌈kN/p⌉ in 32 bits. At the largest
	// campaign grid, p = 1310 is the most ranks whose largest numerator,
	// p·N + p − 1, fits: above 2³¹, so it needs every unsigned bit.
	// There the count must match the full-width reference; one rank
	// more must be refused, not miscounted.
	cfg := Config{Layout: DefaultLayout, Negrid: 32, Ntheta: 80, Steps: 1}
	d, target := cfg.Dims(), cfg.Layout.front("xy")
	const edge = 1310
	top := int64(edge)*int64(d.n()) + edge - 1
	if top < 1<<31 || top >= 1<<32 {
		t.Fatalf("largest numerator %d is not between 2³¹ and 2³²", top)
	}
	// The reference counts in int, which a 32-bit int cannot hold here:
	// there only the refusals below are checked.
	if top > math.MaxInt {
		t.Logf("p=%d: the reference count needs a 64-bit int", edge)
	} else {
		got, want := countMoves(d, cfg.Layout, target, edge), countMovesRef(d, cfg.Layout, target, edge)
		if !slices.Equal(got.start, want.start) || !slices.Equal(got.dst, want.dst) || !slices.Equal(got.n, want.n) {
			t.Errorf("p=%d: the count differs from the reference", edge)
		}
	}
	refused := func() (r any) {
		defer func() { r = recover() }()
		countMoves(d, cfg.Layout, target, edge+1)
		return nil
	}()
	if refused == nil {
		t.Errorf("p=%d: counted a shape whose bounds overflow 32 bits", edge+1)
	}
	if _, err := Run(cluster.MyrinetLinux(edge+1, 1), cfg); err == nil {
		t.Errorf("Run on %d ranks accepted a shape whose bounds overflow 32 bits", edge+1)
	}
	if err := (Config{Layout: DefaultLayout, Negrid: 2000, Ntheta: 2000, Steps: 1}).validate(); err == nil {
		t.Error("Validate accepted a grid of more than 2³² elements")
	}
}

// coldPlan keeps BenchmarkColdPlans' builds observable.
var coldPlan *redist

// BenchmarkColdPlans builds the plan of every campaign redistribution
// without the plans cache, counted into reused scratch as Config.plans
// counts, on a fixed slice of the Table III lattice (every 97th shape):
// what a new shape costs before its first run, collision targets
// included. B/op is per sweep of the slice.
func BenchmarkColdPlans(b *testing.B) {
	var shapes []shape
	for k, s := range latticeShapes([3]int64{1, 1, 1}) {
		if k%97 == 0 {
			shapes = append(shapes, s)
		}
	}
	for _, pair := range campaignRedistributions() {
		b.Run(string(pair[0])+"-"+string(pair[1]), func(b *testing.B) {
			b.ReportAllocs()
			var mv moves
			for i := 0; i < b.N; i++ {
				for _, s := range shapes {
					mv.count(s.d, pair[0], pair[1], s.p)
					coldPlan = newRedist(&mv, 1)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*len(shapes)), "us/shape")
		})
	}
}

// dense expands an exchange pattern into rows[src][dst] = bytes. A
// plan that moves nothing has no pattern, and no rows.
func dense(ex *simmpi.AlltoallvPattern) [][]int {
	if ex == nil {
		return nil
	}
	p := len(ex.Start) - 1
	rows := newMatrix(p)
	for i := 0; i < p; i++ {
		for k := ex.Start[i]; k < ex.Start[i+1]; k++ {
			rows[i][ex.Dst[k]] = ex.Bytes[k]
		}
	}
	return rows
}

func patternsEqual(a, b *simmpi.AlltoallvPattern) bool {
	return slices.Equal(a.Start, b.Start) && slices.Equal(a.Dst, b.Dst) && slices.Equal(a.Bytes, b.Bytes)
}

func TestExchangePlansReverseIsTranspose(t *testing.T) {
	// A run takes each way back as its outbound plan mirrored. A count
	// of the return redistribution must freeze to exactly that: the
	// transposed pattern with pack and unpack swapped, whose exchange
	// every rank leaves at the same clock, bit for bit, on any machine.
	cfg := Config{Layout: DefaultLayout, Negrid: 10, Ntheta: 27, Steps: 3, Collisions: true}
	for _, c := range []struct {
		p        int
		machines []*cluster.Machine
	}{
		{7, []*cluster.Machine{cluster.Seaborg(2, 4), cluster.MyrinetLinux(7, 1)}},
		{64, []*cluster.Machine{LinuxCluster(32), cluster.Seaborg(8, 8)}},
	} {
		p := c.p
		pl, ref := cfg.plans(p), countPlans(cfg, p)
		for _, c2 := range []struct {
			dims     string
			fwd, bwd *redist
		}{{"xy", pl.toXY, ref.fromXY}, {"le", pl.toLE, ref.fromLE}} {
			dims, fwd, bwd := c2.dims, c2.fwd, c2.bwd
			if fwd == nil {
				t.Fatalf("p=%d %s: no plan with collisions on", p, dims)
			}
			if fwd.totalMoved == 0 {
				t.Fatalf("p=%d %s: forward plan moves nothing", p, dims)
			}
			if fwd.totalMoved != bwd.totalMoved || fwd.fraction != bwd.fraction {
				t.Errorf("p=%d %s: totals %d/%d fractions %v/%v", p, dims,
					fwd.totalMoved, bwd.totalMoved, fwd.fraction, bwd.fraction)
			}
			for i := 0; i < p; i++ {
				if fwd.pack[i] != bwd.unpack[i] || fwd.unpack[i] != bwd.pack[i] {
					t.Errorf("p=%d %s rank %d: pack/unpack not swapped", p, dims, i)
				}
			}
			if !matricesEqual(transpose(dense(fwd.exchange)), dense(bwd.exchange)) {
				t.Errorf("p=%d %s: counted return pattern is not the transpose", p, dims)
			}
			for _, m := range c.machines {
				there, back := exitsOf(t, m, p, 0, fwd.exchange), exitsOf(t, m, p, 0, bwd.exchange)
				for i := range there {
					if math.Float64bits(there[i]) != math.Float64bits(back[i]) {
						t.Errorf("p=%d %s on %s rank %d: leaves the exchange at %v, the way back at %v", p, dims, m, i, there[i], back[i])
					}
				}
			}
		}
	}
}

// exitsOf returns the clocks at which the ranks of a p-rank lockstep
// job on m leave exchange ex, priced for m, when every rank arrives at
// arrival.
func exitsOf(t *testing.T, m *cluster.Machine, p int, arrival float64, ex *simmpi.AlltoallvPattern) []float64 {
	t.Helper()
	job, err := simmpi.AcquireLockstep(m, p)
	if err != nil {
		t.Fatal(err)
	}
	defer job.Release()
	job.Sleep(arrival)
	job.AlltoallvPriced(ex.Price(m))
	return job.Stats().RankClocks
}

// coldShape returns a configuration no other test or campaign visits
// (odd extents are off the tuning lattice) and fails the test if its
// plans were already built, so "first call" means what it says.
func coldShape(t *testing.T, negrid, ntheta, p int, coll bool) Config {
	t.Helper()
	cfg := Config{Layout: DefaultLayout, Negrid: negrid, Ntheta: ntheta, Steps: 10, Collisions: coll}
	key := plansKey{d: cfg.Dims(), l: cfg.Layout, coll: coll, p: p}
	if _, warm := plansCache.Load(key); warm {
		t.Fatalf("shape %+v on %d ranks is already cached", cfg, p)
	}
	t.Cleanup(func() { plansCache.Delete(key) })
	return cfg
}

func TestPlansCacheSharesOneBuild(t *testing.T) {
	// Workers of an asynchronous campaign meet the same cold shape at
	// once: they must share one build, not race to store their own.
	m := LinuxCluster(8)
	cfg := coldShape(t, 11, 33, m.Procs(), true)
	const workers = 8
	var wg sync.WaitGroup
	secs := make([]float64, workers)
	sent := make([]*float64, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s, err := Run(m, cfg)
			if err != nil {
				t.Error(err)
				return
			}
			secs[w] = s
			sent[w] = &cfg.plans(m.Procs()).toXY.pack[0]
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if secs[w] != secs[0] {
			t.Errorf("worker %d simulated %v, worker 0 %v", w, secs[w], secs[0])
		}
		if sent[w] != sent[0] {
			t.Errorf("worker %d sees a different plan backing array", w)
		}
	}
}

func TestRunColdEqualsWarm(t *testing.T) {
	// The first evaluation of a shape builds its plans (one count per
	// phase, each way back mirrored); the second reads them back. Both
	// must equal the coroutine reference fed four independent counts.
	for _, c := range []struct {
		negrid, ntheta, nodes int
		coll                  bool
	}{
		{9, 17, 2, false}, {16, 27, 32, false}, {13, 41, 19, true}, {31, 79, 64, true}, {8, 21, 7, true},
	} {
		m := LinuxCluster(c.nodes)
		p := m.Procs()
		cfg := coldShape(t, c.negrid, c.ntheta, p, c.coll)
		cfg.Steps = 3
		cold, err := Run(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		warm, err := Run(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref := countPlans(cfg, p)
		pl := cfg.plans(p)
		for _, pair := range [][2]*redist{{pl.toXY, ref.toXY}, {pl.toLE, ref.toLE}} {
			if pair[0] != nil && !patternsEqual(pair[0].exchange, pair[1].exchange) {
				t.Errorf("%+v: a cached pattern differs from its independent count", c)
			}
		}
		st, err := simulateCoroutine(m, cfg, ref, cfg.Steps)
		if err != nil {
			t.Fatal(err)
		}
		counted := st.Time
		if math.Float64bits(cold) != math.Float64bits(warm) || math.Float64bits(cold) != math.Float64bits(counted) {
			t.Errorf("%+v: cold %v warm %v four-count reference %v", c, cold, warm, counted)
		}
	}
}

// TestRunOneSimulationEqualsTwo is what keeps the one-run extrapolation
// honest: the time marked at the end of the second-to-last step of a
// three-step run must be, bit for bit, what simulating two steps from
// scratch returns, so Run's result is the one two simulations gave.
func TestRunOneSimulationEqualsTwo(t *testing.T) {
	hetero := cluster.MyrinetLinux(6, 2)
	hetero.Gflops = []float64{2.2, 0.7, 1.3, 2.9, 0.4, 1.1}
	machines := []*cluster.Machine{LinuxCluster(3), LinuxCluster(17), LinuxCluster(64),
		cluster.Seaborg(8, 16), cluster.Seaborg(5, 3), hetero}
	for _, l := range Layouts() {
		for _, coll := range []bool{false, true} {
			for _, m := range machines {
				for _, res := range [][2]int{{8, 16}, {16, 26}, {13, 41}, {32, 80}} {
					cfg := Config{Layout: l, Negrid: res[0], Ntheta: res[1], Steps: 10, Collisions: coll}
					p := m.Procs()
					pl := cfg.plans(p)
					marked, st3 := simulateStats(t, m, cfg, pl, 3)
					_, st2 := simulateStats(t, m, cfg, pl, 2)
					t3, t2 := st3.Time, st2.Time
					if math.Float64bits(marked) != math.Float64bits(t2) {
						t.Errorf("%+v on %s: marked two-step time %v, simulated %v", cfg, m, marked, t2)
					}
					got, err := Run(m, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if want := t3 + float64(cfg.Steps-3)*(t3-t2); math.Float64bits(got) != math.Float64bits(want) {
						t.Errorf("%+v on %s: Run %v, extrapolated from two simulations %v", cfg, m, got, want)
					}
					plansCache.Delete(plansKey{d: cfg.Dims(), l: l, coll: coll, p: p}) // keep the test's heap small
				}
			}
		}
	}
}

func TestPlansRetainSparsePatterns(t *testing.T) {
	// A collisionless shape keeps one sparse exchange pattern, the way
	// out: the way back is it mirrored. A rank sends to a handful of
	// target owners, so it takes a small fraction of a dense p×p byte
	// table. The budget, 0.175 of it (4.38 MiB), holds exact-size
	// patterns (4.12 MiB) and not patterns that keep the move count's
	// spare capacity (4.56 MiB).
	const (
		shapes = 200
		p      = 128
		budget = 0.175 * shapes * p * p * 8
	)
	cfgs := make([]Config, shapes)
	for i := range cfgs {
		cfgs[i] = coldShape(t, 3+2*(i%10), 101+2*(i/10), p, false)
	}
	heap := func() float64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc)
	}
	before := heap()
	for _, cfg := range cfgs {
		cfg.plans(p)
	}
	grown := heap() - before
	t.Logf("%d shapes at p=%d retain %.2f MiB (budget %.2f MiB)", shapes, p, grown/(1<<20), budget/(1<<20))
	if grown > budget {
		t.Errorf("retained %.0f bytes, budget %.0f", grown, float64(budget))
	}
}

func TestCollisionModeAddsCost(t *testing.T) {
	// Collision cost must be visible on every layout, and smaller for
	// layouts needing less velocity-space movement.
	m := LinuxCluster(16)
	for _, l := range Layouts() {
		cfg := DefaultConfig()
		cfg.Layout = l
		off, err := Run(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Collisions = true
		on, err := Run(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if on <= off {
			t.Errorf("%s: collisions should cost extra (%v vs %v)", l, on, off)
		}
	}
}

func TestLayoutsDifferentiateWithCollisions(t *testing.T) {
	// With collisions, yxles and yxels transform to different
	// (l,e)-front targets, so at least some environments separate
	// them. Without collisions they are identical by construction.
	m := cluster.Seaborg(16, 8)
	timeFor := func(l Layout, coll bool) float64 {
		cfg := DefaultConfig()
		cfg.Layout = l
		cfg.Collisions = coll
		secs, err := Run(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return secs
	}
	if a, b := timeFor("yxles", false), timeFor("yxels", false); a != b {
		t.Errorf("without collisions yxles (%v) and yxels (%v) should tie", a, b)
	}
	la := Layout("yxles").front("le")
	lb := Layout("yxels").front("le")
	if la == lb {
		t.Fatalf("le-front targets should differ: %s vs %s", la, lb)
	}
}

// TestExchangePricingKeyedByMachine prices one plan's pattern on
// machines that each differ from a base machine in exactly one field
// the cost model reads, in the order base, variant, base: every
// pricing must be what AlltoallvExits charges the dense MoveMatrix
// rows on that machine, so a pricing kept across a change it should
// not survive fails here.
func TestExchangePricingKeyedByMachine(t *testing.T) {
	const p = 16
	cfg := Config{Layout: DefaultLayout, Negrid: 10, Ntheta: 27}
	d, target := cfg.Dims(), cfg.Layout.front("xy")
	rows := MoveMatrix(d, cfg.Layout, target, p)
	for _, row := range rows {
		for j, elems := range row {
			row[j] = int(float64(elems) * 8 * elemWeight * 1)
		}
	}
	ex := freeze(d, cfg.Layout, target, p, 1).exchange

	// Two ranks per node, so the plan's nearest-neighbour exchanges
	// cross nodes and the bisection gates them.
	base := cluster.MyrinetLinux(8, 2)
	variant := func(edit func(m *cluster.Machine)) *cluster.Machine {
		m := *base
		edit(&m)
		return &m
	}
	variants := map[string]*cluster.Machine{
		"PPN":                cluster.MyrinetLinux(8, 4),
		"Intra.Bandwidth":    variant(func(m *cluster.Machine) { m.Intra.Bandwidth /= 1000 }),
		"Inter.Overhead":     variant(func(m *cluster.Machine) { m.Inter.Overhead *= 3 }),
		"BisectionBandwidth": variant(func(m *cluster.Machine) { m.BisectionBandwidth = base.Bisection() / 100 }),
		"Nodes":              cluster.MyrinetLinux(16, 2),
	}
	const arrival = 0.75
	want := func(m *cluster.Machine) []float64 {
		exits := make([]float64, p)
		simmpi.AlltoallvExits(m, rows, arrival, exits, simmpi.NewAlltoallvScratch(p))
		return exits
	}
	bits := func(xs []float64) []uint64 {
		out := make([]uint64, len(xs))
		for i, x := range xs {
			out[i] = math.Float64bits(x)
		}
		return out
	}
	for _, name := range slices.Sorted(maps.Keys(variants)) {
		m := variants[name]
		if slices.Equal(bits(want(m)), bits(want(base))) {
			t.Fatalf("%s: the variant prices like the base machine, so it checks nothing", name)
		}
		for step, m := range []*cluster.Machine{base, m, base} {
			got := exitsOf(t, m, p, arrival, ex)
			if !slices.Equal(bits(got), bits(want(m))) {
				t.Errorf("%s, pricing %d: exits %v, AlltoallvExits %v", name, step, got, want(m))
			}
		}
	}
}
