// Package gs2 simulates the GS2 gyrokinetic plasma turbulence code of
// Section VI: a five-dimensional distribution function g(x,y,l,e,s)
// — two spatial coordinates, two velocity coordinates, and species —
// whose data layout (the order of the dimensions) is a runtime
// choice.
//
// The layout string orders the dimensions leftmost-fastest; the
// flattened index space is split contiguously over the ranks. Each
// time step transforms the data to an (x,y)-local form for the
// nonlinear terms and to an (l,e)-local form for the implicit/
// collision work; the cost of each transformation is the exact
// volume of elements that change owner between the two
// distributions, exchanged with a simulated all-to-all. A layout that
// already keeps the needed dimensions fastest (the paper's yxles /
// yxels recommendations) makes the corresponding transformation free
// — the mechanism behind the paper's 3.4×/2.3× wins and the
// topology sensitivity of Fig. 5.
//
// A shape's redistribution plans are built once and frozen: the move
// volumes are counted from box intersections of the two distributions'
// owner ranges, never by visiting elements, so a new shape costs
// O(ranks × target owners per rank) whatever its grid size. Each plan
// keeps its exchange as a sparse simmpi.AlltoallvPattern, transposed
// for the return transform and priced once per machine before the
// ranks run.
//
// The package is the one place that knows what a GS2 run costs: Run
// executes the rank program, and Predictor prices the same program in
// closed form from the same frozen plans and constants, for the tuning
// engine's surrogate gate.
package gs2

import (
	"fmt"
	"strings"
)

// Layout is a permutation of the dimension letters "xyles",
// leftmost-fastest. GS2's historical default is "lxyes".
type Layout string

// DefaultLayout is the layout GS2 shipped with before this paper's
// tuning campaign.
const DefaultLayout Layout = "lxyes"

// Layouts lists the layouts compared in Fig. 5.
func Layouts() []Layout {
	return []Layout{"lxyes", "xyles", "yxles", "yxels", "lyxes", "exyls"}
}

// Validate checks the layout is a permutation of "xyles".
func (l Layout) Validate() error {
	if len(l) != 5 {
		return fmt.Errorf("gs2: layout %q must have 5 letters", l)
	}
	for _, c := range "xyles" {
		if !strings.ContainsRune(string(l), c) {
			return fmt.Errorf("gs2: layout %q missing dimension %q", l, string(c))
		}
	}
	return nil
}

// front returns a layout with the given dimensions moved to the
// front (fastest), in their original relative order, followed by the
// remaining dimensions in their original relative order. This is the
// target distribution of a phase that needs those dimensions local.
func (l Layout) front(dims string) Layout {
	var lead, rest []rune
	for _, c := range l {
		if strings.ContainsRune(dims, c) {
			lead = append(lead, c)
		} else {
			rest = append(rest, c)
		}
	}
	return Layout(string(lead) + string(rest))
}

// Dims holds the extent of each dimension.
type Dims struct {
	X, Y, L, E, S int
}

// N returns the total element count.
func (d Dims) N() int { return d.X * d.Y * d.L * d.E * d.S }

func (d Dims) size(c byte) int {
	switch c {
	case 'x':
		return d.X
	case 'y':
		return d.Y
	case 'l':
		return d.L
	case 'e':
		return d.E
	case 's':
		return d.S
	default:
		panic(fmt.Sprintf("gs2: unknown dimension %q", string(c)))
	}
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

// MoveMatrix computes, for the redistribution from distribution
// (home, d, p) to distribution (target, d, p), the number of elements
// rank i must send to rank j. Elements that stay on their owner are
// not counted. Both distributions split the respective flattened
// index space contiguously: owner(flat) = flat·p/N. It is the dense
// view of the sparse count the plans are built from.
func MoveMatrix(d Dims, home, target Layout, p int) [][]int {
	mv := countMoves(d, home, target, p)
	flat := make([]int, p*p)
	mat := make([][]int, p)
	for i := range mat {
		mat[i] = flat[i*p : (i+1)*p : (i+1)*p]
		for k := mv.start[i]; k < mv.start[i+1]; k++ {
			mat[i][mv.dst[k]] = mv.n[k]
		}
	}
	return mat
}

// moves is a move matrix stored sparse: rank i sends n[k] elements to
// rank dst[k] for k in [start[i], start[i+1]), destinations ascending.
// Zero entries and the diagonal are absent.
type moves struct{ start, dst, n []int }

// countMoves counts the move matrix without visiting an element. Owner
// boundaries are b_k = ⌈kN/p⌉. Rank i's home range [b_i, b_{i+1})
// splits into at most nine boxes (products of one index interval per
// dimension), and a target prefix [0, b_j) into at most five, so
// G_i(j) — how many of rank i's elements have a target index below
// b_j — is a sum of box intersections, and moved[i][j] = G_i(j+1) −
// G_i(j). Only the target owners between those of the smallest and
// the largest target index in rank i's boxes can be nonzero, so a
// shape costs O(p·k) for k target owners per rank, whatever N is. The
// counts are integers: the result is exact.
func countMoves(d Dims, home, target Layout, p int) moves {
	if err := home.Validate(); err != nil {
		panic(err)
	}
	if err := target.Validate(); err != nil {
		panic(err)
	}
	if p <= 0 {
		panic(fmt.Sprintf("gs2: %d ranks", p))
	}
	mv := moves{start: make([]int, p+1)}
	n := d.N()
	if n == 0 || home == target {
		return mv
	}
	hr, tr, ts := home.radix(d), target.radix(d), target.strides(d)
	bound := func(k int) int { return ceilDiv(k*n, p) }
	// pre[preStart[j]:preStart[j+1]] are the boxes of the target
	// prefix [0, b_j).
	preStart := make([]int, p+1)
	var pre []box
	for j := 0; j < p; j++ {
		preStart[j] = len(pre)
		pre = tr.boxes(0, bound(j), pre)
	}
	preStart[p] = len(pre)

	var hb []box
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
							g += overlap(&hb[h], &pre[t])
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

// radix is a layout's mixed-radix numbering of the flat index: the
// dimension (by dimIndex), extent and stride of each position, fastest
// first, with stride[5] = N.
type radix struct {
	dim, ext [5]int
	stride   [6]int
}

func (l Layout) radix(d Dims) radix {
	r := radix{stride: [6]int{1}}
	for q := 0; q < 5; q++ {
		r.dim[q], r.ext[q] = dimIndex(l[q]), d.size(l[q])
		r.stride[q+1] = r.stride[q] * r.ext[q]
	}
	return r
}

// box is a product of one half-open index interval per dimension,
// indexed by dimIndex.
type box struct{ lo, hi [5]int }

// boxes appends to out boxes whose disjoint union is the flat index
// range [lo, hi): at most nine, and at most five when lo is 0. It
// climbs from lo, completing each position's digit up to the next
// multiple of the stride above it, until that would pass hi; what is
// left lies inside one block of that stride, and it descends to hi
// taking whole blocks of each lower stride.
func (r *radix) boxes(lo, hi int, out []box) []box {
	cur, q := lo, 0
	for ; q < 5; q++ {
		next := ceilDiv(cur, r.stride[q+1]) * r.stride[q+1]
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
func (r *radix) box(cur, q, count int) box {
	var b box
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

// overlap returns the number of indices two boxes share.
func overlap(a, b *box) int {
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

func ceilDiv(a, b int) int { return (a + b - 1) / b }

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
