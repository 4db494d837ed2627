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
// volumes are counted box by box from the home owner ranges, never by
// visiting elements, so a new shape costs O(ranks × target owners per
// rank) whatever its grid size. Each plan keeps its exchange as a
// sparse simmpi.AlltoallvPattern, priced once per machine before the
// ranks run; the way back is the same exchange mirrored.
//
// The package is the one place that knows what a GS2 run costs, and
// Run, which executes the rank program, is its one cost program. It
// offers the tuning engine's surrogate gate no closed form: one read
// from these plans and constants prices what Run prices (to 5e-5 over
// the Table III lattice), so screening with it would prune by the
// objective itself.
package gs2

import (
	"fmt"
	"math"
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

// validate checks the layout is a permutation of "xyles".
func (l Layout) validate() error {
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

// n returns the total element count.
func (d Dims) n() int { return d.X * d.Y * d.L * d.E * d.S }

func (d Dims) size(c byte) int {
	return [5]int{d.X, d.Y, d.L, d.E, d.S}[strings.IndexByte("xyles", c)]
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
// Zero entries and the diagonal are absent. recv[j] is the total rank j
// receives. bounds and boxes are the count's own scratch: kept here,
// the boxes do not grow the stack of each goroutine that counts.
type moves struct {
	start, dst, n, recv []int
	bounds              []bound
	boxes               [9]box
}

// bound is an owner bound b_k = ⌈kN/p⌉ and its target digits.
type bound struct {
	f int
	d [5]int
}

// countMoves counts the move matrix into fresh storage.
func countMoves(d Dims, home, target Layout, p int) moves {
	var mv moves
	mv.count(d, home, target, p)
	return mv
}

// count overwrites mv with the move matrix, counted without visiting an
// element. Owner boundaries are b_k = ⌈kN/p⌉. Rank i's home range
// [b_i, b_{i+1}) splits into at most nine boxes (products of one digit
// interval per position), and G_i(j), how many of its elements have a
// target index below b_j, sums a walk down b_j's target digits in each
// box: moved[i][j] = G_i(j+1) − G_i(j). Only the owners of the target
// indices between the boxes' corners can be nonzero, so a shape costs
// O(p·k) for k target owners per rank, whatever N is. The count is one
// pass that appends to mv's slices, so scratch that has held a larger
// count allocates nothing. The counts are integers: the result is
// exact. Owner bounds and digits are divided in 32 bits, which
// countable guarantees.
func (mv *moves) count(d Dims, home, target Layout, p int) {
	for _, l := range [...]Layout{home, target} {
		if err := l.validate(); err != nil {
			panic(err)
		}
	}
	if err := countable(d, p); err != nil {
		panic(err)
	}
	mv.start, mv.recv = zeroed(mv.start, p+1), zeroed(mv.recv, p)
	mv.dst, mv.n = mv.dst[:0], mv.n[:0]
	n := d.n()
	if n == 0 || home == target {
		return
	}
	t := transform{home: home.radix(d), target: target.radix(d)}
	for r := range t.from {
		t.from[r] = strings.IndexByte(string(home), target[r])
	}
	// Every rank's count walks the same bounds, so each is divided
	// into its digits once.
	mv.bounds = mv.bounds[:0]
	for k := 0; k <= p; k++ {
		f := ceilDiv(k*n, p)
		mv.bounds = append(mv.bounds, bound{f, t.target.digits(f)})
	}
	hi, hd := 0, [5]int{}
	for i := 0; i < p; i++ {
		lo, ld := hi, hd
		hi = mv.bounds[i+1].f
		if hi == lo {
			// A rank that owns nothing sends nothing: it has no
			// corners to bound its target owners.
			mv.start[i+1] = len(mv.dst)
			continue
		}
		hd = t.home.digits(hi)
		bs := t.split(&ld, &hd, &mv.boxes)
		// The target index is increasing in every coordinate, so
		// each box's corners bound its target indices.
		tmin, tmax := n, 0
		for b := range bs {
			tmin, tmax = min(tmin, bs[b].first), max(tmax, bs[b].last)
		}
		// G_i(jmin) is 0 and G_i(jmax+1) is the whole range.
		jmin, jmax := mulDiv(tmin, p, n), mulDiv(tmax, p, n)
		prev := 0
		for j := jmin; j <= jmax; j++ {
			g := hi - lo
			if j < jmax {
				bd := &mv.bounds[j+1]
				g = 0
				for b := range bs {
					g += bs[b].below(bd.f, &bd.d)
				}
			}
			if g > prev && j != i {
				mv.dst = append(mv.dst, j)
				mv.n = append(mv.n, g-prev)
				mv.recv[j] += g - prev
			}
			prev = g
		}
		mv.start[i+1] = len(mv.dst)
	}
}

// countable reports whether p ranks over d's elements can be counted:
// the largest numerator of an owner bound, p·N + p − 1 (about
// (p+1)·N), must stay below 2³², because the count divides in 32 bits.
func countable(d Dims, p int) error {
	const lim = math.MaxUint32
	if p <= 0 {
		return fmt.Errorf("gs2: %d ranks", p)
	}
	n := uint64(1)
	for _, e := range [...]int{d.X, d.Y, d.L, d.E, d.S} {
		if e < 0 || uint64(e) > lim {
			return fmt.Errorf("gs2: extent %d of %+v out of range", e, d)
		}
		if n *= uint64(e); n > lim {
			return fmt.Errorf("gs2: %+v has more than 2³² elements", d)
		}
	}
	if uint64(p) > lim || uint64(p)*(n+1) > lim+1 {
		return fmt.Errorf("gs2: %d ranks over %+v overflow the 32-bit move count", p, d)
	}
	return nil
}

// zeroed returns s resized to n zeros, reusing its capacity.
func zeroed(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// radix is a layout's mixed-radix numbering of the flat index: each
// position's extent and stride, fastest first, with stride[5] = N.
type radix struct {
	ext    [5]int
	stride [6]int
}

func (l Layout) radix(d Dims) radix {
	r := radix{stride: [6]int{1}}
	for q := 0; q < 5; q++ {
		r.ext[q] = d.size(l[q])
		r.stride[q+1] = r.stride[q] * r.ext[q]
	}
	return r
}

// digits returns f's digits, fastest first. The slowest is not
// reduced, so N's digits are (0, 0, 0, 0, ext[4]). f is at most N,
// below 2³² (countable), so the divisions are 32-bit.
func (r *radix) digits(f int) (d [5]int) {
	u := uint32(f)
	for q := 4; q > 0; q-- {
		s := uint32(r.stride[q])
		d[q], u = int(u/s), u%s
	}
	d[0] = int(u)
	return d
}

// transform holds a redistribution's home and target radices and the
// home position from[r] of each target position r.
type transform struct {
	home, target radix
	from         [5]int
}

// box is a product of one half-open digit interval per target
// position: position r spans [lo[r], lo[r]+w[r]), and each of its
// digits is shared by unit[r] = w[0]·…·w[r−1] of the box's vol indices.
// Its target indices lie in [first, last].
type box struct {
	lo, w, unit      [5]int
	vol, first, last int
}

// split returns the boxes, at most nine, whose disjoint union is the
// home range between the digits ld and hd. With D the slowest position
// where they differ and z the fastest where ld is nonzero, each
// position from z to D takes the digits after ld's (from ld's at z, to
// hd's at D), and each below D the digits before hd's.
func (t *transform) split(ld, hd *[5]int, out *[9]box) []box {
	d, z, bs := 4, 0, out[:0]
	for d > 0 && ld[d] == hd[d] {
		d--
	}
	for z < d && ld[z] == 0 {
		z++
	}
	for q := z; q <= d; q++ {
		from, to := ld[q], t.home.ext[q]
		if q > z {
			from++
		}
		if q == d {
			to = hd[q]
		}
		bs = t.add(bs, q, ld, from, to-from)
	}
	for q := d - 1; q >= 0; q-- {
		bs = t.add(bs, q, hd, 0, hd[q])
	}
	return bs
}

// add appends, unless it is empty, the box of d's digits above position
// q, [from, from+count) at q, and all digits below q.
func (t *transform) add(bs []box, q int, d *[5]int, from, count int) []box {
	if count == 0 {
		return bs
	}
	bs = bs[:len(bs)+1]
	b := &bs[len(bs)-1]
	b.vol, b.first, b.last = 1, 0, 0
	for r, k := range t.from {
		lo, w := d[k], 1
		if k < q {
			lo, w = 0, t.home.ext[k]
		} else if k == q {
			lo, w = from, count
		}
		b.lo[r], b.w[r], b.unit[r] = lo, w, b.vol
		b.vol *= w
		b.first += lo * t.target.stride[r]
		b.last += (lo + w - 1) * t.target.stride[r]
	}
	return bs
}

// below counts the box's indices whose target index is below f, whose
// target digits are d, walking down while d stays inside the box.
func (b *box) below(f int, d *[5]int) int {
	if f <= b.first {
		return 0
	}
	if f > b.last {
		return b.vol
	}
	g := 0
	for r := 4; r >= 0; r-- {
		k := d[r] - b.lo[r]
		if k < 0 {
			break
		}
		if k >= b.w[r] {
			return g + b.w[r]*b.unit[r]
		}
		g += k * b.unit[r]
	}
	return g
}

// ceilDiv and mulDiv are ⌈a/b⌉ and ⌊a·b/c⌋ for operands whose
// numerators stay below 2³² (countable).
func ceilDiv(a, b int) int { return int((uint32(a) + uint32(b) - 1) / uint32(b)) }

func mulDiv(a, b, c int) int { return int(uint32(a) * uint32(b) / uint32(c)) }
