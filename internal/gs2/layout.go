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
// index space contiguously: owner(flat) = flat·p/N.
//
// The computation walks the index space in runs along the fastest
// dimension of one of the two layouts; inside a run both owners are
// monotone step functions, so each run costs O(owner changes), not
// O(run length). Because moved(A→B) = moved(B→A)ᵀ either layout can
// be the walked one: the walk takes whichever has the smaller stride
// for its run dimension under the other layout (fewest owner changes
// per run) and transposes the result when that is the target.
func MoveMatrix(d Dims, home, target Layout, p int) [][]int {
	if err := home.Validate(); err != nil {
		panic(err)
	}
	if err := target.Validate(); err != nil {
		panic(err)
	}
	if p <= 0 {
		panic(fmt.Sprintf("gs2: %d ranks", p))
	}
	if d.N() == 0 || home == target {
		return newMatrix(p)
	}
	if home.strides(d)[dimIndex(target[0])] < target.strides(d)[dimIndex(home[0])] {
		return transpose(walk(d, target, home, p))
	}
	return walk(d, home, target, p)
}

// walk accumulates moved(a→b) run by run along a[0]. Runs are visited
// in a's flat order, so a's base advances by the run length; b's base
// is carried by an odometer over a's other four dimensions.
func walk(d Dims, a, b Layout, p int) [][]int {
	mat := newMatrix(p)
	n := d.N()
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

// newMatrix returns a zero p×p matrix whose rows share one backing
// array.
func newMatrix(p int) [][]int {
	flat := make([]int, p*p)
	mat := make([][]int, p)
	for i := range mat {
		mat[i] = flat[i*p : (i+1)*p : (i+1)*p]
	}
	return mat
}

// transpose returns mᵀ for a square matrix.
func transpose(m [][]int) [][]int {
	t := newMatrix(len(m))
	for i, row := range m {
		for j, v := range row {
			t[j][i] = v
		}
	}
	return t
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
		k1 := ceilDiv((o1+1)*n, p) - f1
		// Next k where o2 changes: (f2+k'·s2)·p >= (o2+1)·n.
		k2 := length
		if s2 > 0 {
			k2 = ceilDiv(ceilDiv((o2+1)*n, p)-f2, s2)
		}
		next := k1
		if k2 < next {
			next = k2
		}
		if next > length {
			next = length
		}
		if next <= k { // guard against pathological stalls
			next = k + 1
		}
		if o1 != o2 {
			mat[o1][o2] += next - k
		}
		k = next
	}
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
