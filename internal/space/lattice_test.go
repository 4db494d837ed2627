package space

import (
	"fmt"
	"slices"
	"sort"
	"testing"
)

// spread lists the n levels spreadLevel picks from [0, total).
func spread(total, n int64) []int64 {
	n = min(n, total)
	out := make([]int64, n)
	for i := range out {
		out[i] = spreadLevel(total, n, int64(i))
	}
	return out
}

// points lists a lattice's points in number order, decoded by At.
func points(l Lattice) []Point {
	out := make([]Point, l.Size())
	for k := range out {
		out[k] = make(Point, len(l.counts))
		l.At(int64(k), out[k])
	}
	return out
}

// referenceGrid is a lattice as a list of points: the same per-dimension
// counts, each dimension's levels listed, sorted and deduplicated,
// and the cross product walked recursively, first dimension
// outermost. Lattice numbering must visit exactly these points in
// exactly this order.
func referenceGrid(s *Space, counts []int64) []Point {
	levels := make([][]int64, len(counts))
	for i, p := range s.params {
		var lv []int64
		switch total, n := p.Levels(), counts[i]; {
		case n >= total:
			for l := int64(0); l < total; l++ {
				lv = append(lv, l)
			}
		case n == 1:
			lv = []int64{(total - 1) / 2}
		default:
			for j := int64(0); j < n; j++ {
				lv = append(lv, j*(total-1)/(n-1))
			}
			sort.Slice(lv, func(a, b int) bool { return lv[a] < lv[b] })
			lv = slices.Compact(lv)
		}
		levels[i] = lv
	}
	var out []Point
	pt := make(Point, len(counts))
	var walk func(d int)
	walk = func(d int) {
		if d == len(counts) {
			out = append(out, pt.Clone())
			return
		}
		for _, lvl := range levels[d] {
			pt[d] = lvl
			walk(d + 1)
		}
	}
	walk(0)
	return out
}

func TestLatticeMatchesReferenceWalk(t *testing.T) {
	spaces := map[string]*Space{
		"plain":     MustNew(IntParam("a", 0, 9, 1), EnumParam("b", "x", "y", "z"), IntParam("c", 1, 1000, 3)),
		"one-level": MustNew(IntParam("a", 5, 5, 1), IntParam("b", 0, 6, 2)),
	}
	for name, s := range spaces {
		for _, budget := range []int{1, 2, 7, 30, 100, 333, 5000} {
			t.Run(fmt.Sprintf("%s/grid=%d", name, budget), func(t *testing.T) {
				l := s.GridLattice(budget)
				if got, want := points(l), referenceGrid(s, l.counts); !slices.EqualFunc(got, want, Point.Equal) {
					t.Fatalf("GridLattice(%d) = %v\nreference %v", budget, got, want)
				}
			})
		}
		t.Run(name+"/all", func(t *testing.T) {
			l := s.FullLattice()
			if got, want := points(l), referenceGrid(s, l.counts); !slices.EqualFunc(got, want, Point.Equal) {
				t.Fatalf("FullLattice has %d points, reference %d, or in another order", len(got), len(want))
			}
		})
	}
}

func TestLatticeSize(t *testing.T) {
	s := MustNew(IntParam("a", 0, 9, 1), IntParam("b", 0, 99, 1))
	if got := s.FullLattice().Size(); got != s.Size() {
		t.Errorf("FullLattice().Size() = %d, want %d", got, s.Size())
	}
	if got := s.GridLattice(0).Size(); got != 0 {
		t.Errorf("GridLattice(0).Size() = %d, want 0", got)
	}
	if l := s.GridLattice(50); l.Size() > 50 {
		t.Errorf("GridLattice(50) has %d points", l.Size())
	}
}

func TestNearestIntoMatchesNearest(t *testing.T) {
	s := testSpace(t)
	pt := make(Point, s.Dims())
	for _, x := range [][]float64{{-3, 0.5, 7.49}, {1e9, -0.5, 2.5}, {0.4999, 1.5, -1e9}} {
		if got, want := s.NearestInto(pt, x), s.Nearest(x); !got.Equal(want) || &got[0] != &pt[0] {
			t.Errorf("NearestInto(%v) = %v, want %v in the given point", x, got, want)
		}
	}
	if raceEnabled {
		t.Skip("allocation counts are not pinned under the race detector")
	}
	if n := testing.AllocsPerRun(100, func() { s.NearestInto(pt, []float64{1, 2, 3}) }); n != 0 {
		t.Errorf("NearestInto allocates %v times, want 0", n)
	}
}
