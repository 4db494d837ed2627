package sparse

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// TestHaloPlanMatchesDistMatrix checks the halo plan — built without
// sorting or index lists — against a brute-force reading of the CSR
// and against the DistMatrix of the same partition: for every rank
// the distinct remote columns, grouped by owner in increasing peer
// order, give the receive legs' counts, the mirrored send legs' peers,
// bytes and index lists, the ghost total behind HaloBytes, and the row
// and nnz counts. Runs on
// uneven random partitions of the band matrix, of the dense-block
// matrix (a cut block makes every one of its columns a ghost, many
// times referenced) and of a 2-D grid (ghosts a row stride away).
// Those three all have a diagonal and a narrow band, so they cannot
// tell the plan's prefix/suffix scan from a full walk; the random
// sorted-row matrices (randomSortedCSR) can, and are also planned
// under p = 1 and p = N.
func TestHaloPlanMatchesDistMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	gen := rand.New(rand.NewSource(17))
	mats := []struct {
		name  string
		a     *CSR
		edges bool // also plan p = 1 and p = N
	}{
		{"band", VariableBandLaplacian(300, 2, 24, 3), false},
		{"dense", DenseBlockLaplacian(240, RandomBlocks(240, 3, 40, 11)), false},
		{"grid", Poisson2D(12, 9), false},
		{"random-40", randomSortedCSR(gen, 40), true},
		{"random-97", randomSortedCSR(gen, 97), true},
	}
	for _, mat := range mats {
		name, a := mat.name, mat.a
		for trial := 0; trial < 20; trial++ {
			p := 1 + rng.Intn(7)
			part := randomPartition(rng, a.N, p)
			switch {
			case trial == 0:
				part = EvenPartition(a.N, p)
			case mat.edges && trial == 1:
				p, part = 1, EvenPartition(a.N, 1)
			case mat.edges && trial == 2:
				p, part = a.N, EvenPartition(a.N, a.N)
			}
			hp, err := NewHaloPlan(a, part)
			if err != nil {
				t.Fatalf("%s %v: NewHaloPlan: %v", name, part.Starts, err)
			}
			dm, err := NewDistMatrix(a, part)
			if err != nil {
				t.Fatalf("%s %v: NewDistMatrix: %v", name, part.Starts, err)
			}
			if !reflect.DeepEqual(hp, dm.HaloPlan) {
				t.Fatalf("%s %v: DistMatrix carries a different halo plan", name, part.Starts)
			}
			// need[r][peer]: sorted distinct columns rank r reads from peer.
			need := make([]map[int][]int, p)
			for r := 0; r < p; r++ {
				lo, hi := part.Range(r)
				seen := map[int]bool{}
				need[r] = map[int][]int{}
				for _, c := range a.Col[a.RowPtr[lo]:a.RowPtr[hi]] {
					if (c < lo || c >= hi) && !seen[c] {
						seen[c] = true
						need[r][part.OwnerOf(c)] = append(need[r][part.OwnerOf(c)], c)
					}
				}
				for _, cols := range need[r] {
					sort.Ints(cols)
				}
			}
			for r := 0; r < p; r++ {
				lo, hi := part.Range(r)
				var wantRecv []HaloLeg
				var wantDst, wantBytes []int
				var wantSendIdx [][]int
				ghosts := 0
				for peer := 0; peer < p; peer++ {
					if cols := need[r][peer]; len(cols) > 0 {
						wantRecv = append(wantRecv, HaloLeg{Peer: peer, Count: len(cols)})
						ghosts += len(cols)
					}
					if cols := need[peer][r]; len(cols) > 0 {
						wantDst, wantBytes = append(wantDst, peer), append(wantBytes, 8*len(cols))
						wantSendIdx = append(wantSendIdx, cols)
					}
				}
				sd := hp.Sends()
				dst, bytes := sd.Dst[sd.Start[r]:sd.Start[r+1]], sd.Bytes[sd.Start[r]:sd.Start[r+1]]
				if recv := hp.Recvs(r); !reflect.DeepEqual(recv, wantRecv) || !slices.Equal(dst, wantDst) || !slices.Equal(bytes, wantBytes) {
					t.Fatalf("%s %v rank %d: sends %v bytes %v, receives %v; want sends %v bytes %v, receives %v",
						name, part.Starts, r, dst, bytes, recv, wantDst, wantBytes, wantRecv)
				}
				if !reflect.DeepEqual(dm.plans[r].sendIdx, wantSendIdx) {
					t.Fatalf("%s %v rank %d: send index lists %v, want %v", name, part.Starts, r, dm.plans[r].sendIdx, wantSendIdx)
				}
				if hp.HaloBytes(r) != 8*ghosts || hp.LocalNNZ(r) != a.RowNNZ(lo, hi) || hp.LocalSize(r) != hi-lo ||
					hp.NNZCounts()[r] != float64(a.RowNNZ(lo, hi)) || hp.RowCounts()[r] != float64(hi-lo) {
					t.Fatalf("%s %v rank %d: HaloBytes %d LocalNNZ %d (%v) LocalSize %d (%v), want %d %d %d", name, part.Starts, r,
						hp.HaloBytes(r), hp.LocalNNZ(r), hp.NNZCounts()[r], hp.LocalSize(r), hp.RowCounts()[r], 8*ghosts, a.RowNNZ(lo, hi), hi-lo)
				}
			}
		}
	}
}

// randomSortedCSR draws an n×n matrix whose rows are random strictly
// ascending column sets — a few entries each, anywhere in [0, n), the
// diagonal present or not — with fixed rows in the shapes a
// prefix/suffix scan could get wrong: row 0 empty, row 1 every column
// (it references every rank), row n/3 every column but its own (under
// p = N all of them remote, on both sides), row n-1 empty too.
func randomSortedCSR(rng *rand.Rand, n int) *CSR {
	a := &CSR{N: n, RowPtr: make([]int, n+1)}
	for i := 0; i < n; i++ {
		var cols []int
		switch i {
		case 0, n - 1:
		case 1, n / 3:
			for c := 0; c < n; c++ {
				if c != i || i == 1 {
					cols = append(cols, c)
				}
			}
		default:
			seen := map[int]bool{}
			for k := rng.Intn(7); k > 0; k-- {
				if c := rng.Intn(n); !seen[c] {
					seen[c] = true
					cols = append(cols, c)
				}
			}
			if rng.Intn(2) == 0 && !seen[i] {
				cols = append(cols, i)
			}
			sort.Ints(cols)
		}
		for _, c := range cols {
			a.Col = append(a.Col, c)
			a.Val = append(a.Val, float64(c-i))
		}
		a.RowPtr[i+1] = len(a.Col)
	}
	return a
}

// TestRowOrderIsChecked pins the guard in front of the prefix/suffix
// scan: a hand-built CSR with one row's columns out of order, or with
// a duplicate column, is an error from every plan entry point — the
// one-off NewHaloPlan, NewDistMatrix, and every Get of a PlanCache
// (which checked once, when it was created) — never a plan.
func TestRowOrderIsChecked(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(a *CSR)
	}{
		{"swapped", func(a *CSR) {
			k := a.RowPtr[5]
			a.Col[k], a.Col[k+1] = a.Col[k+1], a.Col[k]
		}},
		{"duplicate", func(a *CSR) {
			k := a.RowPtr[5]
			a.Col[k+1] = a.Col[k]
		}},
	} {
		name, a := tc.name, Poisson2D(4, 4)
		tc.corrupt(a)
		part := EvenPartition(a.N, 2)
		if _, err := NewHaloPlan(a, part); err == nil {
			t.Errorf("%s: NewHaloPlan planned the matrix", name)
		}
		if _, err := NewDistMatrix(a, part); err == nil {
			t.Errorf("%s: NewDistMatrix planned the matrix", name)
		}
		pc := NewPlanCache(a)
		for i := 0; i < 2; i++ {
			if _, err := pc.Get(part); err == nil {
				t.Errorf("%s: PlanCache.Get #%d planned the matrix", name, i+1)
			}
		}
		if pc.Len() != 0 {
			t.Errorf("%s: PlanCache holds %d plans of a refused matrix", name, pc.Len())
		}
	}
}
