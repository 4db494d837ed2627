package sparse

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
)

// TestHaloPlanMatchesDistMatrix checks the halo plan — built without
// sorting or index lists — against a brute-force reading of the CSR
// and against the DistMatrix of the same partition: for every rank
// the distinct remote columns, grouped by owner in increasing peer
// order, give the receive legs' counts, the mirrored send legs' peers,
// bytes and index lists, the ghost total behind the halo bytes, and the row
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
			hp, err := haloPlanOf(a, part)
			if err != nil {
				t.Fatalf("%s %v: haloPlanOf: %v", name, part.Starts, err)
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
				for _, col := range a.Col[a.RowPtr[lo]:a.RowPtr[hi]] {
					if c := int(col); (c < lo || c >= hi) && !seen[c] {
						seen[c] = true
						need[r][part.ownerOf(c)] = append(need[r][part.ownerOf(c)], c)
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
				if haloBytes(hp, r) != 8*ghosts || hp.LocalNNZ(r) != a.RowNNZ(lo, hi) || hp.LocalSize(r) != hi-lo ||
					hp.NNZCounts()[r] != float64(a.RowNNZ(lo, hi)) || hp.RowCounts()[r] != float64(hi-lo) {
					t.Fatalf("%s %v rank %d: halo bytes %d LocalNNZ %d (%v) LocalSize %d (%v), want %d %d %d", name, part.Starts, r,
						haloBytes(hp, r), hp.LocalNNZ(r), hp.NNZCounts()[r], hp.LocalSize(r), hp.RowCounts()[r], 8*ghosts, a.RowNNZ(lo, hi), hi-lo)
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
			a.Col = append(a.Col, int32(c))
			a.Val = append(a.Val, float64(c-i))
		}
		a.RowPtr[i+1] = len(a.Col)
	}
	return a
}

// haloPlanOf is the halo plan of a under part, planned from a's rows.
func haloPlanOf(a *CSR, part Partition) (*HaloPlan, error) {
	hp, _, err := newHaloPlan(a, part, false)
	return hp, err
}

// haloBytes is the bytes rank receives per product under hp.
func haloBytes(hp *HaloPlan, rank int) int { return 8 * hp.ranks[rank].nGhost }

// TestRowOrderIsChecked pins the guard in front of the prefix/suffix
// scan: a hand-built CSR with one row's columns out of order, or with
// a duplicate column, is an error from every entry point that reads
// rows — NewDistMatrix, and BandOf, the way to
// a Band's plans — never a plan. The matrix is a band, which BandOf
// accepts before the corruption.
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
		name, a := tc.name, VariableBandLaplacian(40, 4, 8, 2)
		if _, err := BandOf(a); err != nil {
			t.Fatalf("%s: BandOf refused the intact band: %v", name, err)
		}
		tc.corrupt(a)
		part := EvenPartition(a.N, 2)
		if _, err := NewDistMatrix(a, part); err == nil {
			t.Errorf("%s: NewDistMatrix planned the matrix", name)
		}
		if _, err := BandOf(a); err == nil {
			t.Errorf("%s: BandOf took the matrix for a band", name)
		}
	}
}

// TestStructureOnlyMatrix pins what a matrix without values may do. A
// halo plan reads only structure, so haloPlanOf plans VariableBand's
// Pattern, and the band plans itself, fresh or into pooled storage,
// exactly as haloPlanOf plans VariableBandLaplacian. The numeric
// product has nothing to multiply: NewDistMatrix refuses a matrix with
// no values, or too few, with an error, and MulVec panics with a
// message rather than indexing past Val.
func TestStructureOnlyMatrix(t *testing.T) {
	band := VariableBand(300, 2, 24, 3)
	valued, pattern := VariableBandLaplacian(300, 2, 24, 3), band.Pattern()
	part := EvenPartition(valued.N, 4)
	want, err := haloPlanOf(valued, part)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := haloPlanOf(pattern, part); err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("haloPlanOf the pattern: err %v, or a different plan", err)
	}
	if got, err := band.HaloPlan(part); err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("HaloPlan of the band: err %v, or a different plan", err)
	}
	if got, err := band.AcquirePlan(part); err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("AcquirePlan of the band: err %v, or a different plan", err)
	} else {
		got.Release()
	}
	for _, vals := range [][]float64{nil, valued.Val[:len(valued.Val)-1]} {
		a := &CSR{N: pattern.N, RowPtr: pattern.RowPtr, Col: pattern.Col, Val: vals}
		if _, err := NewDistMatrix(a, part); err == nil {
			t.Errorf("%d values: NewDistMatrix distributed the matrix", len(vals))
		}
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "values") {
					t.Errorf("%d values: MulVec recovered %v, want a panic naming the values", len(vals), r)
				}
			}()
			a.MulVec(make([]float64, a.N))
		}()
	}
}
