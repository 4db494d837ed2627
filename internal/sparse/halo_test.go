package sparse

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// TestHaloPlanMatchesDistMatrix checks the halo plan — built without
// sorting or index lists — against a brute-force reading of the CSR
// and against the DistMatrix of the same partition: for every rank
// the distinct remote columns, grouped by owner in increasing peer
// order, give the receive legs' counts, the mirrored send legs' counts
// and index lists, the ghost total behind HaloBytes, and nnz. Runs on
// uneven random partitions of the band matrix, of the dense-block
// matrix (a cut block makes every one of its columns a ghost, many
// times referenced) and of a 2-D grid (ghosts a row stride away).
func TestHaloPlanMatchesDistMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	mats := []struct {
		name string
		a    *CSR
	}{
		{"band", VariableBandLaplacian(300, 2, 24, 3)},
		{"dense", DenseBlockLaplacian(240, RandomBlocks(240, 3, 40, 11))},
		{"grid", Poisson2D(12, 9)},
	}
	for _, mat := range mats {
		name, a := mat.name, mat.a
		for trial := 0; trial < 20; trial++ {
			p := 1 + rng.Intn(7)
			part := randomPartition(rng, a.N, p)
			if trial == 0 {
				part = EvenPartition(a.N, p)
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
				var wantRecv, wantSend []HaloLeg
				var wantSendIdx [][]int
				ghosts := 0
				for peer := 0; peer < p; peer++ {
					if cols := need[r][peer]; len(cols) > 0 {
						wantRecv = append(wantRecv, HaloLeg{Peer: peer, Count: len(cols)})
						ghosts += len(cols)
					}
					if cols := need[peer][r]; len(cols) > 0 {
						wantSend = append(wantSend, HaloLeg{Peer: peer, Count: len(cols)})
						wantSendIdx = append(wantSendIdx, cols)
					}
				}
				send, recv := hp.Legs(r)
				if !reflect.DeepEqual(recv, wantRecv) || !reflect.DeepEqual(send, wantSend) {
					t.Fatalf("%s %v rank %d: legs send %v recv %v, want send %v recv %v",
						name, part.Starts, r, send, recv, wantSend, wantRecv)
				}
				if !reflect.DeepEqual(dm.plans[r].sendIdx, wantSendIdx) {
					t.Fatalf("%s %v rank %d: send index lists %v, want %v", name, part.Starts, r, dm.plans[r].sendIdx, wantSendIdx)
				}
				if hp.HaloBytes(r) != 8*ghosts || hp.LocalNNZ(r) != a.RowNNZ(lo, hi) || hp.LocalSize(r) != hi-lo {
					t.Fatalf("%s %v rank %d: HaloBytes %d LocalNNZ %d LocalSize %d, want %d %d %d", name, part.Starts, r,
						hp.HaloBytes(r), hp.LocalNNZ(r), hp.LocalSize(r), 8*ghosts, a.RowNNZ(lo, hi), hi-lo)
				}
			}
		}
	}
}
