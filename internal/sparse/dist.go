package sparse

import (
	"fmt"
	"sort"
	"sync"

	"harmony/internal/simmpi"
)

// FlopsPerNNZ is the compute cost charged per stored nonzero in a
// distributed matrix-vector product: one multiply, one add, plus
// memory traffic folded into an effective factor.
const FlopsPerNNZ = 8.0

// HaloLeg is one leg of a halo exchange: the peer rank and how many
// vector entries travel on it per product.
type HaloLeg struct {
	Peer, Count int
}

// haloRank is one rank's share of a HaloPlan.
type haloRank struct {
	lo, hi int
	nnz    int
	// nGhost is the number of distinct remote columns the rank reads.
	nGhost int
	// recvLo and recvHi delimit the rank's receive legs in the plan's recv.
	recvLo, recvHi int
}

// HaloPlan is the cost skeleton of a matrix under a row partition:
// per rank the row range, the stored entries, and how many vector
// entries it ships to and receives from every neighbour during a
// product. That is everything the virtual clocks of a distributed
// product depend on, in a few hundred bytes; the index lists and
// kernel tables that move and multiply actual values are DistMatrix's.
// A HaloPlan is immutable once built and safe for concurrent use by
// many simulated jobs at once, until a plan from Band.AcquirePlan is
// released.
type HaloPlan struct {
	ranks []haloRank
	// recv holds every rank's receive legs, ranks in order and each
	// rank's peers ascending.
	recv []HaloLeg
	// sends holds every rank's send legs, the only copy of them: rank
	// src ships 8·count bytes to each peer, peers ascending.
	sends simmpi.NeighbourPattern
	// rows and nnz hold each rank's row and stored-entry counts as the
	// rank vectors simmpi.Lockstep.Compute takes.
	rows, nnz []float64
	// from is the builders' scratch: the current rank's distinct remote
	// columns by owner while receive legs are added, then each sender's
	// legs placed while mirrorSends runs.
	from []int
}

// planPool recycles the plans of Band.AcquirePlan with their arrays.
var planPool = sync.Pool{New: func() any { return new(HaloPlan) }}

// Release returns a plan from Band.AcquirePlan to the pool. The plan
// must not be read after release.
func (hp *HaloPlan) Release() { planPool.Put(hp) }

// reset starts the plan of a valid partition in hp's storage, with
// each rank's range and row count. A builder then visits the ranks in
// order, setting each one's stored entries (setNNZ) and receive legs
// (addRecvs), and finishes with mirrorSends. Every rank's receive legs
// share one array, so a new plan is a fixed handful of allocations,
// and a reused one none.
func (hp *HaloPlan) reset(part Partition) {
	p := part.P()
	if cap(hp.ranks) < p {
		hp.ranks, hp.from = make([]haloRank, p), make([]int, p)
		hp.rows, hp.nnz = make([]float64, p), make([]float64, p)
		hp.recv, hp.sends = make([]HaloLeg, 0, 2*p), simmpi.NeighbourPattern{
			Start: make([]int, p+1), Dst: make([]int, 0, 2*p), Bytes: make([]int, 0, 2*p)}
	}
	hp.ranks, hp.from, hp.rows, hp.nnz = hp.ranks[:p], hp.from[:p], hp.rows[:p], hp.nnz[:p]
	hp.recv, hp.sends.Start = hp.recv[:0], hp.sends.Start[:p+1]
	clear(hp.from)
	clear(hp.sends.Start)
	for r := range hp.ranks {
		lo, hi := part.Range(r)
		hp.ranks[r] = haloRank{lo: lo, hi: hi}
		hp.rows[r] = float64(hi - lo)
	}
}

// setNNZ records rank r's stored entries.
func (hp *HaloPlan) setNNZ(r, nnz int) {
	hp.ranks[r].nnz, hp.nnz[r] = nnz, float64(nnz)
}

// addRecvs turns hp.from, rank r's distinct remote columns counted by
// owner, into r's receive legs in increasing peer order, and clears it.
func (hp *HaloPlan) addRecvs(r int) {
	h, from := &hp.ranks[r], hp.from
	h.recvLo = len(hp.recv)
	for peer, n := range from {
		if n == 0 {
			continue
		}
		hp.recv = append(hp.recv, HaloLeg{Peer: peer, Count: n})
		hp.sends.Start[peer+1]++
		h.nGhost += n
		from[peer] = 0
	}
	h.recvHi = len(hp.recv)
}

// mirrorSends derives the send legs from the receive legs. Visiting
// receivers in increasing order keeps every sender's peers ascending;
// placed[src], all zero on entry, counts the legs of src already
// placed.
//
// The send legs grow to the most a plan built into this storage has
// had, then reuse capacity.
func (hp *HaloPlan) mirrorSends() {
	sd, p, placed := &hp.sends, len(hp.ranks), hp.from
	for src := 0; src < p; src++ {
		sd.Start[src+1] += sd.Start[src]
	}
	if n := sd.Start[p]; cap(sd.Dst) < n {
		sd.Dst, sd.Bytes = make([]int, n), make([]int, n)
	} else {
		sd.Dst, sd.Bytes = sd.Dst[:n], sd.Bytes[:n]
	}
	for r := 0; r < p; r++ {
		for _, leg := range hp.Recvs(r) {
			k := sd.Start[leg.Peer] + placed[leg.Peer]
			sd.Dst[k], sd.Bytes[k] = r, 8*leg.Count
			placed[leg.Peer]++
		}
	}
}

// newHaloPlan reads, of each row of rank r's range [lo, hi), only the
// ascending prefix of columns below lo and the suffix at or above hi —
// the row invariant makes those exactly its off-rank references — so
// a plan costs O(rows + halo), not O(nnz), plus one N-length stamp
// array: stamp[c] == r+1 marks column c as already counted for rank r,
// so repeated references deduplicate without sorting, and without
// clearing between ranks. With wantGhosts it also returns, per rank,
// the distinct remote columns in discovery order (ascending within
// each row, as a full walk would find them). The caller has checked
// a.checkRows.
func newHaloPlan(a *CSR, part Partition, wantGhosts bool) (*HaloPlan, [][]int, error) {
	if err := part.Validate(a.N); err != nil {
		return nil, nil, err
	}
	p := part.P()
	hp := new(HaloPlan)
	hp.reset(part)
	var ghosts [][]int
	if wantGhosts {
		ghosts = make([][]int, p)
	}
	stamp := make([]int32, a.N)
	from := hp.from // distinct ghosts of the current rank, by owner
	for r := 0; r < p; r++ {
		h := &hp.ranks[r]
		hp.setNNZ(r, a.RowNNZ(h.lo, h.hi))
		lo, hi, mark := int32(h.lo), int32(h.hi), int32(r+1)
		for i := h.lo; i < h.hi; i++ {
			row := a.Col[a.RowPtr[i]:a.RowPtr[i+1]]
			below, above := 0, len(row)
			for below < above && row[below] < lo {
				below++
			}
			for above > below && row[above-1] >= hi {
				above--
			}
			for _, end := range [2][]int32{row[:below], row[above:]} {
				for _, c := range end {
					if stamp[c] == mark {
						continue
					}
					stamp[c] = mark
					from[part.ownerOf(int(c))]++
					if wantGhosts {
						ghosts[r] = append(ghosts[r], int(c))
					}
				}
			}
		}
		hp.addRecvs(r)
	}
	hp.mirrorSends()
	return hp, ghosts, nil
}

// LocalSize returns the number of rows rank owns.
func (hp *HaloPlan) LocalSize(rank int) int {
	return hp.ranks[rank].hi - hp.ranks[rank].lo
}

// LocalNNZ returns the stored entries in rank's rows.
func (hp *HaloPlan) LocalNNZ(rank int) int { return hp.ranks[rank].nnz }

// MaxLocalNNZ returns the largest per-rank nonzero count: the load
// gate of every synchronised solver iteration.
func (hp *HaloPlan) MaxLocalNNZ() int {
	var m int
	for r := range hp.ranks {
		if hp.ranks[r].nnz > m {
			m = hp.ranks[r].nnz
		}
	}
	return m
}

// Recvs returns rank's receive legs in increasing peer order, nil when
// it receives nothing. The slice is the plan's own: read-only.
func (hp *HaloPlan) Recvs(rank int) []HaloLeg {
	h := &hp.ranks[rank]
	if h.recvLo == h.recvHi {
		return nil
	}
	return hp.recv[h.recvLo:h.recvHi:h.recvHi]
}

// Sends returns every rank's send legs as one neighbour pattern: the
// halo exchange of a product, with 8·count bytes on each leg, which
// simmpi.Lockstep.Exchange charges as DistMatrix.MatVecInto's sends
// and receives. It is the plan's own: read-only.
func (hp *HaloPlan) Sends() *simmpi.NeighbourPattern { return &hp.sends }

// RowCounts returns every rank's local row count as a rank vector for
// simmpi.Lockstep.Compute. The slice is the plan's own: read-only.
func (hp *HaloPlan) RowCounts() []float64 { return hp.rows }

// NNZCounts returns every rank's stored-entry count as a rank vector
// for simmpi.Lockstep.Compute. The slice is the plan's own: read-only.
func (hp *HaloPlan) NNZCounts() []float64 { return hp.nnz }

// DistMatrix is a CSR matrix plus a row partition with precomputed
// communication plans: the partition's HaloPlan, and on top of it, for
// every rank, which vector entries travel on each leg and the
// rank-local kernel tables.
//
// A DistMatrix is immutable after construction and safe for
// concurrent use by many simulated worlds at once.
type DistMatrix struct {
	A    *CSR
	Part Partition
	*HaloPlan

	plans []rankPlan
	// wsPools recycles per-rank MatVec workspaces (one pool per rank,
	// so a recycled workspace is always sized for the rank that
	// acquires it). sync.Pool keeps the DistMatrix safe to share
	// across concurrently simulated worlds.
	wsPools []sync.Pool
}

// rankPlan is what the numeric product needs beyond the halo plan.
type rankPlan struct {
	// sendIdx[i] lists the global indices travelling on send leg i,
	// ascending (it aliases the receiver's sorted ghost list). Receive
	// legs need no list: the ghost list and the row partition are both
	// sorted, so the ghosts of successive legs occupy successive slot
	// ranges of the operand's ghost section.
	sendIdx [][]int
	// colIdx maps each stored entry of the rank's rows (offset by the
	// rank's first entry) to its slot in the packed operand vector:
	// local columns map to [0, hi-lo), remote columns to hi-lo+slot.
	// It turns the inner product loop into pure array indexing.
	colIdx []int32
	// rowOff is the compressed row-pointer table of the rank's rows:
	// rowOff[i] is the offset of local row i's first entry relative to
	// the rank's first entry (len nloc+1). Together with colIdx it
	// makes the kernel's working set fully rank-local — int32 offsets
	// into the rank's own Val window and packed operand — which halves
	// index traffic versus the global int RowPtr and lets the compiler
	// drop bounds checks via per-row reslicing.
	rowOff []int32
}

// NewDistMatrix distributes a over the given partition: the halo plan,
// plus the index lists and kernel tables of the numeric product. Each
// rank's distinct remote columns (few, already deduplicated by the
// plan's walk) are sorted once; because the partition is contiguous
// the sorted list splits into per-peer runs of the plan's leg counts.
// Its kernel tables read every entry anyway, so it checks a's row
// invariant on every call. A structure-only matrix has no product: it
// is an error.
func NewDistMatrix(a *CSR, part Partition) (*DistMatrix, error) {
	if err := a.checkRows(); err != nil {
		return nil, err
	}
	if !a.hasValues() {
		return nil, fmt.Errorf("sparse: a matrix with %d values for %d entries has no product", len(a.Val), len(a.Col))
	}
	hp, ghosts, err := newHaloPlan(a, part, true)
	if err != nil {
		return nil, err
	}
	p := part.P()
	dm := &DistMatrix{A: a, Part: part, HaloPlan: hp, plans: make([]rankPlan, p)}
	for r := 0; r < p; r++ {
		sort.Ints(ghosts[r])
		off := 0
		for _, leg := range hp.Recvs(r) {
			pl := &dm.plans[leg.Peer]
			pl.sendIdx = append(pl.sendIdx, ghosts[r][off:off+leg.Count])
			off += leg.Count
		}
	}
	// The operand index map and the compressed per-rank row offsets.
	for r := 0; r < p; r++ {
		h, pl := &hp.ranks[r], &dm.plans[r]
		nloc := h.hi - h.lo
		if h.nnz != int(int32(h.nnz)) {
			return nil, fmt.Errorf("sparse: rank %d holds %d entries, beyond the int32 plan offsets", r, h.nnz)
		}
		pl.colIdx = make([]int32, h.nnz)
		pl.rowOff = make([]int32, nloc+1)
		base := a.RowPtr[h.lo]
		for i := 0; i < nloc; i++ {
			pl.rowOff[i] = int32(a.RowPtr[h.lo+i] - base)
		}
		pl.rowOff[nloc] = int32(h.nnz)
		for k := base; k < a.RowPtr[h.hi]; k++ {
			c := int(a.Col[k])
			if c >= h.lo && c < h.hi {
				pl.colIdx[k-base] = int32(c - h.lo)
			} else {
				pl.colIdx[k-base] = int32(nloc + sort.SearchInts(ghosts[r], c))
			}
		}
	}
	dm.wsPools = make([]sync.Pool, p)
	return dm, nil
}

// Workspace holds one rank's MatVec scratch: the packed operand
// (local entries followed by ghost slots) and the result vector.
// A zero Workspace is ready to use; MatVecInto grows the buffers on
// demand and keeps their capacity, so a workspace reused across
// MatVec calls — and across the Newton–Krylov iterations of a whole
// solve — performs no steady-state allocations. A Workspace belongs
// to one rank of one simulated world at a time; it carries no
// locking.
type Workspace struct {
	xbuf []float64
	y    []float64
}

// grow returns buf resized to length n, reallocating only when the
// capacity is insufficient. Contents are unspecified.
func grow(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// AcquireWorkspace returns a workspace for the given rank, recycled
// from the per-rank pool when one is available. Pair with
// ReleaseWorkspace once the solve is done; a workspace must not be
// used after release.
func (dm *DistMatrix) AcquireWorkspace(rank int) *Workspace {
	if dm.wsPools != nil {
		if v := dm.wsPools[rank].Get(); v != nil {
			return v.(*Workspace)
		}
	}
	return new(Workspace)
}

// ReleaseWorkspace returns a workspace to rank's pool for reuse by a
// later solve (possibly in another concurrently simulated world).
func (dm *DistMatrix) ReleaseWorkspace(rank int, ws *Workspace) {
	if dm.wsPools != nil {
		dm.wsPools[rank].Put(ws)
	}
}

// MatVecInto computes the local block of y = A·x inside a simulated
// rank. x is the rank's local slice (rows [lo,hi)); the returned slice
// is the local slice of y, ws's result buffer, valid until the next
// MatVecInto on the same workspace. Ghost entries are exchanged with
// neighbour ranks, paying real communication costs; the local product
// charges FlopsPerNNZ per stored entry. With a warm workspace the whole product — send staging,
// operand packing, and the local kernel — allocates nothing: staging
// buffers cycle through the world's payload free lists (the receiver
// donates them back after unpacking) and the operand and result live
// in ws.
func (dm *DistMatrix) MatVecInto(ws *Workspace, r *simmpi.Rank, tag int, x []float64) []float64 {
	ws.y = grow(ws.y, dm.LocalSize(r.ID()))
	dm.matVec(r, tag, x, ws, ws.y)
	return ws.y
}

func (dm *DistMatrix) matVec(r *simmpi.Rank, tag int, x []float64, ws *Workspace, y []float64) {
	h, plan := &dm.ranks[r.ID()], &dm.plans[r.ID()]
	nloc := h.hi - h.lo
	if len(x) != nloc {
		panic(fmt.Sprintf("sparse: rank %d MatVec got %d entries, owns %d", r.ID(), len(x), nloc))
	}
	// Ship owned entries to every neighbour that needs them. Staging
	// comes from the world's recycled-payload free lists and is handed
	// to the machine without a defensive copy; the receiving rank
	// donates it back once unpacked.
	peers := dm.sends.Dst[dm.sends.Start[r.ID()]:]
	for i, idx := range plan.sendIdx {
		vals := r.AcquireBuf(len(idx))
		for k, g := range idx {
			vals[k] = x[g-h.lo]
		}
		r.SendOwned(peers[i], tag, vals)
	}
	// Operand vector: local entries followed by ghost slots. Ghosts
	// from one peer land in one contiguous copy.
	ws.xbuf = grow(ws.xbuf, nloc+h.nGhost)
	xbuf := ws.xbuf
	copy(xbuf, x)
	off := nloc
	for _, leg := range dm.Recvs(r.ID()) {
		vals := r.Recv(leg.Peer, tag)
		if len(vals) != leg.Count {
			panic(fmt.Sprintf("sparse: rank %d expected %d ghosts from %d, got %d", r.ID(), leg.Count, leg.Peer, len(vals)))
		}
		copy(xbuf[off:], vals)
		off += leg.Count
		r.ReleaseBuf(vals)
	}
	base := dm.A.RowPtr[h.lo]
	matVecKernel(y, dm.A.Val[base:base+h.nnz], plan.rowOff, plan.colIdx, xbuf)
	r.Compute(FlopsPerNNZ * float64(h.nnz))
}

// matVecKernel is the rank-local inner product: y[i] sums row i of
// the rank's Val window against the packed operand. Per-row reslicing
// of val and ci lets the compiler prove the k indexes in bounds and
// drop the checks (verified with -gcflags=-d=ssa/check_bce: only the
// data-dependent xbuf gather keeps its check), and adjacent row pairs
// are processed together, interleaving two independent accumulator
// chains so the loop is no longer gated by one row's serial
// floating-point add latency. Each row's accumulation stays strictly
// left-to-right, so results are bit-identical to the host CSR.MulVec
// reference. All indices are rank-local int32 offsets, keeping the
// working set compact: Val window, colIdx, and the packed operand
// stream contiguously regardless of where the rank's rows sit in the
// global matrix.
func matVecKernel(y, val []float64, rowOff, ci []int32, xbuf []float64) {
	if len(rowOff) != len(y)+1 {
		panic("sparse: row offsets disagree with result length")
	}
	i := 0
	for ; i+1 < len(y); i += 2 {
		v0 := val[rowOff[i]:rowOff[i+1]]
		c0 := ci[rowOff[i]:rowOff[i+1]]
		v1 := val[rowOff[i+1]:rowOff[i+2]]
		c1 := ci[rowOff[i+1]:rowOff[i+2]]
		n := len(v0)
		if len(v1) < n {
			n = len(v1)
		}
		p0, q0 := v0[:n], c0[:n]
		p1, q1 := v1[:n], c1[:n]
		var s0, s1 float64
		for k := range p0 {
			s0 += p0[k] * xbuf[q0[k]]
			s1 += p1[k] * xbuf[q1[k]]
		}
		c0 = c0[:len(v0)]
		for k := n; k < len(v0); k++ {
			s0 += v0[k] * xbuf[c0[k]]
		}
		c1 = c1[:len(v1)]
		for k := n; k < len(v1); k++ {
			s1 += v1[k] * xbuf[c1[k]]
		}
		y[i], y[i+1] = s0, s1
	}
	if i < len(y) {
		v := val[rowOff[i]:rowOff[i+1]]
		c := ci[rowOff[i]:rowOff[i+1]]
		c = c[:len(v)]
		var s float64
		for k := range v {
			s += v[k] * xbuf[c[k]]
		}
		y[i] = s
	}
}

// Scatter splits a global vector into the local slice for rank.
func (dm *DistMatrix) Scatter(rank int, global []float64) []float64 {
	h := &dm.ranks[rank]
	return append([]float64(nil), global[h.lo:h.hi]...)
}

// VecFlops is the compute cost per element of a vector update.
const VecFlops = 2.0

// VecCost charges rank r one pass over an n-element local vector: the
// whole cost of an axpy, and the local part of a dot product.
func VecCost(r *simmpi.Rank, n int) {
	r.Compute(VecFlops * float64(n))
}

// Dot computes the global dot product of two distributed vectors from
// inside a rank: local partial plus an allreduce.
func Dot(r *simmpi.Rank, a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	VecCost(r, len(a))
	return r.Allreduce1(simmpi.Sum, s)
}

// Axpy computes y += alpha·x locally.
func Axpy(r *simmpi.Rank, alpha float64, x, y []float64) {
	for i := range y {
		y[i] += alpha * x[i]
	}
	VecCost(r, len(y))
}
