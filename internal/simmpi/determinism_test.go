package simmpi

import (
	"testing"
)

// alltoallTraffic returns rank id's send row for the shared traffic
// pattern, filling destinations in an order that varies with perm.
func alltoallTraffic(id, n int, perm []int) []int {
	m := make([]int, n)
	for _, k := range perm {
		dst := (id + k) % n
		if dst == id {
			continue
		}
		// Irregular, pair-dependent volumes so a reordered float
		// accumulation would actually change the result.
		m[dst] = 1000 + 137*((id*n+dst)%29) + 7*dst
	}
	return m
}

// TestAlltoallvBytesOrderIndependent pins the determinism contract of
// the exchange cost model: the simulated cost sums per-destination
// link times in float64, and summation order must come from rank
// numbering, never from the order a caller built its send plan in.
// Each repetition fills the send row in a different order; the
// resulting Stats must stay bit-identical.
func TestAlltoallvBytesOrderIndependent(t *testing.T) {
	const n = 6
	perms := [][]int{
		{1, 2, 3, 4, 5},
		{5, 4, 3, 2, 1},
		{3, 1, 5, 2, 4},
		{2, 5, 1, 4, 3},
	}
	var ref Stats
	for trial, perm := range perms {
		st, err := Run(testMachine(2, 3), n, func(r *Rank) {
			for iter := 0; iter < 4; iter++ {
				got := r.AlltoallvBytesRow(alltoallTraffic(r.ID(), n, perm))
				if got <= 0 {
					t.Errorf("rank %d received %d bytes, want > 0", r.ID(), got)
				}
			}
		})
		if err != nil {
			t.Fatalf("Run (trial %d): %v", trial, err)
		}
		if trial == 0 {
			ref = st
			continue
		}
		if st.Time != ref.Time {
			t.Errorf("trial %d: Time = %v, want %v (fill order leaked into costs)", trial, st.Time, ref.Time)
		}
		for i := range ref.RankClocks {
			if st.RankClocks[i] != ref.RankClocks[i] {
				t.Errorf("trial %d: RankClocks[%d] = %v, want %v", trial, i, st.RankClocks[i], ref.RankClocks[i])
			}
		}
		if st.BytesSent != ref.BytesSent {
			t.Errorf("trial %d: BytesSent = %d, want %d", trial, st.BytesSent, ref.BytesSent)
		}
	}
}

// TestRepeatedRunsIdenticalStats runs the same mixed workload
// back-to-back on one machine and requires every repetition to
// reproduce the first bit for bit.
func TestRepeatedRunsIdenticalStats(t *testing.T) {
	m := testMachine(2, 2)
	body := func(r *Rank) {
		r.Compute(float64(1+r.ID()) * 1e6)
		sum := r.Allreduce1(Sum, float64(r.ID()))
		if sum != 6 {
			t.Errorf("rank %d: allreduce sum = %v, want 6", r.ID(), sum)
		}
		peer := (r.ID() + 1) % r.Size()
		prev := (r.ID() + r.Size() - 1) % r.Size()
		r.Send(peer, 0, []float64{float64(r.ID())})
		data := r.Recv(prev, 0)
		if len(data) != 1 || data[0] != float64(prev) {
			t.Errorf("rank %d: payload %v, want [%d]", r.ID(), data, prev)
		}
		r.AlltoallvBytesRow(alltoallTraffic(r.ID(), r.Size(), []int{1, 2, 3}))
		r.Barrier()
	}
	var ref Stats
	for trial := 0; trial < 5; trial++ {
		st, err := Run(m, 4, body)
		if err != nil {
			t.Fatalf("Run (trial %d): %v", trial, err)
		}
		if trial == 0 {
			ref = st
			continue
		}
		if st.Time != ref.Time || st.BytesSent != ref.BytesSent || st.Messages != ref.Messages {
			t.Errorf("trial %d: (Time, BytesSent, Messages) = (%v, %d, %d), want (%v, %d, %d)",
				trial, st.Time, st.BytesSent, st.Messages, ref.Time, ref.BytesSent, ref.Messages)
		}
		for i := range ref.RankClocks {
			if st.RankClocks[i] != ref.RankClocks[i] {
				t.Errorf("trial %d: RankClocks[%d] = %v, want %v", trial, i, st.RankClocks[i], ref.RankClocks[i])
			}
		}
	}
}
