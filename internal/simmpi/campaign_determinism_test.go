package simmpi

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"harmony/internal/core"
	"harmony/internal/search"
	"harmony/internal/space"
)

// trialsFingerprint compresses a campaign Result into a string with
// the exact float64 bits of every trial, so two campaigns compare
// bit-identically rather than approximately.
func trialsFingerprint(res *core.Result) string {
	h := sha256.New()
	var buf [8]byte
	addInt := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	for _, tr := range res.Trials {
		addInt(int64(tr.Proposal))
		addInt(int64(tr.Run))
		for _, c := range tr.Point {
			addInt(c)
		}
		addInt(int64(math.Float64bits(tr.Value)))
	}
	bestKey := ""
	if res.Best != nil {
		bestKey = res.Best.Key()
	}
	return fmt.Sprintf("runs=%d proposals=%d best=%s bestValue=%x trials=%x",
		res.Runs, res.Proposals, bestKey, math.Float64bits(res.BestValue), h.Sum(nil)[:8])
}

// collectiveObjective simulates a collective-heavy job: every time
// step does an irregular all-to-all, an allreduce, and a barrier. The
// perm controls the order each rank fills its traffic row in, which
// differs between campaign repetitions while the workload itself is
// identical.
func collectiveObjective(perm []int) core.Objective {
	m := testMachine(2, 3)
	return func(_ context.Context, cfg space.Config) (float64, error) {
		iters := int(cfg.Int("iters"))
		grain := float64(cfg.Int("grain"))
		st, err := Run(m, 6, func(r *Rank) {
			for i := 0; i < iters; i++ {
				r.Compute(grain * 1e5)
				r.AlltoallvBytesRow(alltoallTraffic(r.ID(), r.Size(), perm))
				r.Allreduce1(Sum, float64(r.ID()+i))
				r.Barrier()
			}
		})
		if err != nil {
			return 0, err
		}
		return st.Time, nil
	}
}

// TestCampaignFingerprintImmuneToMapOrder runs a full tuning campaign
// (simplex over a small space, objective = simulated collective-heavy
// job) once per fill-order permutation and requires bit-identical
// fingerprints. This is the end-to-end version of the wallclock and
// maporder analyzer contracts: if any map-order or wall-clock
// dependence leaks into the evaluation path, the trial log's float
// bits diverge here before a golden fingerprint in the root package
// ever goes stale.
func TestCampaignFingerprintImmuneToMapOrder(t *testing.T) {
	perms := [][]int{
		{1, 2, 3, 4, 5},
		{5, 4, 3, 2, 1},
		{3, 1, 5, 2, 4},
		{2, 5, 1, 4, 3},
	}
	var ref string
	for trial, perm := range perms {
		sp := space.MustNew(
			space.IntParam("iters", 1, 4, 1),
			space.IntParam("grain", 1, 8, 1),
		)
		res, err := core.Tune(context.Background(), sp,
			search.NewSimplex(sp, search.SimplexOptions{}),
			collectiveObjective(perm), core.Options{MaxRuns: 12})
		if err != nil {
			t.Fatalf("Tune (perm %d): %v", trial, err)
		}
		fp := trialsFingerprint(res)
		if trial == 0 {
			ref = fp
			if res.Runs == 0 {
				t.Fatal("campaign made no runs; the fixture is vacuous")
			}
			continue
		}
		if fp != ref {
			t.Errorf("perm %d: fingerprint diverged under fill-order perturbation:\n got %s\nwant %s", trial, fp, ref)
		}
	}
}
