package main

import (
	"fmt"
	"math"
)

// The oracles judge results from outside the code that produced them:
// each takes plain values the benchmark gathered (a re-measurement on
// a fresh objective, the driver's own record of what it reported) and
// returns an error on a miss. Any miss fails the run.

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkCampaign holds one off-line outcome against the re-measurement
// of its best configuration on a freshly built objective.
func checkCampaign(o *outcome, remeasured float64) error {
	if !sameBits(remeasured, o.bestValue) {
		return fmt.Errorf("campaign %d: BestValue %v, but BestConfig re-runs to %v", o.id, o.bestValue, remeasured)
	}
	if !o.bestMeasured {
		return fmt.Errorf("campaign %d: Best %s is not a measured trial (pruned, or its value differs from BestValue)", o.id, o.best)
	}
	if o.startIsDefault && !(o.bestValue <= o.defaultValue) {
		return fmt.Errorf("campaign %d: started from the default (%v) but reports a worse best (%v)", o.id, o.defaultValue, o.bestValue)
	}
	if o.failures != 0 {
		return fmt.Errorf("campaign %d: %d objective failures on a workload chosen to have none", o.id, o.failures)
	}
	return nil
}

// checkReplay requires a campaign replayed against the cache its cold
// run filled to be indistinguishable from that run, and to have been
// answered from the cache alone.
func checkReplay(cold, warm *outcome) error {
	switch {
	case warm.best != cold.best || !sameBits(warm.bestValue, cold.bestValue) ||
		warm.runs != cold.runs || !sameBits(warm.tuningCost, cold.tuningCost):
		return fmt.Errorf("campaign %d: replay (best %s=%v, runs %d, cost %v) differs from the cold run (best %s=%v, runs %d, cost %v)",
			cold.id, warm.best, warm.bestValue, warm.runs, warm.tuningCost, cold.best, cold.bestValue, cold.runs, cold.tuningCost)
	case warm.fingerprint != cold.fingerprint:
		return fmt.Errorf("campaign %d: replay trial log differs from the cold run:\n warm %s\n cold %s", cold.id, warm.fingerprint, cold.fingerprint)
	case warm.cacheMisses != 0 || warm.cacheHits != warm.runs:
		return fmt.Errorf("campaign %d: replay had %d hits and %d misses for %d runs; every run must be a hit",
			cold.id, warm.cacheHits, warm.cacheMisses, warm.runs)
	}
	return nil
}

// checkSame requires two runs that must be deterministic replicas
// (same-seed repetitions, Workers 1 vs W) to agree on every
// deterministic result field.
func checkSame(what string, a, b []string) error {
	if len(a) != len(b) {
		return fmt.Errorf("%s: %d results against %d", what, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("%s: result %d differs:\n  %s\n  %s", what, i, a[i], b[i])
		}
	}
	return nil
}

// sessionRecord is the driver's own account of one on-line session.
type sessionRecord struct {
	id          int
	sent        int     // reports sent
	minReported float64 // lowest perf the driver reported
	first       float64 // perf of the first configuration fetched (the start point)
	costToBest  float64 // Σ reported perf up to and including the first report of minReported
	bestPerf    float64 // what Best() answered at the end
}

// checkSession requires the server's best to be the minimum the
// session's own driver reported.
func checkSession(r *sessionRecord) error {
	if r.sent == 0 {
		return fmt.Errorf("session %d finished without a single report", r.id)
	}
	if !sameBits(r.bestPerf, r.minReported) {
		return fmt.Errorf("session %d: Best() perf %v, but the lowest perf reported was %v", r.id, r.bestPerf, r.minReported)
	}
	return nil
}

// checkReports requires every report sent to be accounted for: credited
// to a configuration, or acknowledged and dropped as stale.
func checkReports(sent, accepted, droppedStale int64) error {
	if accepted+droppedStale != sent {
		return fmt.Errorf("reports: sent %d, server accepted %d + dropped %d stale", sent, accepted, droppedStale)
	}
	return nil
}
