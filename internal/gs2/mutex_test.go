package gs2

import (
	"testing"

	"harmony/internal/cluster"
)

// TestResolutionObjectiveReleasesMutex walks each return of machine —
// a node count built and stored, one met again, one another worker
// stored while this one built it — and requires the mutex to be free
// after each: a return that kept it would deadlock the next run.
func TestResolutionObjectiveReleasesMutex(t *testing.T) {
	var ro *resolutionObjective
	raced := false
	ro = &resolutionObjective{base: DefaultConfig(), mf: func(nodes int) *cluster.Machine {
		if nodes == 3 && !raced {
			raced = true
			ro.machine(nodes) // another worker stores the node count first
		}
		return LinuxCluster(nodes)
	}}
	for _, step := range []struct {
		name  string
		nodes int
	}{
		{"machine (built)", 2},
		{"machine (kept)", 2},
		{"machine (stored meanwhile)", 3},
	} {
		m := ro.machine(step.nodes)
		if !ro.mu.TryLock() {
			t.Fatalf("%s returned holding the mutex", step.name)
		}
		kept := ro.machines[step.nodes]
		ro.mu.Unlock()
		if m != kept {
			t.Errorf("%s returned a machine other than the one kept", step.name)
		}
	}
}
