package cluster

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

func TestRankLayoutNodeMajor(t *testing.T) {
	m := Seaborg(4, 16)
	if m.Procs() != 64 {
		t.Fatalf("Procs = %d, want 64", m.Procs())
	}
	if m.NodeOf(0) != 0 || m.NodeOf(15) != 0 || m.NodeOf(16) != 1 || m.NodeOf(63) != 3 {
		t.Error("NodeOf layout wrong")
	}
	if !m.SameNode(0, 15) || m.SameNode(15, 16) {
		t.Error("SameNode wrong")
	}
}

func TestLinkSelection(t *testing.T) {
	m := Seaborg(2, 16)
	if m.LinkBetween(0, 1) != m.Intra {
		t.Error("same-node ranks should use intra link")
	}
	if m.LinkBetween(0, 16) != m.Inter {
		t.Error("cross-node ranks should use inter link")
	}
	if m.Intra.Latency >= m.Inter.Latency {
		t.Error("intra-node latency should be below inter-node")
	}
	if m.Intra.Bandwidth <= m.Inter.Bandwidth {
		t.Error("intra-node bandwidth should exceed inter-node")
	}
}

func TestHeterogeneousLabSpeeds(t *testing.T) {
	m := HeterogeneousLab()
	if err := m.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if m.SpeedOf(0) >= m.SpeedOf(3) {
		t.Errorf("PII rank speed %v should be below P4 rank speed %v", m.SpeedOf(0), m.SpeedOf(3))
	}
	homo := HomogeneousLab()
	for r := 1; r < homo.Procs(); r++ {
		if homo.SpeedOf(r) != homo.SpeedOf(0) {
			t.Error("homogeneous lab has varying speeds")
		}
	}
}

func TestPresetsValidate(t *testing.T) {
	for _, m := range []*Machine{
		Seaborg(8, 16), Seaborg(16, 8), Seaborg(32, 4),
		Hockney(8, 4), MyrinetLinux(64, 2),
		HomogeneousLab(), HeterogeneousLab(),
	} {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
	}
}

func TestValidateCatchesBadMachines(t *testing.T) {
	cases := []func(*Machine){
		func(m *Machine) { m.Nodes = 0 },
		func(m *Machine) { m.PPN = -1 },
		func(m *Machine) { m.Gflops = m.Gflops[:1] },
		func(m *Machine) { m.Gflops[0] = 0 },
		func(m *Machine) { m.Inter.Bandwidth = 0 },
		func(m *Machine) { m.Intra.Latency = -1 },
	}
	for i, mutate := range cases {
		m := Seaborg(4, 4)
		mutate(m)
		if err := m.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestStringIncludesTopology(t *testing.T) {
	m := Seaborg(8, 16)
	if got := m.String(); !strings.Contains(got, "8x16") {
		t.Errorf("String = %q", got)
	}
}

// TestPresetNamesMatchFmt: the presets render their names with
// strconv, and each reads as fmt's "<name>-%dx%d" over a spread of
// sizes: node counts a preset can allocate speeds for, and per-node
// counts down to zero, negative and extreme ones.
func TestPresetNamesMatchFmt(t *testing.T) {
	presets := []struct {
		name  string
		build func(nodes, ppn int) *Machine
	}{{"seaborg", Seaborg}, {"hockney", Hockney}, {"linux", MyrinetLinux}}
	nodeCounts := []int{0, 1, 2, 7, 8, 16, 32, 64, 100, 1024, 65536}
	ppns := []int{0, 1, 2, 4, 16, 99, -1, math.MaxInt, math.MinInt}
	for _, p := range presets {
		for _, nodes := range nodeCounts {
			for _, ppn := range ppns {
				if got, want := p.build(nodes, ppn).Name, fmt.Sprintf("%s-%dx%d", p.name, nodes, ppn); got != want {
					t.Errorf("%s(%d, %d).Name = %q, want %q", p.name, nodes, ppn, got, want)
				}
			}
		}
	}
}
