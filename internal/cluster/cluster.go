// Package cluster models the parallel machines of the paper's
// evaluation: nodes-times-processors-per-node topologies with
// distinct intra-node and inter-node interconnect characteristics and
// optionally heterogeneous per-node CPU speeds.
//
// The paper's experiments run on the NERSC Seaborg IBM SP-3 (16-way
// SMP nodes, Colony switch), a 64-node dual-Xeon Myrinet Linux
// cluster, and a small lab cluster mixing Pentium 4 and Pentium II
// nodes. Preset constructors approximate each.
package cluster

import (
	"fmt"
	"math"
	"strings"
)

// Link describes one class of communication path.
type Link struct {
	// Latency is the end-to-end small-message latency in seconds.
	Latency float64
	// Bandwidth is the sustained point-to-point bandwidth in bytes
	// per second.
	Bandwidth float64
	// Overhead is the CPU time the sender spends injecting one
	// message, in seconds.
	Overhead float64
}

// Machine is a cluster of SMP nodes. Ranks are laid out node-major:
// rank r runs on node r/PPN.
type Machine struct {
	// Name identifies the machine in reports ("seaborg-8x16").
	Name string
	// Nodes is the number of SMP nodes.
	Nodes int
	// PPN is the number of processors used per node.
	PPN int
	// Gflops is the per-node CPU speed in GFLOP/s per processor.
	// len(Gflops) == Nodes. Heterogeneous machines vary entries.
	Gflops []float64
	// Intra is the link between two ranks on the same node (shared
	// memory); Inter is the link between ranks on different nodes.
	Intra, Inter Link
	// BisectionBandwidth caps the aggregate inter-node traffic of
	// dense exchange patterns (all-to-all) in bytes per second.
	// 0 selects the default Nodes×Inter.Bandwidth/2 (a full-bisection
	// fat tree halved across the middle).
	BisectionBandwidth float64
}

// Bisection returns the effective bisection bandwidth.
func (m *Machine) Bisection() float64 {
	if m.BisectionBandwidth > 0 {
		return m.BisectionBandwidth
	}
	return float64(m.Nodes) * m.Inter.Bandwidth / 2
}

// Procs returns the total rank count Nodes×PPN.
func (m *Machine) Procs() int { return m.Nodes * m.PPN }

// NodeOf returns the node hosting the given rank.
func (m *Machine) NodeOf(rank int) int { return rank / m.PPN }

// SameNode reports whether two ranks share a node.
func (m *Machine) SameNode(a, b int) bool { return m.NodeOf(a) == m.NodeOf(b) }

// LinkBetween returns the link class connecting two ranks.
func (m *Machine) LinkBetween(a, b int) Link {
	if m.SameNode(a, b) {
		return m.Intra
	}
	return m.Inter
}

// SpeedOf returns the speed of the given rank in FLOP/s.
func (m *Machine) SpeedOf(rank int) float64 {
	return m.Gflops[m.NodeOf(rank)] * 1e9
}

// Validate checks internal consistency.
func (m *Machine) Validate() error {
	if m.Nodes <= 0 || m.PPN <= 0 {
		return fmt.Errorf("cluster: machine %q has %d nodes × %d ppn", m.Name, m.Nodes, m.PPN)
	}
	if len(m.Gflops) != m.Nodes {
		return fmt.Errorf("cluster: machine %q has %d speed entries for %d nodes", m.Name, len(m.Gflops), m.Nodes)
	}
	for i, g := range m.Gflops {
		if g <= 0 {
			return fmt.Errorf("cluster: machine %q node %d has speed %v", m.Name, i, g)
		}
	}
	for _, l := range []Link{m.Intra, m.Inter} {
		if l.Latency < 0 || l.Bandwidth <= 0 || l.Overhead < 0 {
			return fmt.Errorf("cluster: machine %q has invalid link %+v", m.Name, l)
		}
	}
	return nil
}

// String renders the machine as "name nodesxppn".
func (m *Machine) String() string {
	return fmt.Sprintf("%s %dx%d", m.Name, m.Nodes, m.PPN)
}

// Fingerprint renders every field of the cost model into a canonical
// string: two machines with equal fingerprints produce bit-identical
// simulations for the same rank program. It content-addresses machine
// models for the evaluation cache: a changed model must invalidate
// cached timings.
func (m *Machine) Fingerprint() string {
	link := func(l Link) string {
		return fmt.Sprintf("%x/%x/%x", math.Float64bits(l.Latency), math.Float64bits(l.Bandwidth), math.Float64bits(l.Overhead))
	}
	var b strings.Builder
	fmt.Fprintf(&b, "n%d;p%d;intra%s;inter%s;bis%x;g", m.Nodes, m.PPN, link(m.Intra), link(m.Inter), math.Float64bits(m.BisectionBandwidth))
	for _, g := range m.Gflops {
		fmt.Fprintf(&b, ",%x", math.Float64bits(g))
	}
	return b.String()
}

func uniformSpeeds(nodes int, gflops float64) []float64 {
	s := make([]float64, nodes)
	for i := range s {
		s[i] = gflops
	}
	return s
}

// Seaborg approximates one nodes×ppn slice of the NERSC IBM SP-3
// "Seaborg": 375 MHz POWER3 processors (≈1.5 GFLOP/s peak, ≈0.55
// sustained), 16-way SMP nodes, Colony switch (≈20 µs latency,
// ≈350 MB/s per task).
func Seaborg(nodes, ppn int) *Machine {
	return &Machine{
		Name:   fmt.Sprintf("seaborg-%dx%d", nodes, ppn),
		Nodes:  nodes,
		PPN:    ppn,
		Gflops: uniformSpeeds(nodes, 0.55),
		Intra:  Link{Latency: 3e-6, Bandwidth: 1.0e9, Overhead: 1e-6},
		Inter:  Link{Latency: 20e-6, Bandwidth: 350e6, Overhead: 3e-6},
	}
}

// Hockney approximates the NERSC "Hockney" development SP used for
// the POP parameter study (32 processors as 8 nodes × 4 ppn in the
// paper). Same processor family as Seaborg.
func Hockney(nodes, ppn int) *Machine {
	m := Seaborg(nodes, ppn)
	m.Name = fmt.Sprintf("hockney-%dx%d", nodes, ppn)
	return m
}

// MyrinetLinux approximates the paper's 64-node Linux cluster: dual
// 2.66 GHz Xeon nodes (≈1.3 GFLOP/s sustained per core) on Myrinet
// (≈8 µs latency, ≈245 MB/s).
func MyrinetLinux(nodes, ppn int) *Machine {
	return &Machine{
		Name:   fmt.Sprintf("linux-%dx%d", nodes, ppn),
		Nodes:  nodes,
		PPN:    ppn,
		Gflops: uniformSpeeds(nodes, 1.3),
		Intra:  Link{Latency: 1e-6, Bandwidth: 2.0e9, Overhead: 0.5e-6},
		Inter:  Link{Latency: 8e-6, Bandwidth: 245e6, Overhead: 2e-6},
	}
}

// HomogeneousLab is the paper's Fig. 3(a) machine: four identical
// Pentium 4 nodes on switched Ethernet.
func HomogeneousLab() *Machine {
	return &Machine{
		Name:   "lab-homogeneous-4x1",
		Nodes:  4,
		PPN:    1,
		Gflops: uniformSpeeds(4, 0.8),
		Intra:  Link{Latency: 1e-6, Bandwidth: 1.5e9, Overhead: 0.5e-6},
		Inter:  Link{Latency: 60e-6, Bandwidth: 100e6, Overhead: 5e-6},
	}
}

// HeterogeneousLab is the paper's Fig. 3(b) machine: two Pentium 4
// nodes plus two much slower Pentium II nodes.
func HeterogeneousLab() *Machine {
	return &Machine{
		Name:   "lab-heterogeneous-4x1",
		Nodes:  4,
		PPN:    1,
		Gflops: []float64{0.15, 0.15, 0.8, 0.8}, // two PII, two P4
		Intra:  Link{Latency: 1e-6, Bandwidth: 1.5e9, Overhead: 0.5e-6},
		Inter:  Link{Latency: 60e-6, Bandwidth: 100e6, Overhead: 5e-6},
	}
}
