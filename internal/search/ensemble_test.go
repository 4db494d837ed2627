package search

import (
	"math"
	"reflect"
	"testing"

	"harmony/internal/space"
)

func ensembleSpace(t *testing.T) *space.Space {
	t.Helper()
	return space.MustNew(
		space.IntParam("x", 0, 40, 1),
		space.IntParam("y", 0, 40, 1),
	)
}

func ensembleBowl(pt space.Point) float64 {
	dx := float64(pt[0] - 31)
	dy := float64(pt[1] - 7)
	return dx*dx + dy*dy + 1
}

// driveEnsemble runs the issue/commit loop with a pipeline of depth
// in-flight candidates, committing in issue order — the engine's
// interaction pattern, without the engine.
func driveEnsemble(e *Ensemble, depth, budget int, value func(space.Point) float64) {
	type issued struct{ pt space.Point }
	var window []issued
	commits := 0
	for commits < budget {
		for len(window) < depth && commits+len(window) < budget {
			pt, ok := e.Ask()
			if !ok {
				break
			}
			window = append(window, issued{pt})
		}
		if len(window) == 0 {
			if e.Done() {
				return
			}
			break
		}
		head := window[0]
		window = window[1:]
		e.Commit(head.pt, value(head.pt))
		commits++
	}
}

// TestEnsembleDeterministicTrace pins the bandit's determinism: the
// same seed and the same commit values produce the identical
// technique-allocation trace and Best, whatever the pipeline depth
// of the driver — depth changes which commits the bandit has seen at
// each Ask, so each depth's trace is pinned against a fresh run of
// itself.
func TestEnsembleDeterministicTrace(t *testing.T) {
	sp := ensembleSpace(t)
	for _, depth := range []int{1, 4, 8} {
		run := func() *Ensemble {
			e := NewEnsemble(sp, EnsembleOptions{Seed: 23, Budget: 80})
			driveEnsemble(e, depth, 120, ensembleBowl)
			return e
		}
		a, b := run(), run()
		if !reflect.DeepEqual(a.AllocTrace(), b.AllocTrace()) {
			t.Fatalf("depth %d: allocation trace not reproducible:\n%v\n%v", depth, a.AllocTrace(), b.AllocTrace())
		}
		if len(a.AllocTrace()) == 0 {
			t.Fatalf("depth %d: empty allocation trace", depth)
		}
		ap, av, aok := a.Best()
		bp, bv, bok := b.Best()
		if !aok || !bok || !ap.Equal(bp) || av != bv {
			t.Fatalf("depth %d: Best not reproducible: (%v,%v,%v) vs (%v,%v,%v)", depth, ap, av, aok, bp, bv, bok)
		}
	}
}

// TestEnsembleUsesEveryTechnique verifies UCB's optimistic
// initialisation: every member is tried at least once.
func TestEnsembleUsesEveryTechnique(t *testing.T) {
	sp := ensembleSpace(t)
	e := NewEnsemble(sp, EnsembleOptions{Seed: 5, Budget: 80})
	driveEnsemble(e, 4, 60, ensembleBowl)
	seen := make(map[int]bool)
	for _, arm := range e.AllocTrace() {
		seen[arm] = true
	}
	for i, a := range e.arms {
		if !seen[i] {
			t.Fatalf("technique %d (%s) never issued a candidate; trace %v", i, a.name, e.AllocTrace())
		}
	}
}

// constProposer proposes a fixed point list in order, in rounds of
// eight like a real sampler; used to build a technique whose
// candidates always forfeit. It issues rounds so that the bandit, not
// the one-in-flight stall of a sequential member, decides its share.
type constProposer struct {
	machine
	points      []space.Point
	issued, idx int
	name        string
}

func newConstProposer(name string, pts []space.Point) *constProposer {
	c := &constProposer{points: pts, name: name}
	c.self = c
	return c
}

func (c *constProposer) Name() string { return c.name }

func (c *constProposer) Ask() (space.Point, bool) {
	if c.idx == len(c.points) {
		return c.finish()
	}
	if c.issued > c.idx && (c.issued%8 == 0 || c.issued == len(c.points)) {
		return nil, false // a round of eight is in flight
	}
	c.issued++
	return c.points[c.issued-1].Clone(), true
}

func (c *constProposer) Commit(pt space.Point, value float64) {
	c.observe(pt, value)
	c.idx++
}

// TestEnsembleBanditShiftsAwayFromFaultyTechnique injects a member
// whose every candidate forfeits (committed at +Inf) next to a
// healthy member, and requires the bandit to provably starve the
// faulty one: its mean payoff pins at −1, so after the burn-in its
// share of issues must collapse while the healthy member's grows.
func TestEnsembleBanditShiftsAwayFromFaultyTechnique(t *testing.T) {
	sp := ensembleSpace(t)
	lat := sp.GridLattice(2000)
	grid := make([]space.Point, lat.Size())
	for k := range grid {
		grid[k] = make(space.Point, sp.Dims())
		lat.At(int64(k), grid[k])
	}
	half := len(grid) / 2
	faulty := newConstProposer("faulty", grid[:half])
	healthy := newConstProposer("healthy", grid[half:])
	e := newEnsemble(faulty, healthy)
	faultyIdx := 0
	value := func(pt space.Point) float64 {
		// Identify the issuer from the committed point: the faulty
		// member owns the first half of the grid.
		for _, fp := range grid[:half] {
			if pt.Equal(fp) {
				return math.Inf(1)
			}
		}
		return ensembleBowl(pt)
	}
	driveEnsemble(e, 4, 200, value)
	trace := e.AllocTrace()
	if len(trace) < 100 {
		t.Fatalf("short trace: %d issues", len(trace))
	}
	tail := trace[len(trace)/2:]
	faultyTail := 0
	for _, arm := range tail {
		if arm == faultyIdx {
			faultyTail++
		}
	}
	share := float64(faultyTail) / float64(len(tail))
	if share > 0.25 {
		t.Fatalf("bandit still allocates %.0f%% of the tail to the always-forfeiting technique (trace tail %v)",
			share*100, tail)
	}
	total := 0
	for _, arm := range trace {
		if arm == faultyIdx {
			total++
		}
	}
	if total == 0 {
		t.Fatal("faulty technique never tried at all: UCB burn-in missing")
	}
}

// TestEnsembleSequentialFacade verifies the Strategy facade honours
// the pending-proposal contract and drives the same members.
func TestEnsembleSequentialFacade(t *testing.T) {
	sp := ensembleSpace(t)
	e := NewEnsemble(sp, EnsembleOptions{Seed: 23, Budget: 40})
	for i := 0; i < 30; i++ {
		pt, ok := e.Next()
		if !ok {
			break
		}
		again, ok2 := e.Next()
		if !ok2 || !pt.Equal(again) {
			t.Fatalf("Next without Report changed the pending proposal: %v then %v", pt, again)
		}
		e.Report(pt, ensembleBowl(pt))
	}
	if _, _, ok := e.Best(); !ok {
		t.Fatal("no best after 30 sequential reports")
	}
}
