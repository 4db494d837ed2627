package search

import (
	"runtime"
	"runtime/debug"
	"testing"

	"harmony/internal/space"
)

func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are not pinned under the race detector")
	}
}

// allocSpace is large enough that neither search collapses within the
// pinned rounds.
func allocSpace() *space.Space {
	return space.MustNew(
		space.IntParam("a", 0, 999, 1), space.IntParam("b", 0, 999, 1),
		space.IntParam("c", 0, 999, 1), space.IntParam("d", 0, 999, 1),
	)
}

func allocObjective(pt space.Point) float64 {
	var f float64
	for d, v := range pt {
		x := float64(v - int64(137*(d+1)))
		f += x * x
	}
	return f
}

// allocsBeyondHandouts drives as through rounds of Ask/Commit — Ask
// until the round stalls, then commit each point — and returns the
// mallocs left once each handed-out point and each new best (the
// tracker keeps a copy) is counted off.
func allocsBeyondHandouts(as AsyncStrategy, rounds int) int64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	pts := make([]space.Point, 0, 64)
	best, _, _ := as.Best()
	bestValue := allocObjective(best)
	var handouts int64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range rounds {
		pts = pts[:0]
		for pt, ok := as.Ask(); ok; pt, ok = as.Ask() {
			pts = append(pts, pt)
		}
		for _, pt := range pts {
			v := allocObjective(pt)
			if v < bestValue {
				bestValue = v
				handouts++
			}
			as.Commit(pt, v)
		}
		handouts += int64(len(pts))
	}
	runtime.ReadMemStats(&after)
	return int64(after.Mallocs-before.Mallocs) - handouts
}

// TestPRORoundAllocatesOnlyItsPoints: once its round state exists, a
// PRO round — reflection, expansion, shrink and the collapse test,
// asked and committed a member at a time — allocates only the points
// it hands out.
func TestPRORoundAllocatesOnlyItsPoints(t *testing.T) {
	skipUnderRace(t)
	p := NewPRO(allocSpace(), PROOptions{Seed: 3})
	allocsBeyondHandouts(p, 40) // round state, private generator
	if p.expanded()[0].x == nil || p.rng.src.own == nil {
		t.Fatal("warm-up did not reach an expansion and the private generator")
	}
	if n := allocsBeyondHandouts(p, 60); n != 0 {
		t.Errorf("60 PRO phases allocate %d times beyond the points they hand out, want 0", n)
	}
	if p.Converged() {
		t.Fatal("PRO converged inside the pinned rounds; the pin measured nothing")
	}
}

// TestSimplexIterationAllocatesOnlyItsPoints: a simplex iteration
// reuses its centroid, trial points and vertices, so it allocates
// only the points it hands out.
func TestSimplexIterationAllocatesOnlyItsPoints(t *testing.T) {
	skipUnderRace(t)
	s := NewSimplex(allocSpace(), SimplexOptions{})
	allocsBeyondHandouts(s, 10)
	if n := allocsBeyondHandouts(s, 40); n != 0 {
		t.Errorf("40 simplex proposals allocate %d times beyond the points they hand out, want 0", n)
	}
	if s.Converged() || s.Iterations() < 10 {
		t.Fatalf("simplex converged or ran %d iterations inside the pinned proposals", s.Iterations())
	}
}

// bytesPerCall reports the bytes f allocates per call, with the
// collector off so what a call leaves behind is never swept mid-count.
func bytesPerCall(f func()) uint64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range 100 {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / 100
}

// TestNewPROBytes: a PRO strategy computes its initial spread from its
// seed and owns no generator, so building one over a two-dimension
// space costs under 768 bytes (480 measured), where a math/rand source
// alone is 5 376 bytes.
func TestNewPROBytes(t *testing.T) {
	skipUnderRace(t)
	sp := space.MustNew(space.IntParam("x", 0, 40, 1), space.IntParam("y", 0, 40, 1))
	seed := int64(0)
	if b := bytesPerCall(func() { seed++; NewPRO(sp, PROOptions{Seed: seed}) }); b >= 768 {
		t.Errorf("NewPRO allocates %d bytes, want under 768", b)
	}
}

// TestNewSystematicBytes: Systematic walks its grid, so building one
// costs the same bytes at any budget.
func TestNewSystematicBytes(t *testing.T) {
	skipUnderRace(t)
	sp := allocSpace()
	small := bytesPerCall(func() { NewSystematic(sp, 100) })
	large := bytesPerCall(func() { NewSystematic(sp, 1_000_000) })
	if small != large || small > 256 {
		t.Errorf("NewSystematic allocates %d bytes at budget 100 and %d at 10⁶, want the same, under 256", small, large)
	}
}

// stubArm is an ensemble member that allocates nothing: it proposes
// one fixed point, or stalls.
type stubArm struct {
	tracker
	pt    space.Point
	stall bool
}

func (a *stubArm) Name() string                { return "stub" }
func (a *stubArm) Ask() (space.Point, bool)    { return a.pt, !a.stall }
func (a *stubArm) Commit(space.Point, float64) {}
func (a *stubArm) Done() bool                  { return false }

// TestEnsembleIssueAllocatesNothing: the ensemble's own Ask and Commit
// reuse the skip mask and the in-flight queue, so beyond its AllocTrace
// history an issue allocates nothing, even while a member stalls.
func TestEnsembleIssueAllocatesNothing(t *testing.T) {
	skipUnderRace(t)
	pt := space.Point{1, 2}
	e := newEnsemble(&stubArm{stall: true}, &stubArm{pt: pt}, &stubArm{pt: pt})
	e.trace = make([]int, 0, 1000)
	round := func() {
		for range 3 {
			e.Ask()
		}
		for range 3 {
			e.Commit(pt, 1)
		}
	}
	round() // the queue's array and the first best
	if n := testing.AllocsPerRun(100, round); n != 0 {
		t.Errorf("three issues and commits allocate %v times, want 0", n)
	}
}
