package search

import (
	"testing"

	"harmony/internal/space"
)

func TestAdaptiveCoefficients(t *testing.T) {
	sp := space.MustNew(
		space.IntParam("a", 0, 9, 1), space.IntParam("b", 0, 9, 1),
		space.IntParam("c", 0, 9, 1), space.IntParam("d", 0, 9, 1),
	)
	s := NewSimplex(sp, SimplexOptions{Adaptive: true})
	if s.gamma != 1.5 { // 1 + 2/4
		t.Errorf("gamma = %v, want 1.5", s.gamma)
	}
	if s.beta != 0.625 { // 0.75 - 1/8
		t.Errorf("beta = %v, want 0.625", s.beta)
	}
	if s.sigma != 0.75 { // 1 - 1/4
		t.Errorf("sigma = %v, want 0.75", s.sigma)
	}
}

func TestRestartContinuesAfterCollapse(t *testing.T) {
	sp := space.MustNew(space.IntParam("x", 0, 1000, 1))
	f := func(pt space.Point) float64 {
		d := float64(pt[0] - 800)
		return d * d
	}
	// Without restarts from a far corner with a tiny step, the search
	// collapses early.
	noRestart := NewSimplex(sp, SimplexOptions{Start: space.Point{10}, StepFraction: 0.002})
	evalsA := drive(t, noRestart, sp, f, 10000)
	_, bestA, _ := noRestart.Best()

	withRestart := NewSimplex(sp, SimplexOptions{Start: space.Point{10}, StepFraction: 0.002, Restarts: 10})
	evalsB := drive(t, withRestart, sp, f, 10000)
	_, bestB, _ := withRestart.Best()

	if bestB > bestA {
		t.Errorf("restarts made things worse: %v vs %v", bestB, bestA)
	}
	if evalsB <= evalsA {
		t.Errorf("restarts should evaluate more points (%d vs %d)", evalsB, evalsA)
	}
}

func TestRestartCountRespected(t *testing.T) {
	sp := space.MustNew(space.IntParam("x", 0, 3, 1))
	s := NewSimplex(sp, SimplexOptions{Restarts: 2})
	drive(t, s, sp, func(pt space.Point) float64 { return float64(pt[0]) }, 10000)
	if !s.Converged() {
		t.Error("should eventually converge with finite restarts")
	}
	if s.restartsUsed != 2 {
		t.Errorf("used %d restarts, want 2", s.restartsUsed)
	}
}

func TestRestartProposalsStayValid(t *testing.T) {
	sp := space.MustNew(
		space.IntParam("a", 0, 5, 1),
		space.EnumParam("b", "x", "y"),
	)
	s := NewSimplex(sp, SimplexOptions{Restarts: 5})
	for i := 0; i < 500; i++ {
		pt, ok := s.Next()
		if !ok {
			return
		}
		if !sp.Valid(pt) {
			t.Fatalf("invalid proposal %v after restarts", pt)
		}
		s.Report(pt, float64(pt[0]))
	}
}
