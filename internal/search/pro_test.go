package search

import (
	"testing"

	"harmony/internal/space"
)

func TestPROFindsQuadraticMinimum(t *testing.T) {
	sp := space.MustNew(
		space.IntParam("x", 0, 100, 1),
		space.IntParam("y", 0, 100, 1),
	)
	f := func(pt space.Point) float64 {
		dx := float64(pt[0] - 70)
		dy := float64(pt[1] - 20)
		return dx*dx + dy*dy
	}
	p := NewPRO(sp, PROOptions{Seed: 3})
	evals := drive(t, p, sp, f, 600)
	_, val, ok := p.Best()
	if !ok {
		t.Fatal("no best")
	}
	if val > 16 {
		t.Errorf("PRO best %v after %d evals, want near 0", val, evals)
	}
}

func TestPROConvergesAndStops(t *testing.T) {
	sp := space.MustNew(space.IntParam("x", 0, 50, 1))
	p := NewPRO(sp, PROOptions{Seed: 1})
	evals := drive(t, p, sp, func(pt space.Point) float64 {
		return float64(pt[0])
	}, 100000)
	if !p.Converged() {
		t.Fatalf("PRO did not converge after %d evals", evals)
	}
	if _, ok := p.Next(); ok {
		t.Error("Next should stop after convergence")
	}
	if p.Rounds() == 0 {
		t.Error("no rounds completed")
	}
}

func TestPROProposalsInBox(t *testing.T) {
	sp := space.MustNew(
		space.IntParam("a", 0, 7, 1),
		space.EnumParam("b", "p", "q", "r"),
		space.IntParam("c", -5, 5, 1),
	)
	for seed := int64(0); seed < 10; seed++ {
		p := NewPRO(sp, PROOptions{Seed: seed})
		for i := 0; i < 300; i++ {
			pt, ok := p.Next()
			if !ok {
				break
			}
			if !sp.Valid(pt) {
				t.Fatalf("seed %d: invalid proposal %v", seed, pt)
			}
			p.Report(pt, float64(pt[0])-float64(pt[2]))
		}
	}
}

func TestPROBestNeverWorsens(t *testing.T) {
	sp := space.MustNew(space.IntParam("x", 0, 99, 1), space.IntParam("y", 0, 99, 1))
	f := func(pt space.Point) float64 {
		dx := float64(pt[0] - 31)
		dy := float64(pt[1] - 64)
		return dx*dx + dy*dy
	}
	p := NewPRO(sp, PROOptions{Seed: 9})
	prev := -1.0
	for i := 0; i < 400; i++ {
		pt, ok := p.Next()
		if !ok {
			break
		}
		p.Report(pt, f(pt))
		_, v, ok := p.Best()
		if !ok {
			continue
		}
		if prev >= 0 && v > prev {
			t.Fatalf("best worsened: %v -> %v", prev, v)
		}
		prev = v
	}
}

func TestPROPopulationSizeOptions(t *testing.T) {
	sp := space.MustNew(space.IntParam("x", 0, 9, 1))
	p := NewPRO(sp, PROOptions{})
	if got := len(p.verts); got != 4 { // max(2*dims, 4)
		t.Errorf("population = %d, want 4", got)
	}
}

func TestPROStartRespected(t *testing.T) {
	sp := space.MustNew(space.IntParam("x", 0, 1000, 1))
	p := NewPRO(sp, PROOptions{Start: space.Point{123}, Seed: 2})
	first, ok := p.Next()
	if !ok || first[0] != 123 {
		t.Errorf("first proposal %v, want the start point", first)
	}
}

func TestPRONextIdempotent(t *testing.T) {
	sp := space.MustNew(space.IntParam("x", 0, 9, 1))
	p := NewPRO(sp, PROOptions{})
	a, _ := p.Next()
	b, _ := p.Next()
	if !a.Equal(b) {
		t.Errorf("repeated Next differs: %v vs %v", a, b)
	}
}

func TestPROComparableToSimplexOnBowl(t *testing.T) {
	// PRO should land in the same quality regime as the simplex on a
	// smooth bowl with an equal budget.
	sp := space.MustNew(
		space.IntParam("x", 0, 500, 1),
		space.IntParam("y", 0, 500, 1),
	)
	f := func(pt space.Point) float64 {
		dx := float64(pt[0] - 321)
		dy := float64(pt[1] - 77)
		return dx*dx + dy*dy
	}
	run := func(s Strategy, budget int) float64 {
		for i := 0; i < budget; i++ {
			pt, ok := s.Next()
			if !ok {
				break
			}
			s.Report(pt, f(pt))
		}
		_, v, _ := s.Best()
		return v
	}
	// PRO spends a whole population per round — its currency is
	// rounds (wall-clock on parallel clients), not evaluations — so
	// it gets a proportionally larger sequential budget here.
	pro := run(NewPRO(sp, PROOptions{Seed: 4}), 360)
	simplex := run(NewSimplex(sp, SimplexOptions{}), 120)
	start := f(sp.Center())
	if pro > start/10 {
		t.Errorf("PRO best %v barely improved on the start %v (simplex reference: %v)", pro, start, simplex)
	}
}
