package search

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"harmony/internal/space"
)

// drive runs a strategy against an objective until it stops or the
// budget is exhausted, returning the number of evaluations.
func drive(t *testing.T, s Strategy, sp *space.Space, f func(space.Point) float64, budget int) int {
	t.Helper()
	evals := 0
	for evals < budget {
		pt, ok := s.Next()
		if !ok {
			break
		}
		if !sp.Valid(pt) {
			t.Fatalf("%s proposed invalid point %v", s.Name(), pt)
		}
		s.Report(pt, f(pt))
		evals++
	}
	return evals
}

func quadSpace(t *testing.T) *space.Space {
	t.Helper()
	return space.MustNew(
		space.IntParam("x", 0, 100, 1),
		space.IntParam("y", 0, 100, 1),
	)
}

// quadratic bowl with minimum at (70, 20).
func quadObjective(pt space.Point) float64 {
	dx := float64(pt[0] - 70)
	dy := float64(pt[1] - 20)
	return dx*dx + dy*dy
}

func TestSimplexFindsQuadraticMinimum(t *testing.T) {
	sp := quadSpace(t)
	s := NewSimplex(sp, SimplexOptions{})
	evals := drive(t, s, sp, quadObjective, 500)
	pt, val, ok := s.Best()
	if !ok {
		t.Fatal("no best point")
	}
	if val > 9 { // within 3 lattice units of the optimum
		t.Errorf("best value %v at %v after %d evals, want <= 9", val, pt, evals)
	}
}

func TestSimplexConvergesAndStops(t *testing.T) {
	sp := quadSpace(t)
	s := NewSimplex(sp, SimplexOptions{})
	evals := drive(t, s, sp, quadObjective, 100000)
	if !s.Converged() {
		t.Fatalf("simplex did not converge after %d evals", evals)
	}
	if _, ok := s.Next(); ok {
		t.Error("Next should return ok=false after convergence")
	}
	if evals > 2000 {
		t.Errorf("convergence took %d evals, suspiciously many", evals)
	}
}

func TestSimplexHandlesOneDimension(t *testing.T) {
	sp := space.MustNew(space.IntParam("x", 0, 1000, 1))
	s := NewSimplex(sp, SimplexOptions{})
	drive(t, s, sp, func(pt space.Point) float64 {
		d := float64(pt[0] - 637)
		return d * d
	}, 300)
	pt, _, _ := s.Best()
	if diff := pt[0] - 637; diff < -5 || diff > 5 {
		t.Errorf("best x = %d, want near 637", pt[0])
	}
}

func TestSimplexOnEnumSpace(t *testing.T) {
	// Enum dimensions are searched through their integer encoding.
	sp := space.MustNew(
		space.EnumParam("a", "p", "q", "r", "s"),
		space.EnumParam("b", "u", "v", "w"),
	)
	target := space.Point{2, 1}
	s := NewSimplex(sp, SimplexOptions{})
	drive(t, s, sp, func(pt space.Point) float64 {
		d0 := float64(pt[0] - target[0])
		d1 := float64(pt[1] - target[1])
		return d0*d0 + d1*d1
	}, 200)
	pt, val, _ := s.Best()
	if val != 0 {
		t.Errorf("best %v value %v, want exact optimum %v", pt, val, target)
	}
}

func TestSimplexStartAndSeeds(t *testing.T) {
	sp := quadSpace(t)
	s := NewSimplex(sp, SimplexOptions{
		Start: space.Point{65, 25},
		Seeds: []space.Point{{72, 18}},
	})
	evals := drive(t, s, sp, quadObjective, 500)
	_, val, _ := s.Best()
	if val > 4 {
		t.Errorf("seeded search best %v after %d evals, want <= 4", val, evals)
	}
}

func TestSimplexSeededConvergesFaster(t *testing.T) {
	sp := quadSpace(t)
	run := func(opt SimplexOptions) (float64, int) {
		s := NewSimplex(sp, opt)
		evals := 0
		for evals < 60 {
			pt, ok := s.Next()
			if !ok {
				break
			}
			s.Report(pt, quadObjective(pt))
			evals++
		}
		_, v, _ := s.Best()
		return v, evals
	}
	cold, _ := run(SimplexOptions{Start: space.Point{5, 95}})
	warm, _ := run(SimplexOptions{Start: space.Point{5, 95}, Seeds: []space.Point{{69, 21}, {71, 19}}})
	if warm > cold {
		t.Errorf("seeded search (best %v) should not be worse than cold (best %v) at equal budget", warm, cold)
	}
}

func TestSimplexProposalsAlwaysInBox(t *testing.T) {
	sp := space.MustNew(
		space.IntParam("x", 0, 7, 1),
		space.IntParam("y", 0, 3, 1),
		space.IntParam("z", 0, 11, 1),
	)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewSimplex(sp, SimplexOptions{Start: sp.Random(rng)})
		for i := 0; i < 100; i++ {
			pt, ok := s.Next()
			if !ok {
				return true
			}
			if !sp.Valid(pt) {
				return false
			}
			s.Report(pt, rng.Float64())
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestSimplexNextIdempotentUntilReport(t *testing.T) {
	sp := quadSpace(t)
	s := NewSimplex(sp, SimplexOptions{})
	a, ok1 := s.Next()
	b, ok2 := s.Next()
	if !ok1 || !ok2 || !a.Equal(b) {
		t.Errorf("repeated Next returned %v, %v", a, b)
	}
}

func TestSimplexReportWithoutPendingPanics(t *testing.T) {
	sp := quadSpace(t)
	s := NewSimplex(sp, SimplexOptions{})
	defer func() {
		if recover() == nil {
			t.Error("expected panic on Report without pending proposal")
		}
	}()
	s.Report(space.Point{0, 0}, 1)
}

func TestSimplexOnRosenbrock(t *testing.T) {
	// A harder curved-valley landscape on a 200x200 lattice.
	sp := space.MustNew(
		space.IntParam("x", -100, 100, 1),
		space.IntParam("y", -100, 100, 1),
	)
	f := func(pt space.Point) float64 {
		// decode lattice level -> value
		x := float64(pt[0]-100) / 50
		y := float64(pt[1]-100) / 50
		return 100*(y-x*x)*(y-x*x) + (1-x)*(1-x)
	}
	s := NewSimplex(sp, SimplexOptions{})
	drive(t, s, sp, f, 2000)
	_, val, _ := s.Best()
	if val > 1.0 {
		t.Errorf("Rosenbrock best %v, want <= 1.0", val)
	}
}

func TestSimplexBestNeverWorsens(t *testing.T) {
	sp := quadSpace(t)
	s := NewSimplex(sp, SimplexOptions{})
	prev := math.Inf(1)
	for i := 0; i < 200; i++ {
		pt, ok := s.Next()
		if !ok {
			break
		}
		s.Report(pt, quadObjective(pt))
		_, v, ok := s.Best()
		if !ok {
			t.Fatal("Best unavailable after Report")
		}
		if v > prev {
			t.Fatalf("best worsened from %v to %v", prev, v)
		}
		prev = v
	}
}

func TestSimplexVerticesCount(t *testing.T) {
	sp := quadSpace(t)
	s := NewSimplex(sp, SimplexOptions{})
	if got := len(s.Vertices()); got != 3 {
		t.Errorf("2-D simplex has %d vertices, want 3", got)
	}
}
