package search

import (
	"reflect"
	"testing"

	"harmony/internal/proto"
	"harmony/internal/space"
)

func TestCoordinateFindsSeparableMinimum(t *testing.T) {
	sp := space.MustNew(
		space.IntParam("a", 0, 9, 1),
		space.IntParam("b", 0, 9, 1),
		space.IntParam("c", 0, 9, 1),
	)
	target := space.Point{7, 2, 5}
	f := func(pt space.Point) float64 {
		var sum float64
		for i := range pt {
			d := float64(pt[i] - target[i])
			sum += d * d
		}
		return sum
	}
	c := NewCoordinate(sp, CoordinateOptions{})
	evals := drive(t, c, sp, f, 1000)
	pt, val, _ := c.Best()
	if val != 0 {
		t.Errorf("best %v value %v after %d evals, want exact %v", pt, val, evals, target)
	}
	if !c.current.Equal(target) {
		t.Errorf("incumbent %v, want %v", c.current, target)
	}
}

func TestCoordinateChangesOneParameterAtATime(t *testing.T) {
	// The Table I property: between consecutive incumbents at most one
	// coordinate differs.
	sp := space.MustNew(
		space.EnumParam("p1", "a", "b"),
		space.EnumParam("p2", "x", "y", "z"),
		space.EnumParam("p3", "u", "v"),
	)
	f := func(pt space.Point) float64 {
		return float64(3 - pt[0] - pt[1] - pt[2]) // best at max levels
	}
	c := NewCoordinate(sp, CoordinateOptions{Start: space.Point{0, 0, 0}})
	prev := c.current.Clone()
	for {
		pt, ok := c.Next()
		if !ok {
			break
		}
		c.Report(pt, f(pt))
		cur := c.current.Clone()
		diffs := 0
		for i := range cur {
			if cur[i] != prev[i] {
				diffs++
			}
		}
		if diffs > 1 {
			t.Fatalf("incumbent jumped from %v to %v (%d coords)", prev, cur, diffs)
		}
		prev = cur
	}
	if !prev.Equal(space.Point{1, 2, 1}) {
		t.Errorf("final incumbent %v, want [1 2 1]", prev)
	}
}

func TestCoordinateStopsWhenNoImprovement(t *testing.T) {
	sp := space.MustNew(space.IntParam("a", 0, 4, 1), space.IntParam("b", 0, 4, 1))
	f := func(pt space.Point) float64 {
		d0 := float64(pt[0] - 2)
		d1 := float64(pt[1] - 3)
		return d0*d0 + d1*d1
	}
	c := NewCoordinate(sp, CoordinateOptions{})
	evals := drive(t, c, sp, f, 10000)
	if evals >= 10000 {
		t.Fatal("coordinate descent never terminated")
	}
	if c.passes < 1 {
		t.Error("expected at least one completed pass")
	}
}

func TestRandomStaysFeasibleAndStops(t *testing.T) {
	sp := space.MustNew(
		space.IntParam("a", 0, 99, 1),
		space.IntParam("b", 0, 99, 1),
	)
	r := NewRandom(sp, 7, 50)
	evals := drive(t, r, sp, func(pt space.Point) float64 { return float64(pt[0]) }, 1000)
	if evals != 50 {
		t.Errorf("evaluated %d points, want 50", evals)
	}
	if _, ok := r.Next(); ok {
		t.Error("Next should stop after MaxSamples")
	}
}

func TestRandomDeterministicForSeed(t *testing.T) {
	sp := space.MustNew(space.IntParam("a", 0, 1000, 1))
	r1 := NewRandom(sp, 42, 10)
	r2 := NewRandom(sp, 42, 10)
	for i := 0; i < 10; i++ {
		a, _ := r1.Next()
		b, _ := r2.Next()
		if !a.Equal(b) {
			t.Fatalf("draw %d differs: %v vs %v", i, a, b)
		}
		r1.Report(a, 0)
		r2.Report(b, 0)
	}
}

func TestSystematicCoversEvenly(t *testing.T) {
	sp := space.MustNew(
		space.IntParam("a", 0, 9, 1),
		space.IntParam("b", 0, 9, 1),
	)
	s := NewSystematic(sp, 25)
	if s.Planned() == 0 || s.Planned() > 25 {
		t.Fatalf("planned %d points", s.Planned())
	}
	evals := drive(t, s, sp, func(pt space.Point) float64 { return float64(pt[0] + pt[1]) }, 1000)
	if evals != s.Planned() {
		t.Errorf("evaluated %d, planned %d", evals, s.Planned())
	}
	if len(s.Values) != evals {
		t.Errorf("recorded %d values, want %d", len(s.Values), evals)
	}
	pt, val, _ := s.Best()
	if val != 0 || !pt.Equal(space.Point{0, 0}) {
		t.Errorf("best %v value %v, want origin", pt, val)
	}
}

func TestExhaustiveFindsGlobalOptimum(t *testing.T) {
	sp := space.MustNew(
		space.IntParam("a", 0, 6, 1),
		space.EnumParam("e", "u", "v", "w"),
	)
	f := func(pt space.Point) float64 {
		if pt[0] == 5 && pt[1] == 2 {
			return -100
		}
		return float64(pt[0])
	}
	e := NewExhaustive(sp)
	if e.Planned() != 21 {
		t.Fatalf("planned %d, want 21", e.Planned())
	}
	drive(t, e, sp, f, 1000)
	pt, val, _ := e.Best()
	if val != -100 || !pt.Equal(space.Point{5, 2}) {
		t.Errorf("best %v value %v, want hidden optimum", pt, val)
	}
}

// TestStrategiesImplementInterface: every strategy New builds is an
// AsyncStrategy and has one state machine. Its exported methods are
// the two contracts' (Next/Report being the shared facade over
// Ask/Commit), the simplex's Speculate and String, and the grid
// samplers' Planned — no second round interface beside Ask/Commit.
func TestStrategiesImplementInterface(t *testing.T) {
	sp := space.MustNew(space.IntParam("a", 0, 9, 1))
	allowed := map[string]bool{"Speculate": true, "Planned": true, "String": true}
	for _, iface := range []reflect.Type{reflect.TypeFor[Strategy](), reflect.TypeFor[AsyncStrategy]()} {
		for m := range iface.NumMethod() {
			allowed[iface.Method(m).Name] = true
		}
	}
	for _, name := range []string{"simplex", "coordinate", "pro", "random", "systematic", "exhaustive", "ensemble"} {
		s, err := New(name, sp, 1, 5, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := s.(AsyncStrategy); !ok {
			t.Errorf("%s is not an AsyncStrategy", name)
		}
		for m := range reflect.TypeOf(s).NumMethod() {
			if method := reflect.TypeOf(s).Method(m).Name; !allowed[method] {
				t.Errorf("%s has method %s beside its contracts", name, method)
			}
		}
		if _, _, ok := s.Best(); ok {
			t.Errorf("%s reports Best before any Report", s.Name())
		}
	}
}

func TestSimplexBeatsRandomOnBowl(t *testing.T) {
	// At an equal budget of 60 evaluations the simplex should land
	// closer to the optimum than uniform random sampling — the
	// paper's core claim that directed search beats blind sampling.
	sp := space.MustNew(
		space.IntParam("x", 0, 999, 1),
		space.IntParam("y", 0, 999, 1),
	)
	f := func(pt space.Point) float64 {
		dx := float64(pt[0] - 700)
		dy := float64(pt[1] - 123)
		return dx*dx + dy*dy
	}
	budget := 60
	run := func(s Strategy) float64 {
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
	simplex := run(NewSimplex(sp, SimplexOptions{}))
	random := run(NewRandom(sp, 3, budget))
	if simplex >= random {
		t.Errorf("simplex best %v should beat random best %v", simplex, random)
	}
}

// TestNewBuildsEveryWireStrategy pins the one factory both front ends
// call: every strategy name the protocol accepts builds the strategy
// of that name, the default is the simplex — adaptive from eight
// dimensions, like the ensemble's own simplex arm — and the two ways a
// registration can be refused are errors, not panics.
func TestNewBuildsEveryWireStrategy(t *testing.T) {
	sp := space.MustNew(space.IntParam("a", 0, 9, 1), space.IntParam("b", 0, 9, 1))
	for _, name := range []string{
		proto.StrategySimplex, proto.StrategyCoordinate, proto.StrategyRandom, proto.StrategySystematic,
		proto.StrategyExhaustive, proto.StrategyPRO, proto.StrategyEnsemble,
	} {
		strat, err := New(name, sp, 5, 0, nil)
		if err != nil || strat.Name() != name {
			t.Errorf("New(%q) = %v, %v", name, strat, err)
		}
	}
	if strat, err := New("", sp, 0, 0, nil); err != nil || strat.Name() != proto.StrategySimplex {
		t.Errorf(`New("") = %v, %v, want the simplex`, strat, err)
	}
	if _, err := New("annealing", sp, 0, 0, nil); err == nil {
		t.Error("unknown strategy name accepted")
	}
	big := space.MustNew(space.IntParam("a", 0, 9999, 1), space.IntParam("b", 0, 9999, 1))
	if _, err := New(proto.StrategyExhaustive, big, 0, 0, nil); err == nil {
		t.Error("exhaustive search over 10^8 points accepted")
	}

	wide := make([]space.Param, adaptiveDims)
	for d := range wide {
		wide[d] = space.IntParam(string(rune('a'+d)), 0, 9, 1)
	}
	for _, c := range []struct {
		sp    *space.Space
		gamma float64
	}{{sp, 2}, {space.MustNew(wide...), 1 + 2/float64(adaptiveDims)}} {
		strat, _ := New(proto.StrategySimplex, c.sp, 0, 0, nil)
		if got := strat.(*Simplex).gamma; got != c.gamma {
			t.Errorf("%d dimensions: expansion coefficient %v, want %v", c.sp.Dims(), got, c.gamma)
		}
	}
}
