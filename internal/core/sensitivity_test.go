package core

import (
	"context"
	"math"
	"testing"

	"harmony/internal/search"
	"harmony/internal/space"
)

func TestSensitivityRanksDominantParameter(t *testing.T) {
	sp := space.MustNew(
		space.IntParam("big", 0, 3, 1),   // dominates the objective
		space.IntParam("small", 0, 3, 1), // minor effect
		space.EnumParam("nil", "a", "b"), // no effect
	)
	obj := func(_ context.Context, cfg space.Config) (float64, error) {
		return 100 + 50*float64(cfg.Int("big")) + 2*float64(cfg.Int("small")), nil
	}
	res, err := Tune(context.Background(), sp, search.NewExhaustive(sp), obj, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sens := Sensitivity(sp, res.Trials)
	if sens[0].Name != "big" {
		t.Fatalf("most sensitive = %q, want big (full report %+v)", sens[0].Name, sens)
	}
	if sens[0].BestValue != "0" {
		t.Errorf("best level of big = %q, want 0", sens[0].BestValue)
	}
	var nilSpread float64
	for _, s := range sens {
		if s.Name == "nil" {
			nilSpread = s.Spread
		}
	}
	if nilSpread > 1e-9 {
		t.Errorf("no-effect parameter has spread %v", nilSpread)
	}
	if sens[0].Spread < 0.5 {
		t.Errorf("dominant parameter spread %v, want large", sens[0].Spread)
	}
}

func TestSensitivityIgnoresFailedAndCachedTrials(t *testing.T) {
	sp := space.MustNew(space.IntParam("x", 0, 1, 1))
	trials := []Trial{
		{Point: space.Point{0}, Value: 10},
		{Point: space.Point{1}, Value: 20},
		{Point: space.Point{1}, Value: math.Inf(1), Err: errTest},
		{Point: space.Point{0}, Value: 999, Cached: true},
		{Point: space.Point{1}, Value: -1000, Pruned: true}, // a prediction, not a measurement
	}
	sens := Sensitivity(sp, trials)
	if sens[0].Levels != 2 {
		t.Fatalf("levels = %d, want 2", sens[0].Levels)
	}
	// Means 10 vs 20, overall mean 15 -> spread 10/15.
	if math.Abs(sens[0].Spread-10.0/15) > 1e-9 {
		t.Errorf("spread = %v, want %v", sens[0].Spread, 10.0/15)
	}
	if sens[0].BestValue != "0" {
		t.Errorf("best = %q, want 0", sens[0].BestValue)
	}
}

var errTest = context.DeadlineExceeded

// TestSensitivityTiesGoToLowestLevel: levels whose means tie for the
// lowest are not told apart by map order; the lowest level wins, on
// every call.
func TestSensitivityTiesGoToLowestLevel(t *testing.T) {
	sp := space.MustNew(space.IntParam("x", 0, 5, 1))
	trials := []Trial{
		{Point: space.Point{4}, Value: 3}, {Point: space.Point{1}, Value: 9},
		{Point: space.Point{3}, Value: 3}, {Point: space.Point{5}, Value: 3},
		{Point: space.Point{2}, Value: 3},
	}
	for i := 0; i < 50; i++ {
		if got := Sensitivity(sp, trials)[0].BestValue; got != "2" {
			t.Fatalf("call %d: BestValue = %q, want 2, the lowest of the tied levels 2-5", i, got)
		}
	}
}

func TestSensitivityEmptyAndSingleLevel(t *testing.T) {
	sp := space.MustNew(space.IntParam("x", 0, 5, 1))
	if sens := Sensitivity(sp, nil); sens[0].Spread != 0 || sens[0].Levels != 0 {
		t.Errorf("empty trials: %+v", sens[0])
	}
	trials := []Trial{{Point: space.Point{2}, Value: 5}, {Point: space.Point{2}, Value: 7}}
	if sens := Sensitivity(sp, trials); sens[0].Spread != 0 || sens[0].Levels != 1 {
		t.Errorf("single level: %+v", sens[0])
	}
}

func TestSensitivityOnPOPStyleSpace(t *testing.T) {
	// An enum-heavy space where one parameter matters most: the
	// report should surface it from a coordinate-descent session.
	sp := space.MustNew(
		space.EnumParam("hmix", "anis", "del2"),
		space.EnumParam("state", "jmcd", "linear"),
		space.EnumParam("interp", "nearest", "4point"),
	)
	obj := func(_ context.Context, cfg space.Config) (float64, error) {
		v := 100.0
		if cfg.String("hmix") == "anis" {
			v += 40
		}
		if cfg.String("state") == "jmcd" {
			v += 10
		}
		if cfg.String("interp") == "nearest" {
			v += 2
		}
		return v, nil
	}
	res, err := Tune(context.Background(), sp,
		search.NewCoordinate(sp, search.CoordinateOptions{Start: space.Point{0, 0, 0}}),
		obj, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sens := Sensitivity(sp, res.Trials)
	if sens[0].Name != "hmix" || sens[0].BestValue != "del2" {
		t.Errorf("top sensitivity %+v, want hmix=del2", sens[0])
	}
}
