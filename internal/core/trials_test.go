package core

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"harmony/internal/search"
	"harmony/internal/space"
)

// TestLogTrials pins how committed candidates become the trial log: runs
// numbered over the charged ones, a Pruned row at its prediction, a
// follower at its leader's outcome; a row takes its candidate's point,
// so rendering the log allocates once, whatever its length.
func TestLogTrials(t *testing.T) {
	boom := errors.New("boom")
	work := &Candidate[*evalJob]{Kind: Work, Pt: space.Point{1}, Measured: 3, Payload: &evalJob{}}
	failed := &Candidate[*evalJob]{Kind: Work, Pt: space.Point{2}, Measured: math.Inf(1), Payload: &evalJob{err: boom}}
	committed := []*Candidate[*evalJob]{
		work,
		{Kind: pruned, Pt: space.Point{3}, Predicted: 0.5},
		failed,
		{Kind: follower, Pt: space.Point{2}, Leader: failed},
		{Kind: CacheHit, Pt: space.Point{4}, Measured: 7},
		{Kind: follower, Pt: space.Point{1}, Leader: work},
	}
	res := &Result{}
	logTrials(res, committed)
	want := []Trial{
		{Proposal: 1, Run: 1, Point: space.Point{1}, Value: 3},
		{Proposal: 2, Point: space.Point{3}, Value: 0.5, Pruned: true},
		{Proposal: 3, Run: 2, Point: space.Point{2}, Value: math.Inf(1), Err: boom},
		{Proposal: 4, Point: space.Point{2}, Value: math.Inf(1), Cached: true, Err: boom},
		{Proposal: 5, Run: 3, Point: space.Point{4}, Value: 7},
		{Proposal: 6, Point: space.Point{1}, Value: 3, Cached: true},
	}
	if !reflect.DeepEqual(res.Trials, want) {
		t.Errorf("trial log:\n got %+v\nwant %+v", res.Trials, want)
	}
	if cap(res.Trials) != len(want) {
		t.Errorf("trial log has cap %d for %d trials", cap(res.Trials), len(want))
	}
	for i, c := range committed {
		if &res.Trials[i].Point[0] != &c.Pt[0] {
			t.Errorf("trial %d does not keep its candidate's point", i+1)
		}
	}

	if raceEnabled {
		t.Skip("allocation counts are pinned without the race detector")
	}
	if n := testing.AllocsPerRun(100, func() { logTrials(res, committed) }); n != 1 {
		t.Errorf("rendering %d trials allocates %v times, want 1", len(committed), n)
	}
}

// recorder keeps a clone of every point a strategy hands out, in order.
type recorder struct{ pts []space.Point }

func (r *recorder) note(pt space.Point, ok bool) (space.Point, bool) {
	if ok {
		r.pts = append(r.pts, pt.Clone())
	}
	return pt, ok
}

// askedAsync hands out what the view of a strategy it wraps does and
// records it: the round view for a round, the issue/commit view under
// Options.Async.
type askedAsync struct {
	search.Strategy // named for Tune; every call it makes goes through as
	as              search.AsyncStrategy
	*recorder
}

func (s askedAsync) Ask() (space.Point, bool)         { return s.note(s.as.Ask()) }
func (s askedAsync) Commit(pt space.Point, v float64) { s.as.Commit(pt, v) }
func (s askedAsync) Done() bool                       { return s.as.Done() }

// TestTrialLogIsWhatWasAsked: a trial row keeps the point the strategy
// handed out, so row i must still equal the i-th point asked once the
// campaign is over, for every strategy search.New builds, on the round
// engine and under Async, and behind the surrogate gate: no strategy or
// engine may write to a point after handing it out.
func TestTrialLogIsWhatWasAsked(t *testing.T) {
	sp := parallelSpace(t)
	check := func(t *testing.T, strat search.Strategy, opt Options, rec *recorder) {
		t.Helper()
		res, err := Tune(context.Background(), sp, strat, parBowl, opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Trials) == 0 || len(res.Trials) > len(rec.pts) {
			t.Fatalf("%d trials for %d points asked", len(res.Trials), len(rec.pts))
		}
		for i, tr := range res.Trials {
			if !tr.Point.Equal(rec.pts[i]) {
				t.Errorf("trial %d is %v, the strategy handed out %v", i+1, tr.Point, rec.pts[i])
			}
		}
	}
	for _, name := range []string{"simplex", "coordinate", "pro", "random", "systematic", "ensemble", "exhaustive"} {
		build := func() search.Strategy {
			s, err := search.New(name, sp, 7, 60, nil)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
		t.Run(name+"/rounds", func(t *testing.T) {
			rec, s := &recorder{}, build()
			check(t, askedAsync{s, search.Rounds(s), rec}, Options{MaxRuns: 60}, rec)
		})
		t.Run(name+"/async", func(t *testing.T) {
			rec, s := &recorder{}, build()
			check(t, askedAsync{s, search.AsAsync(s), rec}, Options{MaxRuns: 60, Async: true, AsyncDepth: 4}, rec)
		})
	}
	t.Run("pro/gate", func(t *testing.T) {
		rec := &recorder{}
		p := search.NewPRO(sp, search.PROOptions{Seed: 7})
		check(t, askedAsync{p, p, rec},
			Options{MaxRuns: 60, MaxProposals: 300, Surrogate: &SurrogateOptions{Model: perfectModel}}, rec)
	})
}
