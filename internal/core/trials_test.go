package core

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"harmony/internal/space"
)

// TestLogTrials pins how committed candidates become the trial log: runs
// numbered over the charged ones, a Pruned row at its prediction, a
// Follower at its leader's outcome — and one allocation for the log
// plus one per point it keeps, whatever its length.
func TestLogTrials(t *testing.T) {
	boom := errors.New("boom")
	work := &Candidate[*evalJob]{Kind: Work, Pt: space.Point{1}, Measured: 3, Payload: &evalJob{}}
	failed := &Candidate[*evalJob]{Kind: Work, Pt: space.Point{2}, Measured: math.Inf(1), Payload: &evalJob{err: boom}}
	committed := []*Candidate[*evalJob]{
		work,
		{Kind: Pruned, Pt: space.Point{3}, Predicted: 0.5},
		failed,
		{Kind: Follower, Pt: space.Point{2}, Leader: failed},
		{Kind: CacheHit, Pt: space.Point{4}, Measured: 7},
		{Kind: Follower, Pt: space.Point{1}, Leader: work},
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
	if &res.Trials[0].Point[0] == &work.Pt[0] {
		t.Error("a trial shares its point with the candidate")
	}

	if raceEnabled {
		t.Skip("allocation counts are pinned without the race detector")
	}
	if n := testing.AllocsPerRun(100, func() { logTrials(res, committed) }); n != float64(1+len(committed)) {
		t.Errorf("rendering %d trials allocates %v times, want %d", len(committed), n, 1+len(committed))
	}
}
