package search

import (
	"testing"

	"harmony/internal/space"
)

// TestAsAsyncRoundBuffering verifies the round view's contract: Ask
// hands out the current round one point at a time and stalls once the
// round is fully issued; the round stays closed until its last value
// commits, and the next Ask opens a new one. A sampler's round is
// DefaultBatchStride points, the simplex's one; a strategy that has
// only Next/Report is given rounds of one by the adapter.
func TestAsAsyncRoundBuffering(t *testing.T) {
	sp := space.MustNew(space.IntParam("x", 0, 99, 1), space.IntParam("y", 0, 99, 1))
	cases := []struct {
		name  string
		strat Strategy
		round int
	}{
		{"systematic", NewSystematic(sp, 50), DefaultBatchStride},
		{"simplex", NewSimplex(sp, SimplexOptions{}), 1},
		{"sequential", struct{ Strategy }{NewSimplex(sp, SimplexOptions{})}, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			as := AsAsync(c.strat)
			pts := askRound(as)
			if len(pts) != c.round {
				t.Fatalf("first round issued %d points, want %d", len(pts), c.round)
			}
			if as.Done() {
				t.Fatal("done while a round is in flight")
			}
			for i, pt := range pts {
				if _, ok := as.Ask(); ok {
					t.Fatalf("a new round opened after only %d of %d commits", i, len(pts))
				}
				as.Commit(pt, float64(100+i))
			}
			if _, v, _ := as.Best(); v != 100 {
				t.Fatalf("best %v after the round, want its first value 100", v)
			}
			// The next Ask opens a new round.
			if _, ok := as.Ask(); !ok {
				t.Fatal("cannot open the next round after a full commit")
			}
		})
	}
}

// TestAsAsyncNativePassthrough verifies a strategy of this package is
// its own issue/commit and round view, except that the Ensemble's
// round view is rounds of one.
func TestAsAsyncNativePassthrough(t *testing.T) {
	sp := space.MustNew(space.IntParam("x", 0, 9, 1))
	e := NewEnsemble(sp, EnsembleOptions{Seed: 1, Budget: 10})
	if AsAsync(e) != AsyncStrategy(e) {
		t.Fatal("AsAsync wrapped a native AsyncStrategy")
	}
	if Rounds(e) == AsyncStrategy(e) {
		t.Fatal("Rounds let the Ensemble run ahead of its commits")
	}
	if p := NewPRO(sp, PROOptions{}); Rounds(p) != AsyncStrategy(p) {
		t.Fatal("Rounds wrapped PRO, whose Ask stalls where its round ends")
	}
}

// TestSimplexSpeculateInitAndShrink verifies the extended speculation
// windows: during init and shrink the remaining vertices of the phase
// are fully determined and must be offered, and Speculate must not
// change state.
func TestSimplexSpeculateInitAndShrink(t *testing.T) {
	sp := space.MustNew(
		space.IntParam("x", 0, 30, 1),
		space.IntParam("y", 0, 30, 1),
		space.IntParam("z", 0, 30, 1),
	)
	sx := NewSimplex(sp, SimplexOptions{})
	pt, ok := sx.Next()
	if !ok {
		t.Fatal("no first proposal")
	}
	spec := sx.Speculate(8)
	if len(spec) != sp.Dims() {
		t.Fatalf("init speculation offered %d points, want the %d remaining vertices", len(spec), sp.Dims())
	}
	again, _ := sx.Next()
	if !pt.Equal(again) {
		t.Fatal("Speculate changed the pending proposal")
	}
	// The speculated points must be exactly the upcoming proposals.
	for i := 0; ; i++ {
		sx.Report(pt, float64(10-i))
		next, ok := sx.Next()
		if !ok || i+1 > sp.Dims() {
			break
		}
		if i < len(spec) && !next.Equal(spec[i]) {
			t.Fatalf("init proposal %d is %v, speculation promised %v", i+1, next, spec[i])
		}
		pt = next
	}
}
