package search

import (
	"math"
	"testing"

	"harmony/internal/space"
)

func batchTestSpace(t *testing.T) *space.Space {
	t.Helper()
	return space.MustNew(
		space.IntParam("x", 0, 40, 1),
		space.IntParam("y", 0, 40, 1),
	)
}

func quadratic(pt space.Point) float64 {
	dx := float64(pt[0] - 31)
	dy := float64(pt[1] - 7)
	return dx*dx + dy*dy
}

// lumpy is quadratic with a forfeited (+Inf) run wherever x+y is a
// multiple of seven, so a drive also commits values no incumbent takes.
func lumpy(pt space.Point) float64 {
	if (pt[0]+pt[1])%7 == 0 {
		return math.Inf(1)
	}
	return quadratic(pt)
}

// askRound asks as until it stalls or finishes and returns the round.
func askRound(as AsyncStrategy) []space.Point {
	var round []space.Point
	for pt, ok := as.Ask(); ok; pt, ok = as.Ask() {
		round = append(round, pt)
	}
	return round
}

// TestAskCommitMatchesNextReport: every strategy New builds is one
// issue/commit machine, and its round view is the round-barrier
// engine's. Driving that view in rounds — Ask until it stalls, then
// commit the round in issue order — visits the same points with the
// same values, finishes (Done) at the same point, and keeps the same
// Best as Next/Report alternation over the same machine. Done turns
// true only on the Ask that finds the strategy finished, never on the
// commit that finished it, or a search the proposal cap cuts after its
// last commit would read as converged. Only the
// Ensemble, which runs ahead of its commits, is given rounds of one.
func TestAskCommitMatchesNextReport(t *testing.T) {
	sp := batchTestSpace(t)
	const limit = 400
	for _, name := range []string{"simplex", "coordinate", "pro", "random", "systematic", "exhaustive", "ensemble"} {
		t.Run(name, func(t *testing.T) {
			for seed := int64(1); seed <= 5; seed++ {
				seq, _ := New(name, sp, seed, 50, nil)
				var want []space.Point
				for len(want) < limit {
					pt, ok := seq.Next()
					if !ok {
						break
					}
					want = append(want, pt)
					seq.Report(pt, lumpy(pt))
				}

				strat, _ := New(name, sp, seed, 50, nil)
				as := Rounds(strat)
				if native := as == strat.(AsyncStrategy); native == (name == "ensemble") {
					t.Fatalf("seed %d: Rounds(%s) is the strategy itself: %v", seed, name, native)
				}
				var got []space.Point
				for len(got) < len(want) {
					round := askRound(as)
					if len(round) == 0 {
						break
					}
					for _, pt := range round {
						as.Commit(pt, lumpy(pt))
					}
					got = append(got, round...)
					if as.Done() {
						t.Fatalf("seed %d: Done after a commit, before an Ask found the strategy finished", seed)
					}
				}
				if len(want) < limit {
					// The sequential drive finished: so must the rounds.
					if len(got) != len(want) || len(askRound(as)) != 0 || !as.Done() || !seq.(AsyncStrategy).Done() {
						t.Fatalf("seed %d: rounds issued %d points and Done=%v, sequential %d and finished",
							seed, len(got), as.Done(), len(want))
					}
				} else if as.Done() || seq.(AsyncStrategy).Done() {
					t.Fatalf("seed %d: Done within the %d-proposal cap, which the drive hit", seed, limit)
				}
				if len(got) < len(want) {
					t.Fatalf("seed %d: rounds stalled with nothing in flight after %d of %d points", seed, len(got), len(want))
				}
				for i := range want {
					if !got[i].Equal(want[i]) {
						t.Fatalf("seed %d: proposal %d is %v in rounds, %v in sequence", seed, i, got[i], want[i])
					}
				}
				bp, bv, bok := as.Best()
				qp, qv, qok := seq.Best()
				if len(got) == len(want) && (bok != qok || bv != qv || !bp.Equal(qp)) {
					t.Fatalf("seed %d: best (%v, %v, %v) in rounds, (%v, %v, %v) in sequence", seed, bp, bv, bok, qp, qv, qok)
				}
			}
		})
	}
}

// TestPROBatchPrefixResumes: a PRO phase is issued in order whatever
// has committed: after a prefix of the initial population is asked
// and committed, the next Asks hand out the rest of it, and the phase
// stalls only once every member is out.
func TestPROBatchPrefixResumes(t *testing.T) {
	sp := batchTestSpace(t)
	whole := askRound(NewPRO(sp, PROOptions{Seed: 2}))
	if len(whole) < 2 {
		t.Fatalf("initial PRO phase has %d points, want the whole population", len(whole))
	}
	p := NewPRO(sp, PROOptions{Seed: 2})
	k := len(whole) / 2
	for i := range k {
		pt, _ := p.Ask()
		p.Commit(pt, quadratic(pt))
		if !pt.Equal(whole[i]) {
			t.Fatalf("proposal %d is %v, want %v", i, pt, whole[i])
		}
	}
	rest := askRound(p)
	if len(rest) != len(whole)-k || p.Done() {
		t.Fatalf("resumed phase has %d points (Done=%v), want %d", len(rest), p.Done(), len(whole)-k)
	}
	for i, pt := range rest {
		if !pt.Equal(whole[k+i]) {
			t.Fatalf("resumed proposal %d is %v, want %v", i, pt, whole[k+i])
		}
	}
}

// TestRandomBatchHonoursBudget verifies the rounds never exceed a
// sample budget smaller than the stride.
func TestRandomBatchHonoursBudget(t *testing.T) {
	sp := batchTestSpace(t)
	r := NewRandom(sp, 3, 10)
	total := 0
	for round := askRound(r); len(round) > 0; round = askRound(r) {
		total += len(round)
		for _, pt := range round {
			r.Commit(pt, quadratic(pt))
		}
	}
	if total != 10 || !r.Done() {
		t.Fatalf("random rounds produced %d points (Done=%v), want exactly the 10-sample budget", total, r.Done())
	}
}

// TestSimplexSpeculate verifies speculation is only offered at a
// reflection step, yields the expansion/contraction candidates, and
// does not disturb the state machine.
func TestSimplexSpeculate(t *testing.T) {
	sp := batchTestSpace(t)
	s := NewSimplex(sp, SimplexOptions{})
	if pts := s.Speculate(3); pts != nil {
		t.Fatalf("speculation before any proposal = %v, want none", pts)
	}
	// Evaluate the initial simplex; the next proposal is a reflection.
	for {
		pt, ok := s.Next()
		if !ok {
			t.Fatal("simplex converged during initialisation")
		}
		if s.state == stReflect {
			spec := s.Speculate(3)
			if len(spec) != 3 {
				t.Fatalf("reflection-step speculation has %d points, want 3", len(spec))
			}
			again := s.Speculate(3)
			for i := range spec {
				if !spec[i].Equal(again[i]) {
					t.Fatal("Speculate is not idempotent")
				}
			}
			if one := s.Speculate(1); len(one) != 1 || !one[0].Equal(spec[0]) {
				t.Fatalf("Speculate(1) = %v, want the expansion candidate %v", one, spec[0])
			}
			// The pending reflection proposal must be untouched.
			pt2, ok := s.Next()
			if !ok || !pt2.Equal(pt) {
				t.Fatalf("pending proposal changed after Speculate: %v -> %v", pt, pt2)
			}
			return
		}
		s.Report(pt, quadratic(pt))
	}
}
