package search

import (
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

// driveSequential runs a strategy through the plain ask/tell loop.
func driveSequential(s Strategy, budget int) (space.Point, float64, int) {
	evals := 0
	for evals < budget {
		pt, ok := s.Next()
		if !ok {
			break
		}
		s.Report(pt, quadratic(pt))
		evals++
	}
	pt, v, _ := s.Best()
	return pt, v, evals
}

// driveBatch runs a BatchStrategy through full-round batch calls.
func driveBatch(s BatchStrategy, budget int) (space.Point, float64, int) {
	evals := 0
	for evals < budget {
		batch := s.NextBatch()
		if len(batch) == 0 {
			break
		}
		if rem := budget - evals; len(batch) > rem {
			batch = batch[:rem]
		}
		values := make([]float64, len(batch))
		for i, pt := range batch {
			values[i] = quadratic(pt)
		}
		s.ReportBatch(batch, values)
		evals += len(batch)
	}
	pt, v, _ := s.Best()
	return pt, v, evals
}

// TestPROBatchMatchesSequential verifies that driving PRO through
// NextBatch/ReportBatch replays the identical search trajectory the
// sequential ask/tell interface produces: same proposals, same best,
// same round count.
func TestPROBatchMatchesSequential(t *testing.T) {
	sp := batchTestSpace(t)
	const budget = 300

	seqStrat := NewPRO(sp, PROOptions{Seed: 5})
	batchStrat := NewPRO(sp, PROOptions{Seed: 5})

	// Record the sequential proposal stream.
	var seqPts []space.Point
	for len(seqPts) < budget {
		pt, ok := seqStrat.Next()
		if !ok {
			break
		}
		seqPts = append(seqPts, pt)
		seqStrat.Report(pt, quadratic(pt))
	}

	var batchPts []space.Point
	for len(batchPts) < len(seqPts) {
		batch := batchStrat.NextBatch()
		if len(batch) == 0 {
			break
		}
		values := make([]float64, len(batch))
		for i, pt := range batch {
			values[i] = quadratic(pt)
			batchPts = append(batchPts, pt)
		}
		batchStrat.ReportBatch(batch, values)
	}

	if len(batchPts) < len(seqPts) {
		t.Fatalf("batch drive stopped after %d proposals, sequential made %d", len(batchPts), len(seqPts))
	}
	for i := range seqPts {
		if !seqPts[i].Equal(batchPts[i]) {
			t.Fatalf("proposal %d differs: sequential %v, batch %v", i, seqPts[i], batchPts[i])
		}
	}
	_, sv, _ := seqStrat.Best()
	_, bv, _ := batchStrat.Best()
	if sv != bv {
		t.Fatalf("best value differs: sequential %v, batch %v", sv, bv)
	}
	if seqStrat.Rounds() != batchStrat.Rounds() {
		t.Fatalf("round count differs: sequential %d, batch %d", seqStrat.Rounds(), batchStrat.Rounds())
	}
}

// TestPROBatchPrefixResumes verifies that reporting a strict prefix
// of a round leaves the remainder available from the next NextBatch.
func TestPROBatchPrefixResumes(t *testing.T) {
	sp := batchTestSpace(t)
	p := NewPRO(sp, PROOptions{Seed: 2})
	batch := p.NextBatch()
	if len(batch) < 2 {
		t.Fatalf("initial PRO batch has %d points, want the whole population", len(batch))
	}
	k := len(batch) / 2
	values := make([]float64, k)
	for i := 0; i < k; i++ {
		values[i] = quadratic(batch[i])
	}
	p.ReportBatch(batch[:k], values)

	rest := p.NextBatch()
	if len(rest) != len(batch)-k {
		t.Fatalf("resumed batch has %d points, want %d", len(rest), len(batch)-k)
	}
	for i, pt := range rest {
		if !pt.Equal(batch[k+i]) {
			t.Fatalf("resumed proposal %d is %v, want %v", i, pt, batch[k+i])
		}
	}
}

// TestSamplingBatchParity verifies Systematic and Exhaustive visit
// the same points with the same best under batch and sequential
// driving, and that Random's seeded stream is stride-independent.
func TestSamplingBatchParity(t *testing.T) {
	sp := batchTestSpace(t)
	cases := []struct {
		name       string
		sequential Strategy
		batch      BatchStrategy
	}{
		{"systematic", NewSystematic(sp, 50), NewSystematic(sp, 50)},
		{"exhaustive", NewExhaustive(sp), NewExhaustive(sp)},
		{"random", NewRandom(sp, 9, 50), NewRandom(sp, 9, 50)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, sv, sn := driveSequential(tc.sequential, 50)
			_, bv, bn := driveBatch(tc.batch, 50)
			if sn != bn {
				t.Fatalf("evaluation counts differ: sequential %d, batch %d", sn, bn)
			}
			if sv != bv {
				t.Fatalf("best differs: sequential %v, batch %v", sv, bv)
			}
		})
	}
}

// TestRandomBatchHonoursBudget verifies NextBatch never exceeds a
// sample budget smaller than the stride.
func TestRandomBatchHonoursBudget(t *testing.T) {
	sp := batchTestSpace(t)
	r := NewRandom(sp, 3, 10)
	total := 0
	for {
		batch := r.NextBatch()
		if len(batch) == 0 {
			break
		}
		total += len(batch)
		values := make([]float64, len(batch))
		for i, pt := range batch {
			values[i] = quadratic(pt)
		}
		r.ReportBatch(batch, values)
	}
	if total != 10 {
		t.Fatalf("random batch stream produced %d points, want exactly the 10-sample budget", total)
	}
}

// TestAsBatchAdapter verifies the generic adapter turns a sequential
// strategy into batches of one with unchanged behaviour, and that it
// forwards speculation.
func TestAsBatchAdapter(t *testing.T) {
	sp := batchTestSpace(t)
	bs := AsBatch(NewSimplex(sp, SimplexOptions{}))
	if _, ok := bs.(*seqBatch); !ok {
		t.Fatalf("AsBatch(simplex) = %T, want the sequential adapter", bs)
	}
	if native := AsBatch(NewPRO(sp, PROOptions{})); native == nil {
		t.Fatal("AsBatch(PRO) returned nil")
	} else if _, ok := native.(*PRO); !ok {
		t.Fatalf("AsBatch(PRO) = %T, want the native *PRO", native)
	}
	seen := 0
	for i := 0; i < 100; i++ {
		batch := bs.NextBatch()
		if len(batch) == 0 {
			break
		}
		if len(batch) != 1 {
			t.Fatalf("adapter batch has %d points, want 1", len(batch))
		}
		bs.ReportBatch(batch, []float64{quadratic(batch[0])})
		seen++
	}
	if seen == 0 {
		t.Fatal("adapter produced no batches")
	}
	if _, v, ok := bs.Best(); !ok || v < 0 {
		t.Fatalf("adapter best = %v, ok=%v", v, ok)
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
