package search

import (
	"slices"
	"testing"

	"harmony/internal/space"
)

// reportLog records the values a strategy is told, one entry per
// Report or ReportBatch call.
type reportLog [][]float64

// recordingStrategy wraps a sequential Strategy and logs its Reports.
type recordingStrategy struct {
	Strategy
	log *reportLog
}

func (r recordingStrategy) Report(pt space.Point, value float64) {
	*r.log = append(*r.log, []float64{value})
	r.Strategy.Report(pt, value)
}

// recordingBatch wraps a BatchStrategy and logs its ReportBatches.
type recordingBatch struct {
	BatchStrategy
	log *reportLog
}

func (r recordingBatch) ReportBatch(pts []space.Point, values []float64) {
	*r.log = append(*r.log, slices.Clone(values))
	r.BatchStrategy.ReportBatch(pts, values)
}

// TestAsAsyncRoundBuffering verifies the round view's contract: Ask
// hands out the current round one point at a time, stalls once the
// round is fully issued, and tells the strategy the whole round once,
// when the last value commits — the same strategy interaction the
// round-barrier engine performs. A BatchStrategy's round is its
// NextBatch, told by one ReportBatch; a sequential strategy's is one
// proposal, told by its Report.
func TestAsAsyncRoundBuffering(t *testing.T) {
	sp := space.MustNew(space.IntParam("x", 0, 99, 1), space.IntParam("y", 0, 99, 1))
	cases := []struct {
		name  string
		strat func(*reportLog) Strategy
		round int
	}{
		{"systematic", func(l *reportLog) Strategy { return recordingBatch{NewSystematic(sp, 50), l} }, DefaultBatchStride},
		{"simplex", func(l *reportLog) Strategy { return recordingStrategy{NewSimplex(sp, SimplexOptions{}), l} }, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var log reportLog
			as := AsAsync(c.strat(&log))
			var pts []space.Point
			for pt, ok := as.Ask(); ok; pt, ok = as.Ask() {
				pts = append(pts, pt)
			}
			if len(pts) != c.round {
				t.Fatalf("first round issued %d points, want %d", len(pts), c.round)
			}
			if as.Done() {
				t.Fatal("adapter done while a round is in flight")
			}
			for i, pt := range pts {
				if len(log) != 0 {
					t.Fatalf("the strategy was told after only %d of %d commits", i, len(pts))
				}
				as.Commit(pt, float64(100+i))
			}
			if len(log) != 1 || len(log[0]) != len(pts) {
				t.Fatalf("want the strategy told once, the whole round of %d values; got %v", len(pts), log)
			}
			if log[0][0] != 100 || log[0][len(pts)-1] != float64(100+len(pts)-1) {
				t.Fatalf("values delivered out of issue order: %v", log[0])
			}
			// The next Ask opens a new round.
			if _, ok := as.Ask(); !ok {
				t.Fatal("adapter cannot open the next round after a full commit")
			}
		})
	}
}

// TestAsAsyncNativePassthrough verifies a native AsyncStrategy is
// returned unchanged.
func TestAsAsyncNativePassthrough(t *testing.T) {
	sp := space.MustNew(space.IntParam("x", 0, 9, 1))
	e := NewEnsemble(sp, EnsembleOptions{Seed: 1, Budget: 10})
	if AsAsync(e) != AsyncStrategy(e) {
		t.Fatal("AsAsync wrapped a native AsyncStrategy")
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
