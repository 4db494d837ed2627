package core

import (
	"testing"
	"unsafe"

	"harmony/internal/space"
)

// TestCandidateSize pins the off-line driver's candidate at 96 bytes on
// 64-bit platforms, a size class: a campaign on a new scratch allocates
// one per proposal, and a pooled scratch keeps one per proposal of the
// largest campaign it has run. A field added must fill padding, as Kind
// does beside the flags, or pay for the 112-byte class.
func TestCandidateSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("layout pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(Candidate[*evalJob]{}); got != 96 {
		t.Errorf("unsafe.Sizeof(Candidate[*evalJob]{}) = %d, want 96", got)
	}
}

// loopStrategy proposes one point over and over, holding at most depth
// uncommitted: a steady session whose strategy allocates nothing.
type loopStrategy struct {
	pt         space.Point
	out, depth int
}

func (s *loopStrategy) Name() string                       { return "loop" }
func (s *loopStrategy) Commit(space.Point, float64)        { s.out-- }
func (s *loopStrategy) Done() bool                         { return false }
func (s *loopStrategy) Best() (space.Point, float64, bool) { return nil, 0, false }
func (s *loopStrategy) Ask() (space.Point, bool) {
	if s.out == s.depth {
		return nil, false
	}
	s.out++
	return s.pt, true
}

// hitCache answers every point, so no candidate is Work and none is
// decoded for a driver.
type hitCache struct{}

func (hitCache) Lookup(space.Point) (float64, bool) { return 1, true }
func (hitCache) Store(space.Point, float64)         {}

// constModel predicts the same score for every point.
type constModel float64

func (m constModel) Predict(space.Point, space.Config) (float64, bool) { return float64(m), true }

// TestWindowDecodesWorkWithoutCopying pins a Work candidate's
// configuration to the asked point itself: once warm, a cycle that
// issues a full window of Work candidates, completes them as a driver
// would, commits and releases them allocates nothing, so the window
// does not copy a point to decode it. (Space.Decode copies: a copy per
// candidate would read depth allocations a cycle.)
func TestWindowDecodesWorkWithoutCopying(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; allocation count is meaningless under -race")
	}
	const depth = 4
	w := &Window[int]{
		Space:        bowlSpace(t),
		Strategy:     &loopStrategy{pt: space.Point{3, 4}, depth: depth},
		MaxProposals: Unbounded,
		Depth:        depth,
	}
	cycle := func() {
		work := w.Refill()
		if len(work) != depth {
			t.Fatalf("a refill issued %d Work candidates, want %d", len(work), depth)
		}
		for _, c := range work {
			if c.Cfg.Int("x") != 3 || c.Cfg.Int("y") != 4 {
				t.Fatalf("a Work candidate of (3, 4) decodes as %s", c.Cfg.Format())
			}
			c.Complete(1)
		}
		for c := w.CommitHead(); c != nil; c = w.CommitHead() {
			w.Release(c)
		}
	}
	cycle() // grow the ring and the free list to the window's depth
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Errorf("a steady cycle of %d Work candidates allocates %v, want 0", depth, n)
	}
}

// TestWindowSteadyCycleAllocatesNothing pins the window's bookkeeping
// as allocation-free: once warm, a cycle of Refill, Len, At, CommitHead
// (Head, pop) and Release on a full window of cache-answered candidates
// allocates nothing, so the ring's push and pop and its cursors cost no
// allocation per candidate. Behind a surrogate gate the scores, the
// keep verdicts and Keep's sort scratch are the window's Refill
// scratch, and the cycle re-proposes one point, which the session's
// scored table answers undecoded: a warm gated cycle allocates nothing
// either. The gated case pins that for a window whose gate keeps every
// candidate, and calls Committed for each, and for one whose gate
// prunes every candidate.
func TestWindowSteadyCycleAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; allocation count is meaningless under -race")
	}
	const depth = 4
	newWindow := func(gate *surrogateGate, want CandKind) func() {
		w := &Window[int]{
			Space:    bowlSpace(t),
			Strategy: &loopStrategy{pt: space.Point{3, 4}, depth: depth},
			Cache:    hitCache{}, MaxProposals: Unbounded,
			Depth: depth,
			gate:  gate,
		}
		cycle := func() {
			w.Refill()
			if w.Len() != depth {
				t.Fatalf("the window holds %d candidates after a refill, want %d", w.Len(), depth)
			}
			for i := 0; i < w.Len(); i++ {
				if c := w.At(i); c.Kind != want || !c.Done {
					t.Fatalf("candidate %d is kind %d (done %v), want kind %d done", i, c.Kind, c.Done, want)
				}
			}
			for c := w.CommitHead(); c != nil; c = w.CommitHead() {
				w.Release(c)
			}
		}
		cycle() // grow the ring and the free list to the window's depth
		return cycle
	}
	if n := testing.AllocsPerRun(100, newWindow(nil, CacheHit)); n != 0 {
		t.Errorf("a steady cycle of %d cache-answered candidates allocates %v, want 0", depth, n)
	}

	keeps := newSurrogateGate(&SurrogateOptions{Model: constModel(1)})
	prunes := newSurrogateGate(&SurrogateOptions{Model: constModel(2)})
	prunes.modelBest = 1 // 2 is confidently worse: every candidate is pruned
	if n := testing.AllocsPerRun(100, newWindow(keeps, CacheHit)); n != 0 {
		t.Errorf("a gated cycle of %d kept candidates of one scored point allocates %v, want 0", depth, n)
	}
	if n := testing.AllocsPerRun(100, newWindow(prunes, pruned)); n != 0 {
		t.Errorf("a gated cycle of %d pruned candidates of one scored point allocates %v, want 0", depth, n)
	}
	if keeps.modelBest != 1 {
		t.Errorf("the keeping gate's best committed score is %v, want 1", keeps.modelBest)
	}
}
