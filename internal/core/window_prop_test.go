package core

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"harmony/internal/history"
	"harmony/internal/search"
	"harmony/internal/space"
)

// The model-based property test of the Window: the machine is driven
// directly — no worker pool, no server — by seeded random schedules of
// completion order, forfeits and duplicate completions, under the two
// cadences its drivers use.

// tapeStrategy records everything the strategy is asked and told.
type tapeStrategy struct {
	search.AsyncStrategy
	tape    strings.Builder
	asked   []space.Point
	commits []space.Point
}

func (s *tapeStrategy) Ask() (space.Point, bool) {
	pt, ok := s.AsyncStrategy.Ask()
	if !ok {
		s.tape.WriteString("A-\n")
		return pt, ok
	}
	fmt.Fprintf(&s.tape, "A%v\n", pt)
	s.asked = append(s.asked, pt.Clone())
	return pt, ok
}

func (s *tapeStrategy) Commit(pt space.Point, v float64) {
	fmt.Fprintf(&s.tape, "C%v=%x\n", pt, math.Float64bits(v))
	s.commits = append(s.commits, pt.Clone())
	s.AsyncStrategy.Commit(pt, v)
}

// propMeasured is the objective; propModel ranks like it but is scaled
// so far that no prediction is the size of any measurement.
func propMeasured(pt space.Point) float64 {
	dx, dy := float64(pt[0]-25), float64(pt[1]-5)
	return 10 + dx*dx + dy*dy
}

type propModel struct{}

func (propModel) Predict(pt space.Point, _ space.Config) (float64, bool) {
	return 1e6 * propMeasured(pt), true
}

// propCache answers every point on one diagonal family of the lattice.
type propCache struct{}

func (propCache) Lookup(pt space.Point) (float64, bool) {
	return propMeasured(pt), (pt[0]+pt[1])%3 == 0
}
func (propCache) Store(space.Point, float64) {}

var propStrategies = []struct {
	name string
	make func(sp *space.Space, seed int64) search.Strategy
}{
	{"ensemble", func(sp *space.Space, seed int64) search.Strategy {
		return search.NewEnsemble(sp, search.EnsembleOptions{Seed: seed, Budget: 40})
	}},
	{"pro", func(sp *space.Space, seed int64) search.Strategy {
		return search.NewPRO(sp, search.PROOptions{Seed: seed})
	}},
	{"simplex", func(sp *space.Space, _ int64) search.Strategy {
		return search.NewSimplex(sp, search.SimplexOptions{})
	}},
	{"random", func(sp *space.Space, seed int64) search.Strategy {
		return search.NewRandom(sp, seed, 60)
	}},
}

var propDepths = []int{1, 4, Unbounded}

// propWindow builds the machine for one (strategy, seed, depth) under
// the off-line (memo, strict) or the on-line (no memo, forfeit) policy.
// Odd seeds screen with the model and answer from the cache.
func propWindow(t *testing.T, mk func(*space.Space, int64) search.Strategy, seed int64, depth int, online bool) (*Window[int], *tapeStrategy) {
	return propSetup(t, new(Window[int]), mk, seed, depth, online)
}

// propSetup gives w — a new window, or one recycled after an earlier
// session — propWindow's settings.
func propSetup(t *testing.T, w *Window[int], mk func(*space.Space, int64) search.Strategy, seed int64, depth int, online bool) (*Window[int], *tapeStrategy) {
	sp := bowlSpace(t)
	strat := mk(sp, seed)
	w.Space, w.MaxRuns, w.MaxProposals = sp, 30, DefaultMaxProposals(30)
	w.Depth, w.GroupMax, w.Memo, w.ForfeitUndecodable = depth, 1, !online, online
	tape := &tapeStrategy{AsyncStrategy: search.AsAsync(strat)}
	if depth == Unbounded {
		w.GroupMax = Unbounded
		tape.AsyncStrategy = search.Rounds(strat)
	}
	if seed%2 == 1 {
		w.gate = newSurrogateGate(&SurrogateOptions{Model: propModel{}})
		w.Cache = propCache{}
	}
	w.Strategy = tape
	return w, tape
}

// forfeitedPoint fixes, per point, which candidates the eager schedules
// give up on: the set is part of the configuration, only the moment of
// the forfeit — and the late completion that follows it — is random.
func forfeitedPoint(pt space.Point) bool { return (3*pt[0]+pt[1])%11 == 0 }

// pending lists the in-flight candidates still waiting for a value.
func pending(w *Window[int], into []*Candidate[int]) []*Candidate[int] {
	into = into[:0]
	for i := 0; i < w.Len(); i++ {
		if c := w.At(i); !c.Done {
			into = append(into, c)
		}
	}
	return into
}

// TestWindowEagerCadenceIsScheduleIndependent is the determinism
// sentence as a property: under core.Tune's cadence — one refill after
// every commit — the strategy-visible Ask/Commit sequence is
// byte-identical for every schedule of completion order, forfeit timing
// and duplicate completions. The first schedule completes strictly in
// issue order, as one worker would.
func TestWindowEagerCadenceIsScheduleIndependent(t *testing.T) {
	const stratSeeds, schedules = 2, 10 // × 4 strategies × 3 depths = 240 schedules
	for _, st := range propStrategies {
		for _, depth := range propDepths {
			for seed := int64(1); seed <= stratSeeds; seed++ {
				var want string
				for sched := 0; sched < schedules; sched++ {
					rng := rand.New(rand.NewSource(seed*1000 + int64(sched)))
					w, tape := propWindow(t, st.make, seed, depth, false)
					var todo []*Candidate[int]
					for w.Refill(); w.Len() > 0; w.Refill() {
						for !w.Head().Done {
							todo = pending(w, todo)
							c := todo[0]
							if sched > 0 {
								c = todo[rng.Intn(len(todo))]
							}
							if forfeitedPoint(c.Pt) {
								c.Complete(math.Inf(1))
							}
							// After a forfeit this is the straggler's late
							// report; either way a second copy may follow.
							// Only the first completion may count.
							c.Complete(propMeasured(c.Pt))
							if rng.Intn(3) == 0 {
								c.Complete(-1)
							}
						}
						if c := w.CommitHead(); c.Complete(-2) {
							t.Fatalf("%s depth=%d: a committed candidate accepted a completion", st.name, depth)
						}
					}
					if got := tape.tape.String(); sched == 0 {
						want = got
					} else if got != want {
						t.Fatalf("%s depth=%d seed=%d schedule %d: Ask/Commit tape differs from the in-order schedule\n got %q\nwant %q",
							st.name, depth, seed, sched, got, want)
					}
				}
				if !strings.Contains(want, "C") {
					t.Fatalf("%s depth=%d seed=%d: nothing was committed", st.name, depth, seed)
				}
			}
		}
	}
}

// TestWindowLazyCadenceInvariants drives the machine the way the server
// does — a refill only when a client fetches, completions, forfeits and
// duplicates whenever, Work heads drained at completion and
// machine-answered heads only at a fetch — with every choice random,
// and checks what must hold under any cadence. Each schedule runs
// twice: once keeping every committed candidate, as Tune does, and once
// releasing them at random, as the server does. Releasing changes no
// choice of the schedule, so both runs must tell the strategy the same
// and commit candidates alike in every field: a reissued candidate
// carries nothing of its last issue.
func TestWindowLazyCadenceInvariants(t *testing.T) {
	const schedules = 20 // × 4 strategies × 3 depths = 240 schedules
	reissued := 0
	for _, st := range propStrategies {
		for _, depth := range propDepths {
			for sched := int64(0); sched < schedules; sched++ {
				name := fmt.Sprintf("%s depth=%d schedule %d", st.name, depth, sched)
				tape, commits, _ := lazySchedule(t, name, st.make, depth, sched, false)
				rtape, rcommits, n := lazySchedule(t, name+" releasing", st.make, depth, sched, true)
				if rtape != tape {
					t.Fatalf("%s: releasing committed candidates changed the Ask/Commit tape\n got %q\nwant %q", name, rtape, tape)
				}
				for i := range commits {
					if rcommits[i] != commits[i] {
						t.Fatalf("%s: commit %d is %s with released candidates, %s without", name, i, rcommits[i], commits[i])
					}
				}
				reissued += n
			}
		}
	}
	if reissued == 0 {
		t.Fatal("no released candidate was ever reissued")
	}
}

// lazySchedule runs one random lazy-cadence schedule, checking the
// invariants as it goes, and returns the strategy's tape, a record of
// every committed candidate, and how many released candidates were
// reissued. With release set, a separate generator picks which
// committed candidates go back to the window.
func lazySchedule(t *testing.T, name string, mk func(*space.Space, int64) search.Strategy, depth int, sched int64, release bool) (string, []string, int) {
	rng := rand.New(rand.NewSource(sched))
	rel := rand.New(rand.NewSource(sched + 1<<20))
	w, tape := propWindow(t, mk, sched, depth, true)
	charged, reissued := 0, 0
	var records []string
	released := map[*Candidate[int]]bool{}
	refill := func() {
		w.Refill()
		for i := 0; i < w.Len(); i++ {
			if c := w.At(i); released[c] {
				delete(released, c)
				reissued++
			}
		}
	}
	commit := func() bool {
		c := w.CommitHead()
		if c == nil {
			return false
		}
		told := tape.commits[len(tape.commits)-1]
		if !told.Equal(c.Pt) {
			t.Fatalf("%s: strategy told %v at the commit of %v", name, told, c.Pt)
		}
		switch c.Kind {
		case Pruned:
			if c.Measured != 0 {
				t.Fatalf("%s: pruned candidate %v carries %v in its measured field", name, c.Pt, c.Measured)
			}
		case Work, CacheHit, Forfeited:
			charged++
			if c.Measured >= 1e6 && !math.IsInf(c.Measured, 1) {
				t.Fatalf("%s: charged candidate %v committed the prediction-sized %v", name, c.Pt, c.Measured)
			}
		case Follower:
			t.Fatalf("%s: a follower without memo", name)
		}
		records = append(records, fmt.Sprintf("%v cfg=%v kind=%d measured=%x predicted=%x kept=%v closes=%v payload=%d",
			c.Pt, c.Cfg.Point(), c.Kind, math.Float64bits(c.Measured), math.Float64bits(c.Predicted), c.Kept, c.ClosesRound, c.Payload))
		if release && rel.Intn(2) == 0 {
			w.Release(c)
			released[c] = true
		}
		return true
	}
	var todo []*Candidate[int]
	for step := 1; ; step++ {
		if step > 100000 {
			t.Fatalf("%s: no end", name)
		}
		todo = pending(w, todo)
		if len(todo) == 0 || rng.Intn(3) == 0 {
			// A fetch: refill, commit whatever heads are ready,
			// one refill after each.
			before := len(tape.asked)
			refill()
			for commit() {
				refill()
			}
			if w.Len() > depth {
				t.Fatalf("%s: %d candidates in a window of %d", name, w.Len(), depth)
			}
			if w.Charged > w.MaxRuns {
				t.Fatalf("%s: %d charged candidates issued, MaxRuns %d", name, w.Charged, w.MaxRuns)
			}
			if w.Len() == 0 && len(tape.asked) == before {
				break // nothing in flight and nothing more to ask
			}
			continue
		}
		c := todo[rng.Intn(len(todo))]
		v := propMeasured(c.Pt)
		if rng.Intn(5) == 0 {
			v = math.Inf(1) // forfeited
		}
		if !c.Complete(v) || c.Complete(-1) {
			t.Fatalf("%s: first completion refused or duplicate accepted for %v", name, c.Pt)
		}
		c.Payload = step // the driver's own state, which must not outlive a release
		// A report drains the Work candidates it completed.
		for h := w.Head(); h != nil && h.Kind == Work && commit(); h = w.Head() {
		}
	}
	// Commits are the asks, in order; what was asked and never
	// committed is the tail the budget cut abandoned.
	if len(tape.commits) > len(tape.asked) {
		t.Fatalf("%s: %d commits for %d asks", name, len(tape.commits), len(tape.asked))
	}
	for i, pt := range tape.commits {
		if !pt.Equal(tape.asked[i]) {
			t.Fatalf("%s: commit %d is %v, issue order says %v", name, i, pt, tape.asked[i])
		}
	}
	if len(tape.commits) < len(tape.asked) && !w.Exhausted {
		t.Fatalf("%s: %d of %d asked candidates never committed and the budget did not cut them",
			name, len(tape.asked)-len(tape.commits), len(tape.asked))
	}
	if charged != w.Charged || charged > w.MaxRuns || charged == 0 {
		t.Fatalf("%s: %d charged commits, %d charged issues, MaxRuns %d", name, charged, w.Charged, w.MaxRuns)
	}
	return tape.tape.String(), records, reissued
}

// TestWindowReleasePanics: only a committed candidate goes back, once,
// and never to a Memo window, whose leaders outlive their commit.
func TestWindowReleasePanics(t *testing.T) {
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		f()
	}
	online, _ := propWindow(t, propStrategies[3].make, 2, 4, true)
	online.Refill()
	head := online.Head()
	mustPanic("releasing an uncommitted candidate", func() { online.Release(head) })
	head.Complete(1)
	if online.CommitHead() != head {
		t.Fatal("the completed head did not commit")
	}
	online.Release(head)
	mustPanic("releasing a candidate twice", func() { online.Release(head) })

	offline, _ := propWindow(t, propStrategies[3].make, 2, 4, false)
	offline.Refill()
	c := offline.Head()
	c.Complete(1)
	if offline.CommitHead() != c {
		t.Fatal("the completed head did not commit")
	}
	mustPanic("releasing to a Memo window", func() { offline.Release(c) })
}

// eagerTrace drives a window at Tune's cadence, completing in issue
// order, and returns every candidate as it was issued and as it
// committed, field by field, then the window's final state and the
// strategy's tape; and the committed candidates it kept. With release
// set, every committed candidate goes back to the window, as the
// server gives them, and none is kept.
func eagerTrace(w *Window[int], tape *tapeStrategy, release bool) (string, []*Candidate[int]) {
	var b strings.Builder
	record := func(event string, c *Candidate[int]) {
		leader := "-"
		if c.Leader != nil {
			leader = fmt.Sprint(c.Leader.Pt)
		}
		fmt.Fprintf(&b, "%s %v cfg=%v kind=%d done=%v committed=%v measured=%x predicted=%x kept=%v closes=%v leader=%s payload=%d\n",
			event, c.Pt, c.Cfg.Point(), c.Kind, c.Done, c.Committed, math.Float64bits(c.Measured), math.Float64bits(c.Predicted),
			c.Kept, c.ClosesRound, leader, c.Payload)
	}
	committed, recorded, step := 0, 0, 0
	var kept []*Candidate[int]
	for w.Refill(); w.Len() > 0; w.Refill() {
		for i := recorded - committed; i < w.Len(); i++ {
			record("I", w.At(i))
		}
		recorded = committed + w.Len()
		for !w.Head().Done {
			c := pending(w, nil)[0]
			if forfeitedPoint(c.Pt) {
				c.Complete(math.Inf(1))
			}
			c.Complete(propMeasured(c.Pt))
			step++
			c.Payload = step // the driver's own state, which must not outlive the session
		}
		c := w.CommitHead()
		committed++
		record("C", c)
		if release {
			w.Release(c)
		} else {
			kept = append(kept, c)
		}
	}
	fmt.Fprintf(&b, "charged=%d fallbacks=%d exhausted=%v stalled=%v finished=%v err=%v\n%s",
		w.Charged, w.Fallbacks, w.Exhausted, w.Stalled, w.Finished, w.Err, tape.tape.String())
	return b.String(), kept
}

// TestWindowRecycledReplaysFresh: a recycled window is a new one. One
// window runs every (strategy, depth, seed, policy) session in turn at
// Tune's cadence, recycled between sessions, so each starts with the
// candidates, memo and ring of a session with other settings — with or
// without the gate, the cache, the memo and releases. Every session's
// trace must equal a new window's, candidate by candidate in every
// field: the same kinds and ClosesRound, no stale Leader, Payload or
// Predicted, the same Charged and Fallbacks. And the recycled window
// frees every candidate it holds exactly once, and makes only the
// candidates its largest session needs.
func TestWindowRecycledReplaysFresh(t *testing.T) {
	recycled, most := new(Window[int]), 0
	for _, st := range propStrategies {
		for _, depth := range propDepths {
			for seed := int64(1); seed <= 2; seed++ {
				for _, online := range []bool{false, true} {
					name := fmt.Sprintf("%s depth=%d seed=%d online=%v", st.name, depth, seed, online)
					w, tape := propWindow(t, st.make, seed, depth, online)
					want, kept := eagerTrace(w, tape, online)
					w.Recycle(kept)
					most = max(most, len(w.free))
					rw, rtape := propSetup(t, recycled, st.make, seed, depth, online)
					got, rkept := eagerTrace(rw, rtape, online)
					if got != want {
						t.Fatalf("%s: the recycled window's trace differs from a new window's\n got %s\nwant %s", name, got, want)
					}
					recycled.Recycle(rkept)
					if distinct := len(candidateSet(recycled.free)); distinct != len(recycled.free) {
						t.Fatalf("%s: %d candidates freed, %d of them distinct", name, len(recycled.free), distinct)
					}
				}
			}
		}
	}
	if len(recycled.free) != most {
		t.Fatalf("the recycled window holds %d candidates; its largest session needs %d", len(recycled.free), most)
	}
}

func candidateSet[P any](cs []*Candidate[P]) map[*Candidate[P]]bool {
	set := make(map[*Candidate[P]]bool, len(cs))
	for _, c := range cs {
		set[c] = true
	}
	return set
}

// TestReplayedTuneMakesNoCandidate: a campaign replayed on the scratch
// that ran it reissues the candidates the first run made and makes
// none, and the scratch keeps nothing of either run.
func TestReplayedTuneMakesNoCandidate(t *testing.T) {
	sp := parallelSpace(t)
	s := tuneScratchPool.New().(*tuneScratch)
	opt := Options{MaxRuns: 60, Workers: 2, Cache: history.NewEvalCache().Bound("bowl", "m", sp)}
	run := func() *Result {
		t.Helper()
		res, err := s.tune(context.Background(), sp, search.NewSimplex(sp, search.SimplexOptions{Restarts: 2}), parBowl, opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range s.win.free {
			if !reflect.ValueOf(*c).IsZero() {
				t.Fatalf("a recycled candidate keeps %+v", *c)
			}
		}
		return res
	}
	cold := run()
	made := candidateSet(s.win.free)
	warm := run()
	sameCampaign(t, "replay", warm, cold)
	if warm.CacheHits != warm.Runs {
		t.Fatalf("the replay hit the cache %d times for %d runs", warm.CacheHits, warm.Runs)
	}
	if len(made) == 0 || !maps.Equal(candidateSet(s.win.free), made) || len(s.win.free) != len(made) {
		t.Fatalf("the replay made or lost candidates: %d after the first run, %d after the second", len(made), len(s.win.free))
	}

	// A campaign cancelled mid-round leaves candidates in flight, and
	// frees them too: a second run cancelled alike makes none either.
	cancelled := func() {
		t.Helper()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var calls atomic.Int64
		obj := func(c context.Context, cfg space.Config) (float64, error) {
			if calls.Add(1) == 25 {
				cancel()
			}
			return parBowl(c, cfg)
		}
		_, err := s.tune(ctx, sp, search.NewPRO(sp, search.PROOptions{Seed: 5}), obj, Options{MaxRuns: 60, Workers: 1})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("the cancelled campaign returned %v", err)
		}
	}
	cancelled()
	made = candidateSet(s.win.free)
	cancelled()
	if !maps.Equal(candidateSet(s.win.free), made) || len(s.win.free) != len(made) {
		t.Fatalf("a cancelled rerun made or lost candidates: %d after the first run, %d after the second", len(made), len(s.win.free))
	}
}
