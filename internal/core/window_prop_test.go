package core

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

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
	sp := bowlSpace(t)
	strat := mk(sp, seed)
	w := &Window[int]{
		Space: sp, MaxRuns: 30, MaxProposals: DefaultMaxProposals(30),
		Depth: depth, GroupMax: 1, Memo: !online, ForfeitUndecodable: online,
	}
	tape := &tapeStrategy{AsyncStrategy: search.AsAsync(strat)}
	if depth == Unbounded {
		w.GroupMax = Unbounded
		tape.AsyncStrategy = search.AsAsync(search.AsBatch(strat))
	}
	if seed%2 == 1 {
		w.Gate = NewSurrogateGate(&SurrogateOptions{Model: propModel{}, Keep: 0.5})
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
// and checks what must hold under any cadence.
func TestWindowLazyCadenceInvariants(t *testing.T) {
	const schedules = 20 // × 4 strategies × 3 depths = 240 schedules
	for _, st := range propStrategies {
		for _, depth := range propDepths {
			for sched := int64(0); sched < schedules; sched++ {
				rng := rand.New(rand.NewSource(sched))
				w, tape := propWindow(t, st.make, sched, depth, true)
				name := fmt.Sprintf("%s depth=%d schedule %d", st.name, depth, sched)
				charged := 0
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
					return true
				}
				var todo []*Candidate[int]
				for step := 0; ; step++ {
					if step > 100000 {
						t.Fatalf("%s: no end", name)
					}
					todo = pending(w, todo)
					if len(todo) == 0 || rng.Intn(3) == 0 {
						// A fetch: refill, commit whatever heads are ready,
						// one refill after each.
						before := len(tape.asked)
						w.Refill()
						for commit() {
							w.Refill()
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
			}
		}
	}
}
