package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync/atomic"
	"testing"

	"harmony/internal/history"
	"harmony/internal/search"
	"harmony/internal/space"
)

// referenceTune is the plain sequential tuning loop — propose, run,
// report — that Tune's body was before the issue/commit window became
// the only engine. It is kept, test-only and verbatim, as the
// reference implementation the engine is compared against trial by
// trial: every mode of the window (any Workers, Async on or off) must
// reproduce this loop's Result for a strategy that does not run ahead
// of its commits: Next/Report is then the same machine as the Ask/Commit
// the window drives.
func referenceTune(ctx context.Context, sp *space.Space, strat search.Strategy, obj Objective, opt Options) (*Result, error) {
	if opt.MaxProposals == 0 {
		opt.MaxProposals = DefaultMaxProposals(opt.MaxRuns)
	}
	res := &Result{Strategy: strat.Name(), BestValue: math.Inf(1), FirstValue: math.NaN()}
	cache := make(map[string]float64)
	cacheErr := make(map[string]error)

	for res.Proposals < opt.MaxProposals {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		pt, ok := strat.Next()
		if !ok {
			res.Converged = true
			break
		}
		res.Proposals++
		key := pt.Key()
		cfg, err := sp.Decode(pt)
		if err != nil {
			return res, fmt.Errorf("core: strategy %s proposed undecodable point %v: %w", strat.Name(), pt, err)
		}

		trial := Trial{Proposal: res.Proposals, Point: pt.Clone()}
		value, cached := cache[key]
		if cached {
			trial.Cached = true
			trial.Value = value
			trial.Err = cacheErr[key]
		} else {
			if opt.MaxRuns > 0 && res.Runs >= opt.MaxRuns {
				break
			}
			res.Runs++
			trial.Run = res.Runs
			var v float64
			var err error
			hit := false
			if opt.Cache != nil {
				if cv, ok := opt.Cache.Lookup(pt); ok {
					v, hit = cv, true
					res.CacheHits++
				} else {
					res.CacheMisses++
				}
			}
			if !hit {
				v, err = obj(ctx, cfg)
			}
			if err != nil {
				if ctx.Err() != nil {
					return res, ctx.Err()
				}
				res.Failures++
				v = math.Inf(1)
				trial.Err = err
				// A failed run still paid its launch and teardown.
				res.TuningCost += opt.RunOverhead
			} else {
				res.TuningCost += v + opt.RunOverhead
				if opt.Cache != nil && !hit {
					opt.Cache.Store(pt, v)
				}
			}
			value = v
			trial.Value = v
			cache[key] = v
			cacheErr[key] = trial.Err
			if math.IsNaN(res.FirstValue) {
				res.FirstValue = v
			}
			if v < res.BestValue {
				res.Best = pt.Clone()
				res.BestConfig = cfg
				res.BestValue = v
				res.BestAtRun = res.Runs
			}
			if opt.Logf != nil {
				opt.Logf("run %3d (proposal %3d): %s -> %.6g", res.Runs, res.Proposals, cfg.Format(), v)
			}
		}
		res.Trials = append(res.Trials, trial)
		strat.Report(pt, value)
	}
	if res.Runs == 0 {
		return res, errNoEvaluations
	}
	return res, nil
}

// TestTuneMatchesReferenceLoop is the cross-engine proof: every mode
// of the window reproduces the reference sequential loop's Result bit
// for bit — for every strategy, at every worker count, with rounds cut
// by each budget, under failures, early stops and a warm cache.
func TestTuneMatchesReferenceLoop(t *testing.T) {
	// A space small enough to enumerate: duplicates are common and
	// the exhaustive strategy is cheap to construct.
	sp := bowlSpace(t)
	boom := errors.New("configuration crashed")
	failing := func(ctx context.Context, cfg space.Config) (float64, error) {
		if cfg.Int("x")%3 == 1 {
			return 0, boom
		}
		return bowl(ctx, cfg)
	}
	// stalling strategies' Ask stops where their round ends, so they
	// match the reference under Async too; the ensemble proposes ahead
	// of its commits and is only comparable with Async off.
	strategies := []struct {
		name   string
		stalls bool
		mk     func(seed int64) search.Strategy
	}{
		{"simplex", true, func(seed int64) search.Strategy {
			return search.NewSimplex(sp, search.SimplexOptions{Restarts: 3, Start: space.Point{seed * 7 % 51, 40}})
		}},
		{"simplex-adaptive", true, func(seed int64) search.Strategy {
			return search.NewSimplex(sp, search.SimplexOptions{Restarts: 3, Adaptive: true, Start: space.Point{5, seed * 11 % 51}})
		}},
		{"pro", true, func(seed int64) search.Strategy { return search.NewPRO(sp, search.PROOptions{Seed: seed}) }},
		{"random", true, func(seed int64) search.Strategy { return search.NewRandom(sp, seed, 150) }},
		{"systematic", true, func(seed int64) search.Strategy { return search.NewSystematic(sp, 40+10*int(seed)) }},
		{"exhaustive", true, func(int64) search.Strategy { return search.NewExhaustive(sp) }},
		{"coordinate", true, func(seed int64) search.Strategy {
			return search.NewCoordinate(sp, search.CoordinateOptions{Start: space.Point{seed * 5 % 51, 45}})
		}},
		{"ensemble", false, func(seed int64) search.Strategy {
			return search.NewEnsemble(sp, search.EnsembleOptions{Seed: seed, Budget: 150})
		}},
	}
	scenarios := []struct {
		name string
		obj  Objective
		opt  Options
		warm bool
	}{
		{name: "plain", obj: bowl, opt: Options{MaxRuns: 60, RunOverhead: 1}},
		{name: "failing", obj: failing, opt: Options{MaxRuns: 60, RunOverhead: 2.5}},
		{name: "max-runs-mid-round", obj: bowl, opt: Options{MaxRuns: 21}},
		{name: "max-proposals-mid-round", obj: bowl, opt: Options{MaxRuns: 100, MaxProposals: 37}},
		{name: "warm-cache", obj: bowl, opt: Options{MaxRuns: 60, RunOverhead: 1}, warm: true},
	}
	for _, st := range strategies {
		for _, sc := range scenarios {
			t.Run(st.name+"/"+sc.name, func(t *testing.T) {
				for seed := int64(1); seed <= 5; seed++ {
					opt := sc.opt
					if sc.warm {
						// Both sides read the same pre-filled cache.
						opt.Cache = history.NewEvalCache().BoundNS("bowl", "m", "", sp)
						if _, err := referenceTune(context.Background(), sp, st.mk(seed), sc.obj, opt); err != nil {
							t.Fatal(err)
						}
					}
					want, werr := referenceTune(context.Background(), sp, st.mk(seed), sc.obj, opt)
					for _, workers := range []int{0, 1, 4} {
						for _, async := range []bool{false, true} {
							if async && !st.stalls {
								continue
							}
							opt.Workers, opt.Async = workers, async
							got, gerr := Tune(context.Background(), sp, st.mk(seed), sc.obj, opt)
							if (gerr != nil) != (werr != nil) {
								t.Fatalf("seed %d workers %d async %t: err = %v, reference err = %v", seed, workers, async, gerr, werr)
							}
							sameCampaign(t, fmt.Sprintf("seed %d workers %d async %t", seed, workers, async), got, want)
							if t.Failed() {
								t.FailNow()
							}
						}
					}
				}
			})
		}
	}
}

// TestTuneCancelledResultIsConsistent pins the accounting of a
// cancelled session: whatever the engine returns alongside
// context.Canceled must agree with its own trial log. The sequential
// loop this engine replaced counted a run before calling the objective
// and returned on cancellation without logging or charging it. The trial
// log is rendered at exit, so it must also be a field-for-field prefix of
// the same session's uncancelled log, allocated at its final length.
func TestTuneCancelledResultIsConsistent(t *testing.T) {
	sp := parallelSpace(t)
	for _, workers := range []int{0, 1, 4} {
		for _, async := range []bool{false, true} {
			t.Run(fmt.Sprintf("workers=%d/async=%t", workers, async), func(t *testing.T) {
				opt := Options{MaxRuns: 200, RunOverhead: 2, Workers: workers, Async: async}
				full, err := Tune(context.Background(), sp, search.NewRandom(sp, 5, 300), parBowl, opt)
				if err != nil {
					t.Fatal(err)
				}
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				var calls atomic.Int64
				obj := func(c context.Context, cfg space.Config) (float64, error) {
					if calls.Add(1) == 3 {
						cancel()
						return 0, c.Err()
					}
					return parBowl(c, cfg)
				}
				res, err := Tune(ctx, sp, search.NewRandom(sp, 5, 300), obj, opt)
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("err = %v, want context.Canceled", err)
				}
				runs, cost := 0, 0.0
				for _, tr := range res.Trials {
					if tr.Run > 0 {
						runs++
						cost += 2
						if tr.Err == nil {
							cost += tr.Value
						}
					}
				}
				if res.Runs != runs {
					t.Errorf("Runs = %d, trial log charges %d", res.Runs, runs)
				}
				if math.Abs(res.TuningCost-cost) > 1e-9 {
					t.Errorf("TuningCost = %v, trial log sums to %v", res.TuningCost, cost)
				}
				if res.BestAtRun > res.Runs {
					t.Errorf("BestAtRun = %d beyond Runs = %d", res.BestAtRun, res.Runs)
				}
				if res.Proposals != len(res.Trials) {
					t.Errorf("Proposals = %d, %d trials logged", res.Proposals, len(res.Trials))
				}
				for _, r := range []*Result{res, full} {
					if cap(r.Trials) != len(r.Trials) {
						t.Errorf("trial log has cap %d for %d trials", cap(r.Trials), len(r.Trials))
					}
				}
				if len(res.Trials) >= len(full.Trials) {
					t.Fatalf("cancelled session logged %d trials, the full one %d", len(res.Trials), len(full.Trials))
				}
				for i, tr := range res.Trials {
					if !reflect.DeepEqual(tr, full.Trials[i]) {
						t.Fatalf("trial %d of the cancelled session is %+v, the full session's is %+v", i, tr, full.Trials[i])
					}
				}
			})
		}
	}
}
