// Package harmony is a from-scratch Go implementation of the Active
// Harmony automated performance-tuning system, reproducing Chung &
// Hollingsworth, "A Case Study Using Automatic Performance Tuning for
// Large-Scale Scientific Programs" (HPDC 2006).
//
// The package re-exports the names an application writes:
//
//   - parameter spaces (integer and enumerated tunables),
//   - search strategies: the integer-adapted Nelder–Mead simplex (the
//     Harmony kernel), coordinate descent, random, systematic
//     sampling, exhaustive enumeration and Parallel Rank Order, each
//     built as a Strategy,
//   - the off-line iterative tuner (Tune) that drives an application
//     objective through representative short runs, keeping up to
//     Options.Workers evaluations in flight at once,
//   - the on-line client/server protocol (Server, Client) with which
//     a running application fetches configurations and reports
//     performance,
//   - prior-run history for seeding later sessions, and
//   - the Library Specification Layer for runtime-switchable library
//     implementations.
//
// The application simulators the paper's evaluation needs (the
// mini-PETSc stack, the POP ocean model, the GS2 plasma code, and the
// virtual-time cluster they run on) live under internal/ and are
// exercised by the cmd/repro experiment driver, the examples, and the
// benchmarks in this directory.
//
// Quickstart (off-line tuning of any function of integer/enum
// parameters):
//
//	sp := harmony.MustNewSpace(
//		harmony.IntParam("threads", 1, 64, 1),
//		harmony.EnumParam("algorithm", "heap", "quick"),
//	)
//	strat := harmony.NewSimplex(sp, harmony.SimplexOptions{})
//	res, err := harmony.Tune(ctx, sp, strat, objective, harmony.Options{MaxRuns: 40})
package harmony

import (
	"context"

	"harmony/internal/client"
	"harmony/internal/core"
	"harmony/internal/history"
	"harmony/internal/libspec"
	"harmony/internal/search"
	"harmony/internal/server"
	"harmony/internal/space"
)

// Parameter-space types.
type (
	// Space is an ordered set of tunable parameters.
	Space = space.Space
	// Param is one tunable parameter.
	Param = space.Param
	// Config is a decoded point: concrete parameter values.
	Config = space.Config
)

// MustNewSpace builds a space from parameters, panicking on error.
func MustNewSpace(params ...Param) *Space { return space.MustNew(params...) }

// IntParam declares a bounded integer parameter with a step.
func IntParam(name string, min, max, step int64) Param { return space.IntParam(name, min, max, step) }

// EnumParam declares an enumerated (categorical) parameter.
func EnumParam(name string, values ...string) Param { return space.EnumParam(name, values...) }

// Search strategies.
type (
	// Strategy is a search method; the New* constructors build one
	// for Tune.
	Strategy = search.Strategy
	// SimplexOptions configure NewSimplex.
	SimplexOptions = search.SimplexOptions
	// CoordinateOptions configure NewCoordinate.
	CoordinateOptions = search.CoordinateOptions
	// PROOptions configure NewPRO.
	PROOptions = search.PROOptions
)

// NewSimplex constructs the integer-adapted Nelder–Mead strategy.
func NewSimplex(sp *Space, opt SimplexOptions) Strategy { return search.NewSimplex(sp, opt) }

// NewCoordinate constructs greedy one-parameter-at-a-time descent.
func NewCoordinate(sp *Space, opt CoordinateOptions) Strategy {
	return search.NewCoordinate(sp, opt)
}

// NewRandom constructs a uniform random sampler with the given seed
// and sample budget.
func NewRandom(sp *Space, seed int64, maxSamples int) Strategy {
	return search.NewRandom(sp, seed, maxSamples)
}

// NewSystematic constructs a systematic (evenly spaced) sampler with
// the given point budget.
func NewSystematic(sp *Space, budget int) Strategy { return search.NewSystematic(sp, budget) }

// NewExhaustive constructs an exhaustive enumerator.
func NewExhaustive(sp *Space) Strategy { return search.NewExhaustive(sp) }

// NewPRO constructs the Parallel Rank Order population strategy.
func NewPRO(sp *Space, opt PROOptions) Strategy { return search.NewPRO(sp, opt) }

// Off-line tuning.
type (
	// Objective measures one configuration (lower is better).
	Objective = core.Objective
	// Options configure a tuning session.
	Options = core.Options
	// Result summarises a tuning session.
	Result = core.Result
	// Trial is one strategy proposal and its outcome.
	Trial = core.Trial
)

// Tune drives a strategy against an objective: the off-line iterative
// tuning mode the paper adds to Active Harmony. Evaluations are
// memoised, budgets and cancellation are honoured, and the full trial
// log is returned. Up to Options.Workers objective evaluations are in
// flight at once. Accounting is deterministic and identical for every
// worker count; with Workers > 1 the objective must tolerate
// concurrent calls.
func Tune(ctx context.Context, sp *Space, strat Strategy, obj Objective, opt Options) (*Result, error) {
	return core.Tune(ctx, sp, strat, obj, opt)
}

// Multi-metric objectives (the paper's Section VII fidelity
// trade-off).
type (
	// Metric is one weighted component of a composite objective.
	Metric = core.Metric
	// ParamSensitivity is one row of a Sensitivity report.
	ParamSensitivity = core.ParamSensitivity
)

// Composite combines weighted metrics (execution time, fidelity,
// ...) into one Objective.
func Composite(metrics ...Metric) (Objective, error) { return core.Composite(metrics...) }

// FidelityFloor makes configurations whose fidelity metric exceeds
// limit unacceptable.
func FidelityFloor(limit float64, fidelity Objective) Objective {
	return core.FidelityFloor(limit, fidelity)
}

// Sensitivity estimates per-parameter impact from a completed tuning
// session's trial log.
func Sensitivity(sp *Space, trials []Trial) []ParamSensitivity {
	return core.Sensitivity(sp, trials)
}

// On-line tuning.
type (
	// Server is the Harmony tuning server. Its SessionTimeout,
	// ReportTimeout and MaxReissues fields configure the fault model:
	// leases on idle sessions and straggler deadlines on outstanding
	// reports. A session's deadlines apply on its own messages; a
	// session nobody messages is collected only by ExpireNow, which
	// the embedding program calls on a timer (harmonyd does).
	Server = server.Server
	// Client is an application-side connection to the server.
	Client = client.Client
	// ClientOptions tune the client's fault handling: per-round-trip
	// I/O deadlines and reconnect-with-backoff.
	ClientOptions = client.Options
	// Registration describes a session to create.
	Registration = client.Registration
)

// NewServer constructs a tuning server; start it with ListenAndServe
// or Serve.
func NewServer() *Server { return server.New() }

// Dial connects to a Harmony server at addr with no deadlines and no
// reconnection.
func Dial(addr string) (*Client, error) { return client.Dial(addr) }

// DialOptions connects to a Harmony server at addr with the given
// fault-handling options.
func DialOptions(addr string, opts ClientOptions) (*Client, error) {
	return client.DialOptions(addr, opts)
}

// Prior-run history.
type (
	// HistoryStore persists tuning outcomes across sessions.
	HistoryStore = history.Store
	// HistoryRecord is one stored tuning outcome.
	HistoryRecord = history.Record
)

// OpenHistory opens (or creates) a history store at path.
func OpenHistory(path string) (*HistoryStore, error) { return history.Open(path) }

// SortLibrary is a tunable sorting service, the paper's example of
// algorithm selection (heap sort vs. quick sort): the Library
// Specification Layer.
type SortLibrary = libspec.Library[libspec.SortFunc]

// NewSortLibrary returns the tunable sorting service.
func NewSortLibrary() *SortLibrary { return libspec.NewSortLibrary() }
