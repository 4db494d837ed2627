// Package harmony is a from-scratch Go implementation of the Active
// Harmony automated performance-tuning system, reproducing Chung &
// Hollingsworth, "A Case Study Using Automatic Performance Tuning for
// Large-Scale Scientific Programs" (HPDC 2006).
//
// The package re-exports the stable public surface of the tuning
// system:
//
//   - parameter spaces (integer and enumerated tunables),
//   - search strategies: the integer-adapted Nelder–Mead simplex (the
//     Harmony kernel), coordinate descent, random, systematic
//     sampling, and exhaustive enumeration,
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
	"harmony/internal/surrogate"
)

// Parameter-space types.
type (
	// Space is an ordered set of tunable parameters.
	Space = space.Space
	// Param is one tunable parameter.
	Param = space.Param
	// Point is a location in a space, in lattice coordinates.
	Point = space.Point
	// Config is a decoded point: concrete parameter values.
	Config = space.Config
)

// NewSpace builds a space from parameters.
func NewSpace(params ...Param) (*Space, error) { return space.New(params...) }

// MustNewSpace is NewSpace, panicking on error.
func MustNewSpace(params ...Param) *Space { return space.MustNew(params...) }

// IntParam declares a bounded integer parameter with a step.
func IntParam(name string, min, max, step int64) Param { return space.IntParam(name, min, max, step) }

// EnumParam declares an enumerated (categorical) parameter.
func EnumParam(name string, values ...string) Param { return space.EnumParam(name, values...) }

// Search strategies.
type (
	// Strategy is the ask/tell interface all search methods share.
	Strategy = search.Strategy
	// BatchStrategy extends Strategy with whole rounds of independent
	// proposals, evaluable concurrently: PRO, Random, Systematic and
	// Exhaustive. Tune runs any other strategy in rounds of one.
	BatchStrategy = search.BatchStrategy
	// Speculator is implemented by sequential strategies that can
	// name likely follow-up proposals for prefetching (the simplex).
	Speculator = search.Speculator
	// Simplex is the integer-adapted Nelder–Mead strategy.
	Simplex = search.Simplex
	// SimplexOptions configure a Simplex.
	SimplexOptions = search.SimplexOptions
	// Coordinate is greedy one-parameter-at-a-time descent.
	Coordinate = search.Coordinate
	// CoordinateOptions configure a Coordinate.
	CoordinateOptions = search.CoordinateOptions
	// Random samples uniformly at random.
	Random = search.Random
	// Systematic samples an even grid over the space.
	Systematic = search.Systematic
	// Exhaustive enumerates every point.
	Exhaustive = search.Exhaustive
	// PRO is the Parallel Rank Order population search.
	PRO = search.PRO
	// PROOptions configure a PRO.
	PROOptions = search.PROOptions
)

// NewSimplex constructs the integer-adapted Nelder–Mead strategy.
func NewSimplex(sp *Space, opt SimplexOptions) *Simplex { return search.NewSimplex(sp, opt) }

// NewCoordinate constructs a coordinate-descent strategy.
func NewCoordinate(sp *Space, opt CoordinateOptions) *Coordinate {
	return search.NewCoordinate(sp, opt)
}

// NewRandom constructs a random strategy with the given seed and
// sample budget.
func NewRandom(sp *Space, seed int64, maxSamples int) *Random {
	return search.NewRandom(sp, seed, maxSamples)
}

// NewSystematic constructs a systematic (evenly spaced) sampler with
// the given point budget.
func NewSystematic(sp *Space, budget int) *Systematic { return search.NewSystematic(sp, budget) }

// NewExhaustive constructs an exhaustive enumerator.
func NewExhaustive(sp *Space) *Exhaustive { return search.NewExhaustive(sp) }

// NewPRO constructs the Parallel Rank Order population strategy.
func NewPRO(sp *Space, opt PROOptions) *PRO { return search.NewPRO(sp, opt) }

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
	// Surrogate predicts a configuration's objective analytically;
	// plug one into SurrogateOptions to prune evaluations.
	Surrogate = core.Surrogate
	// SurrogateOptions configure model-guided evaluation pruning
	// (Options.Surrogate): only the keep fraction of each proposal
	// round the model ranks best is simulated, near-ties within the
	// tolerance are simulated anyway, and reported results are always
	// genuine measurements.
	SurrogateOptions = core.SurrogateOptions
)

// SurrogateFor resolves an application name to the built-in analytic
// predictor of the matching case-study workload (Fig. 2 SLES, Table 3
// GS2, Fig. 4 POP), or nil when no model covers the name. Pass the
// result to SurrogateOptions.Model, or to Server.Surrogate for
// server-side screening.
func SurrogateFor(app string) Surrogate { return surrogate.For(app) }

// Tune drives a strategy against an objective: the off-line iterative
// tuning mode the paper adds to Active Harmony. Evaluations are
// memoised, budgets and cancellation are honoured, and the full trial
// log is returned. Up to Options.Workers objective evaluations are in
// flight at once: whole rounds of a BatchStrategy run concurrently and
// sequential strategies that implement Speculator have their likely
// follow-ups prefetched. Accounting is deterministic and identical for
// every worker count; with Workers > 1 the objective must tolerate
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
	// reports.
	Server = server.Server
	// ServerStats is a snapshot of a Server's operational counters.
	ServerStats = server.Stats
	// Client is an application-side connection to the server.
	Client = client.Client
	// ClientOptions tune the client's fault handling: per-round-trip
	// I/O deadlines and reconnect-with-backoff.
	ClientOptions = client.Options
	// Session is a registered on-line tuning session, obtained from a
	// Client or a Mux.
	Session = client.Session
	// Registration describes a session to create.
	Registration = client.Registration
	// Mux is a multiplexed connection speaking the binary frame
	// protocol; many sessions share it and their requests are
	// pipelined into common frames.
	Mux = client.Mux
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

// DialMux connects to a Harmony server at addr over the binary frame
// protocol; register many sessions on the returned Mux to share the
// connection.
func DialMux(addr string) (*Mux, error) { return client.DialMux(addr) }

// Prior-run history.
type (
	// HistoryStore persists tuning outcomes across sessions.
	HistoryStore = history.Store
	// HistoryRecord is one stored tuning outcome.
	HistoryRecord = history.Record
	// EvalCache is a content-addressed store of objective
	// evaluations shared across sessions; bind it to an evaluation
	// identity with Bound and plug the result into Options.Cache or
	// Server.Cache.
	EvalCache = history.EvalCache
	// BoundCache is an EvalCache scoped to one (application,
	// machine, space) identity; it implements PointCache.
	BoundCache = history.BoundCache
	// PointCache answers objective evaluations from a cache
	// (Options.Cache). Hits are charged to the session's accounts
	// exactly as if the application had run.
	PointCache = core.PointCache
)

// OpenHistory opens (or creates) a history store at path.
func OpenHistory(path string) (*HistoryStore, error) { return history.Open(path) }

// NewEvalCache returns an empty in-memory evaluation cache.
func NewEvalCache() *EvalCache { return history.NewEvalCache() }

// OpenEvalCache loads (or starts) a persistent evaluation cache at
// path; Save writes it back.
func OpenEvalCache(path string) (*EvalCache, error) { return history.OpenEvalCache(path) }

// Library Specification Layer.
type (
	// SortLibrary is a tunable sorting service, the paper's example
	// of algorithm selection (heap sort vs. quick sort).
	SortLibrary = libspec.Library[libspec.SortFunc]
	// SortFunc sorts a float64 slice ascending.
	SortFunc = libspec.SortFunc
)

// NewSortLibrary returns the tunable sorting service.
func NewSortLibrary() *SortLibrary { return libspec.NewSortLibrary() }
