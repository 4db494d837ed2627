package main

// metricDef declares one metric: the name it is printed under, its
// unit and which direction is better. BENCHMARK.json repeats these
// declarations for the driver; a test keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	// exact marks a metric that is a pure function of the seed: two runs
	// of one seed must print the same digits.
	exact bool
}

// endToEnd are the metrics a user of the system sees; every workload
// reports all of them. evals counts charged evaluations: Result.Runs
// off-line (cache hits are charged, as in the paper's cost model),
// accepted reports on-line.
//
// Four metrics a user would also name are not in this list. They are
// per-layer metrics under their name prefixed "e2e.", measured on
// untraced repetitions all the same and shown in every table:
//   - failed ÷ attempted: the workloads are chosen so that nothing
//     fails, and a metric that is always 0 has no spread to bound. It is
//     also the result line's attempted/failed fields, and any failure
//     fails the run.
//   - evaluations per second and the op latency median and tail. A
//     timing that does not repeat within its bound is demoted, not given
//     a wider bound, and on the 2-core VM this was calibrated on none of
//     the three repeats within the widest bound there is. The host runs
//     the same code 20 to 45 % slower for minutes at a time, several
//     times an hour: over ten runs with ten seeds evals_per_s, even
//     taken slice by slice at each slice's best (steadyWall), spread by
//     4 to 12 % in a quiet half hour and by 18 to 31 % in the next
//     (the median over repetitions, which the driver refused, by more).
//     An on-line round is two to four cross-CPU wake-ups; its latency
//     has two modes (≈ 9 µs and ≈ 18 µs per call) whose mix is a state
//     of the host that holds for a whole process: the p50 moved by 31 %
//     and the p99.9 by 46–77 %.
//     Two commits are compared on these by pairs of runs made side by
//     side, not by a bound against a median taken at another hour.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "best_over_default", Unit: "ratio", Better: "lower", Bound: 0.10, exact: true},
	{Name: "cost_to_best_s", Unit: "virtual_s", Better: "lower", Bound: 0.25, exact: true},
	{Name: "alloc_kb_per_eval", Unit: "KiB", Better: "lower", Bound: 0.10},
}

// demoted are the per-layer metrics that the untraced pass measures too.
// The op whose latency they describe is fixed per workload (see
// workloadDefs); the tail is the highest of p99.9/p99/p95/p90/p75 that
// has at least ten samples beyond it in one repetition.
var demoted = []metricDef{
	{Name: "e2e.evals_per_s", Unit: "1/s", Better: "higher"},
	{Name: "e2e.op_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "e2e.op_tail_ms", Unit: "ms", Better: "lower"},
}

// perLayer are the metrics of the traced pass: the demoted end-to-end
// ones, then the numbers of single layers.
var perLayer = append(append([]metricDef{
	{Name: "e2e.failed_frac", Unit: "ratio", Better: "lower"},
}, demoted...), layerMetrics...)

// layerMetrics are the numbers of single layers: span statistics,
// counters the layers export, and fixed-input probes. A metric of a
// layer that does nothing on a workload reads 0 there.
var layerMetrics = []metricDef{
	{Name: "trace.wall_s", Unit: "s", Better: "lower"},
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "trace.spans", Unit: "count", Better: "lower"},
	{Name: "trace.self_sum_frac", Unit: "ratio", Better: "higher"},
	{Name: "bench.self_s", Unit: "s", Better: "lower"},

	{Name: "search.self_s", Unit: "s", Better: "lower"},
	{Name: "search.ask_ns", Unit: "ns", Better: "lower"},
	{Name: "search.tell_ns", Unit: "ns", Better: "lower"},
	{Name: "search.proposals", Unit: "count", Better: "lower"},
	{Name: "search.useful_frac", Unit: "ratio", Better: "higher"},
	{Name: "search.stall_frac", Unit: "ratio", Better: "lower"},

	{Name: "core.engine_self_s", Unit: "s", Better: "lower"},
	{Name: "core.overhead_ns_per_eval", Unit: "ns", Better: "lower"},
	{Name: "core.occupancy", Unit: "ratio", Better: "higher"},
	{Name: "core.queue_starved", Unit: "count", Better: "lower"},
	{Name: "core.idle_slots", Unit: "count", Better: "lower"},
	{Name: "core.spec_runs", Unit: "count", Better: "lower"},
	{Name: "core.spec_hit_frac", Unit: "ratio", Better: "higher"},
	{Name: "core.parallel_eff", Unit: "ratio", Better: "higher"},

	{Name: "surrogate.self_s", Unit: "s", Better: "lower"},
	{Name: "surrogate.predict_ns", Unit: "ns", Better: "lower"},
	{Name: "surrogate.predictions", Unit: "count", Better: "lower"},
	{Name: "surrogate.pruned_frac", Unit: "ratio", Better: "higher"},
	{Name: "surrogate.fallbacks", Unit: "count", Better: "lower"},
	{Name: "surrogate.evals_avoided_x", Unit: "ratio", Better: "higher"},
	{Name: "surrogate.rank_corr", Unit: "ratio", Better: "higher"},

	{Name: "history.self_s", Unit: "s", Better: "lower"},
	{Name: "history.lookup_ns", Unit: "ns", Better: "lower"},
	{Name: "history.store_ns", Unit: "ns", Better: "lower"},
	{Name: "history.hit_frac", Unit: "ratio", Better: "higher"},
	{Name: "history.saved_s", Unit: "s", Better: "higher"},
	{Name: "history.save_ms", Unit: "ms", Better: "lower"},
	{Name: "history.open_ms", Unit: "ms", Better: "lower"},
	{Name: "history.file_kb", Unit: "KiB", Better: "lower"},

	{Name: "space.key_ns", Unit: "ns", Better: "lower"},
	{Name: "space.decode_ns", Unit: "ns", Better: "lower"},

	{Name: "sim.self_frac", Unit: "ratio", Better: "lower"},
	{Name: "petscsim.self_s", Unit: "s", Better: "lower"},
	{Name: "petscsim.run_ms", Unit: "ms", Better: "lower"},
	{Name: "sparse.plan_build_ms", Unit: "ms", Better: "lower"},
	{Name: "sparse.matvec_us", Unit: "us", Better: "lower"},
	{Name: "sparse.matvec_allocs", Unit: "count", Better: "lower"},
	{Name: "sparse.nnz_per_s", Unit: "1/s", Better: "higher"},
	{Name: "ksp.solve_ms", Unit: "ms", Better: "lower"},
	{Name: "ksp.iterations", Unit: "count", Better: "lower"},

	{Name: "simmpi.run_overhead_us", Unit: "us", Better: "lower"},
	{Name: "simmpi.pingpong_ns", Unit: "ns", Better: "lower"},
	{Name: "simmpi.handoff_ns", Unit: "ns", Better: "lower"},
	{Name: "simmpi.allreduce_ns", Unit: "ns", Better: "lower"},
	{Name: "simmpi.alltoallv_us", Unit: "us", Better: "lower"},
	{Name: "simmpi.msgs_per_eval", Unit: "count", Better: "lower"},
	{Name: "simmpi.bytes_per_eval", Unit: "B", Better: "lower"},
	{Name: "simmpi.wait_frac_default", Unit: "ratio", Better: "lower"},
	{Name: "simmpi.wait_frac_best", Unit: "ratio", Better: "lower"},

	{Name: "gs2.self_s", Unit: "s", Better: "lower"},
	{Name: "gs2.run_ms", Unit: "ms", Better: "lower"},
	{Name: "gs2.run_cold_ms", Unit: "ms", Better: "lower"},
	{Name: "gs2.plan_cold_ms", Unit: "ms", Better: "lower"},
	{Name: "pop.self_s", Unit: "s", Better: "lower"},
	{Name: "pop.run_ms", Unit: "ms", Better: "lower"},
	{Name: "pop.layout_cold_ms", Unit: "ms", Better: "lower"},

	{Name: "proto.bin_encode_ns", Unit: "ns", Better: "lower"},
	{Name: "proto.bin_decode_ns", Unit: "ns", Better: "lower"},
	{Name: "proto.json_encode_ns", Unit: "ns", Better: "lower"},
	{Name: "proto.json_decode_ns", Unit: "ns", Better: "lower"},
	{Name: "proto.bin_bytes_per_msg", Unit: "B", Better: "lower"},
	{Name: "proto.json_bytes_per_msg", Unit: "B", Better: "lower"},
	{Name: "proto.bin_allocs_per_msg", Unit: "count", Better: "lower"},
	{Name: "proto.json_allocs_per_msg", Unit: "count", Better: "lower"},

	{Name: "client.self_s", Unit: "s", Better: "lower"},
	{Name: "client.dial_register_us", Unit: "us", Better: "lower"},
	{Name: "server.register_us", Unit: "us", Better: "lower"},
	{Name: "server.fetch_us", Unit: "us", Better: "lower"},
	{Name: "server.report_us", Unit: "us", Better: "lower"},
	{Name: "server.best_us", Unit: "us", Better: "lower"},
	{Name: "server.done_us", Unit: "us", Better: "lower"},
	{Name: "server.pipe_round_us", Unit: "us", Better: "lower"},
	{Name: "server.tcp_share", Unit: "ratio", Better: "lower"},
	{Name: "server.sessions_peak", Unit: "count", Better: "higher"},
	{Name: "server.reissued", Unit: "count", Better: "lower"},
	{Name: "server.forfeited", Unit: "count", Better: "lower"},
	{Name: "server.dropped_stale", Unit: "count", Better: "lower"},
	{Name: "server.queue_starved", Unit: "count", Better: "lower"},
	{Name: "server.async_committed", Unit: "count", Better: "higher"},
}

// metricSet holds values by metric name.
type metricSet map[string]float64

// spanLayers are the layers that record spans, each with its self-time
// metric. The three simulators also add up to sim.self_frac.
var spanLayers = []struct{ layer, metric string }{
	{"bench", "bench.self_s"}, {"core", "core.engine_self_s"}, {"search", "search.self_s"},
	{"history", "history.self_s"}, {"surrogate", "surrogate.self_s"},
	{"petscsim", "petscsim.self_s"}, {"gs2", "gs2.self_s"}, {"pop", "pop.self_s"},
	{"client", "client.self_s"},
}

var simLayers = []string{"petscsim", "gs2", "pop"}
