package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

func TestTailPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		some bool
	}{
		{50000, 99.9, true}, {10000, 99.9, true}, {9999, 99, true}, {1000, 99, true},
		{999, 95, true}, {200, 95, true}, {199, 90, true}, {100, 90, true},
		{99, 75, true}, {80, 75, true}, {40, 75, true}, {39, 0, false}, {0, 0, false},
	} {
		p, ok := tailPercentile(c.n)
		if p != c.p || ok != c.some {
			t.Errorf("tailPercentile(%d) = p%g, %t; want p%g, %t", c.n, p, ok, c.p, c.some)
		}
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i)
	}
	if v, p := tail(xs); p != 99 || math.Abs(v-989.01) > 1e-9 {
		t.Errorf("tail of 0..999 = %g at p%g, want 989.01 at p99", v, p)
	}
	if v, p := tail(xs[:10]); p != 100 || v != 9 {
		t.Errorf("tail of ten samples = %g at p%g, want the maximum", v, p)
	}
}

// TestSpreadMatchesPythonQuantiles pins spread to the driver's
// statistic; the expected quartiles are statistics.quantiles(v, n=4).
func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	v := []float64{10, 12, 11, 15, 9, 13, 14, 10.5, 11.5, 12.5}
	// quantiles → [10.375, 11.75, 13.25]; median 11.75.
	if got, want := spread(v), (13.25-10.375)/11.75; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

// TestSteadyWall: every segment counts with its shortest repetition, a
// lane is the sum of its segments, the repetition its longest lane.
func TestSteadyWall(t *testing.T) {
	reps := []*repResult{
		{lanes: [][]float64{{1, 2, 3}, {2, 2}}},
		{lanes: [][]float64{{2, 1, 3}, {1, 3}}},
		{lanes: [][]float64{{3, 3, 4}, {5, 5}}},
	}
	if wall, ok := steadyWall(reps); !ok || wall != 5 {
		t.Errorf("steadyWall = %v, %t; want 5 (lanes 1+1+3 and 1+2)", wall, ok)
	}
	if wall, ok := steadyWall(reps[:1]); !ok || wall != 6 {
		t.Errorf("steadyWall of one repetition = %v, %t; want its longest lane, 6", wall, ok)
	}
	reps[1].lanes[1] = []float64{1}
	if _, ok := steadyWall(reps); ok {
		t.Error("steadyWall accepted repetitions cut into different segments")
	}
	// A long lane is gathered into steadySlices slices of consecutive
	// segments: a disturbance that hits neighbouring segments in
	// different repetitions is not minimised away piece by piece.
	a, b := make([]float64, 2*steadySlices), make([]float64, 2*steadySlices)
	for i := range a {
		a[i], b[i] = 1, 1
	}
	a[0], b[1] = 3, 3
	if wall, ok := steadyWall([]*repResult{{lanes: [][]float64{a}}, {lanes: [][]float64{b}}}); !ok || wall != float64(2*steadySlices+2) {
		t.Errorf("steadyWall of sliced lanes = %v, %t; want %d", wall, ok, 2*steadySlices+2)
	}
	lane := closeLane([]float64{0.25, 0.5}, 1e9)
	if len(lane) != 3 || lane[2] != 0.25 {
		t.Errorf("closeLane = %v, want the 0.25 s between the segments appended", lane)
	}
}

func TestSelfTimeArithmetic(t *testing.T) {
	near := func(name string, got map[string]float64, want map[string]float64) {
		t.Helper()
		for layer, w := range want {
			if math.Abs(got[layer]-w) > 1e-12 {
				t.Errorf("%s: self[%s] = %v, want %v (all: %v)", name, layer, got[layer], w, got)
			}
		}
		for layer := range got {
			if _, ok := want[layer]; !ok && got[layer] != 0 {
				t.Errorf("%s: unexpected self[%s] = %v", name, layer, got[layer])
			}
		}
	}
	const s = int64(1e9)
	// One chain: a span's self time is its duration minus what its
	// children cover, children touching and children apart.
	near("nested", selfTimes([]span{
		{Name: "core.tune", StartNS: 0, EndNS: 10 * s, Parent: -1},
		{Name: "search.ask", StartNS: 1 * s, EndNS: 2 * s, Parent: 0},
		{Name: "gs2.run", StartNS: 2 * s, EndNS: 7 * s, Parent: 0},
		{Name: "search.tell", StartNS: 8 * s, EndNS: 9 * s, Parent: 0},
	}), map[string]float64{"core": 3, "search": 2, "gs2": 5})
	// Three levels deep.
	near("deep", selfTimes([]span{
		{Name: "bench.rep", StartNS: 0, EndNS: 10 * s, Parent: -1},
		{Name: "core.tune", StartNS: 1 * s, EndNS: 9 * s, Parent: 0},
		{Name: "pop.run", StartNS: 2 * s, EndNS: 4 * s, Parent: 1},
	}), map[string]float64{"bench": 2, "core": 6, "pop": 2})
	// Two workers inside the objective at once: the interval they share
	// is split between them, so the layers still add up to the 10 s of
	// wall-clock and the engine gets only what no child covers.
	near("overlap", selfTimes([]span{
		{Name: "core.tune", StartNS: 0, EndNS: 10 * s, Parent: -1},
		{Name: "gs2.run", StartNS: 1 * s, EndNS: 5 * s, Parent: 0},
		{Name: "gs2.run", StartNS: 3 * s, EndNS: 8 * s, Parent: 0},
	}), map[string]float64{"core": 3, "gs2": 7})
	// A strategy call on the coordinator while a worker evaluates: the
	// shared second is halved.
	near("mixed", selfTimes([]span{
		{Name: "core.tune", StartNS: 0, EndNS: 4 * s, Parent: -1},
		{Name: "gs2.run", StartNS: 0, EndNS: 4 * s, Parent: 0},
		{Name: "search.ask", StartNS: 1 * s, EndNS: 2 * s, Parent: 0},
	}), map[string]float64{"gs2": 3.5, "search": 0.5})
	// Independent roots (driver goroutines) and an unclosed span.
	near("roots", selfTimes([]span{
		{Name: "client.fetch", StartNS: 0, EndNS: 2 * s, Parent: -1},
		{Name: "client.report", StartNS: 1 * s, EndNS: 3 * s, Parent: -1},
		{Name: "client.best", StartNS: 1 * s, EndNS: -1, Parent: -1},
	}), map[string]float64{"client": 3})
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// benchmarkFile is BENCHMARK.json as the driver reads it.
type benchmarkFile struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var f benchmarkFile
	if err := dec.Decode(&f); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return f
}

// TestBenchmarkFileMatchesDeclarations keeps BENCHMARK.json and the
// program's own declarations in step, and both inside the contract's
// limits.
func TestBenchmarkFileMatchesDeclarations(t *testing.T) {
	f := readBenchmarkFile(t)
	if len(f.Workloads) < 2 || len(f.Workloads) > 8 || len(f.EndToEnd) < 1 || len(f.EndToEnd) > 16 || len(f.PerLayer) < 1 || len(f.PerLayer) > 128 {
		t.Errorf("limits: %d workloads (2..8), %d end-to-end (1..16), %d per-layer (1..128)", len(f.Workloads), len(f.EndToEnd), len(f.PerLayer))
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", f.RunSeconds)
	}
	if len(f.Paths) != 1 || f.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", f.Paths)
	}
	same := func(kind string, got, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			g, w := got[i], want[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better || g.Bound != w.Bound {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the program %+v", kind, i, g, w)
			}
			if bounded && (w.Bound <= 0 || w.Bound > 0.25) {
				t.Errorf("%s: bound %v outside (0, 0.25]", w.Name, w.Bound)
			}
			if !bounded && w.Bound != 0 {
				t.Errorf("%s: a per-layer metric has no bound", w.Name)
			}
		}
	}
	same("end_to_end", f.EndToEnd, endToEnd, true)
	same("per_layer", f.PerLayer, perLayer, false)
	if len(f.Workloads) != len(workloadDefs) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program %d", len(f.Workloads), len(workloadDefs))
	}
	for i, w := range workloadDefs {
		if f.Workloads[i] != w {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program %+v", i, f.Workloads[i], w)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why is %d characters; one line of at most 200", w.Name, len(w.Why))
		}
	}

	seen := map[string]bool{}
	var haveSetup bool
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %q unit %q: outside the contract's alphabet", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better = %q", d.Name, d.Better)
		}
		if seen[d.Name] {
			t.Errorf("metric name %s used twice", d.Name)
		}
		seen[d.Name] = true
		haveSetup = haveSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	for _, w := range workloadDefs {
		if !nameRE.MatchString(w.Name) || seen[w.Name] {
			t.Errorf("workload name %q invalid or reused", w.Name)
		}
		seen[w.Name] = true
	}
	if !haveSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, l := range spanLayers {
		if !seen[l.metric] {
			t.Errorf("span layer metric %s is not declared", l.metric)
		}
	}
}

func quickConfig(t *testing.T) config {
	t.Helper()
	return config{env: env{seed: 11, workers: 2, sz: quickSizes(), outDir: t.TempDir()}, seconds: 0.05}
}

// TestQuickRunPrintsDeclaredNames runs every workload at tiny sizes,
// untraced and traced, and requires the result lines to carry exactly
// the declared metric names, finite, with the oracles passing.
func TestQuickRunPrintsDeclaredNames(t *testing.T) {
	cfg := quickConfig(t)
	for _, def := range workloadDefs {
		ms, err := measureUntraced([]string{def.Name}, cfg)
		if err != nil {
			t.Fatalf("%s: %v", def.Name, err)
		}
		checkLine(t, def.Name, ms[0], endToEnd, true)

		lm, err := measureTraced(def.Name, cfg)
		if err != nil {
			t.Fatalf("%s traced: %v", def.Name, err)
		}
		checkLine(t, def.Name+" traced", lm, perLayer, false)
		if _, err := os.Stat(filepath.Join(cfg.outDir, "trace-"+def.Name+".jsonl")); err != nil {
			t.Errorf("%s: no trace file: %v", def.Name, err)
		}
		if f := lm.values["trace.self_sum_frac"]; math.Abs(f-1) > 0.05 {
			t.Errorf("%s: layer self times add up to %.3f of the traced wall-clock", def.Name, f)
		}
		online := strings.HasPrefix(def.Name, "online-")
		if (lm.values["client.self_s"] > 0) != online {
			t.Errorf("%s: client.self_s = %v", def.Name, lm.values["client.self_s"])
		}
	}
}

func checkLine(t *testing.T, what string, m *measurement, defs []metricDef, nonZero bool) {
	t.Helper()
	for _, err := range m.errs {
		t.Errorf("%s: oracle: %v", what, err)
	}
	var line struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
		Metrics   map[string]struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(resultLine(m, defs)), &line); err != nil {
		t.Fatalf("%s: result line is not JSON: %v", what, err)
	}
	if !line.Correct || line.Attempted < 1 || line.Failed != 0 {
		t.Errorf("%s: correct=%t attempted=%d failed=%d", what, line.Correct, line.Attempted, line.Failed)
	}
	var got, want []string
	for name, mv := range line.Metrics {
		got = append(got, name)
		if mv.Value == nil || math.IsNaN(*mv.Value) || math.IsInf(*mv.Value, 0) || (nonZero && *mv.Value == 0) {
			t.Errorf("%s: %s has no usable value", what, name)
		}
	}
	for _, d := range defs {
		want = append(want, d.Name)
		if line.Metrics[d.Name].Unit != d.Unit {
			t.Errorf("%s: %s printed with unit %q, declared %q", what, d.Name, line.Metrics[d.Name].Unit, d.Unit)
		}
		if _, measured := m.values[d.Name]; !measured && nonZero {
			t.Errorf("%s: %s was never measured", what, d.Name)
		}
	}
	sort.Strings(got)
	sort.Strings(want)
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("%s: printed names differ from the declared ones:\n got %v\nwant %v", what, got, want)
	}
}

// TestOraclesTrip corrupts one field of a good result at a time and
// requires the oracle guarding it to notice.
func TestOraclesTrip(t *testing.T) {
	good := func() *outcome {
		return &outcome{id: 7, best: "1,2", bestValue: 5, defaultValue: 8, startIsDefault: true, bestMeasured: true,
			runs: 10, tuningCost: 80, cacheHits: 10, fingerprint: "f"}
	}
	if err := checkCampaign(good(), 5); err != nil {
		t.Fatalf("good campaign rejected: %v", err)
	}
	for name, corrupt := range map[string]func(o *outcome) float64{
		"re-run differs in the last bit": func(o *outcome) float64 { return math.Nextafter(5, 6) },
		"best is a pruned trial":         func(o *outcome) float64 { o.bestMeasured = false; return 5 },
		"best worse than the start":      func(o *outcome) float64 { o.bestValue, o.defaultValue = 9, 8; return 9 },
		"best is NaN":                    func(o *outcome) float64 { o.bestValue = math.NaN(); return 5 },
		"an objective failed":            func(o *outcome) float64 { o.failures = 1; return 5 },
	} {
		o := good()
		if err := checkCampaign(o, corrupt(o)); err == nil {
			t.Errorf("checkCampaign accepted: %s", name)
		}
	}
	// A search that did not start from the default may end above it.
	o := good()
	o.startIsDefault, o.bestValue = false, 9
	if err := checkCampaign(o, 9); err != nil {
		t.Errorf("checkCampaign rejected a worse best without a default start: %v", err)
	}

	if err := checkReplay(good(), good()); err != nil {
		t.Fatalf("good replay rejected: %v", err)
	}
	for name, corrupt := range map[string]func(o *outcome){
		"best point":   func(o *outcome) { o.best = "1,3" },
		"best value":   func(o *outcome) { o.bestValue = math.Nextafter(5, 6) },
		"runs":         func(o *outcome) { o.runs, o.cacheHits = 11, 11 },
		"tuning cost":  func(o *outcome) { o.tuningCost = 80.5 },
		"trial log":    func(o *outcome) { o.fingerprint = "g" },
		"a cache miss": func(o *outcome) { o.cacheHits, o.cacheMisses = 9, 1 },
	} {
		warm := good()
		corrupt(warm)
		if err := checkReplay(good(), warm); err == nil {
			t.Errorf("checkReplay accepted a replay with a different %s", name)
		}
	}

	if err := checkSame("x", []string{"a", "b"}, []string{"a", "b"}); err != nil {
		t.Errorf("checkSame rejected equal results: %v", err)
	}
	if checkSame("x", []string{"a", "b"}, []string{"a", "c"}) == nil || checkSame("x", []string{"a"}, []string{"a", "b"}) == nil {
		t.Error("checkSame accepted differing results")
	}

	rec := sessionRecord{id: 3, sent: 40, minReported: 12, bestPerf: 12}
	if err := checkSession(&rec); err != nil {
		t.Errorf("good session rejected: %v", err)
	}
	for name, bad := range map[string]sessionRecord{
		"best below anything reported": {id: 3, sent: 40, minReported: 12, bestPerf: 11},
		"best above the minimum":       {id: 3, sent: 40, minReported: 12, bestPerf: 13},
		"no reports":                   {id: 3},
	} {
		if err := checkSession(&bad); err == nil {
			t.Errorf("checkSession accepted: %s", name)
		}
	}
	if err := checkReports(100, 90, 10); err != nil {
		t.Errorf("checkReports rejected a balanced account: %v", err)
	}
	if checkReports(100, 90, 9) == nil || checkReports(100, 101, 0) == nil {
		t.Error("checkReports accepted a lost or invented report")
	}
}

// TestOracleCatchesCorruptedCampaign runs a real campaign and corrupts
// its result the way a leaking surrogate or a stale cache would.
func TestOracleCatchesCorruptedCampaign(t *testing.T) {
	c := popPROCampaign(1, 5, 2, true)
	tn, err := c.tune(hooks{})
	if err != nil {
		t.Fatal(err)
	}
	o, err := c.condense(tn)
	if err != nil {
		t.Fatal(err)
	}
	v, err := c.remeasure(o.bestConfig)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkCampaign(o, v); err != nil {
		t.Fatalf("genuine campaign rejected: %v", err)
	}
	if o.pruned == 0 {
		t.Fatal("campaign pruned nothing; it does not exercise the gate")
	}
	leaked := *o
	leaked.bestValue *= 0.99 // a prediction reported as the best measurement
	if err := checkCampaign(&leaked, v); err == nil {
		t.Error("a best value no run produced went unnoticed")
	}
}

func TestDeriveSeedSeparatesStreams(t *testing.T) {
	seen := map[int64]bool{}
	for stream := 0; stream < 4; stream++ {
		for i := 0; i < 1000; i++ {
			s := deriveSeed(11, stream, i)
			if s < 0 || seen[s] {
				t.Fatalf("deriveSeed(11, %d, %d) = %d: negative or repeated", stream, i, s)
			}
			seen[s] = true
		}
	}
	if deriveSeed(11, 0, 0) == deriveSeed(12, 0, 0) {
		t.Error("benchmark seed does not reach the derived seeds")
	}
}
