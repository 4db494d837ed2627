package main

import (
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"harmony/internal/core"
	"harmony/internal/history"
	"harmony/internal/proto"
)

// writeSpec writes an htune spec that tunes a shell one-liner whose
// stdout metric is (x-42)^2: the optimum is x=42.
func writeSpec(t *testing.T, dir string, extra func(*Spec)) string {
	t.Helper()
	spec := Spec{
		App:      "shellapp",
		Machine:  "local",
		Strategy: "simplex",
		MaxRuns:  30,
		Metric:   "stdout",
		Params: []proto.ParamSpec{
			{Name: "x", Kind: "int", Min: 0, Max: 100, Step: 1},
		},
		Command: []string{"/bin/sh", "-c", "echo $(( ({x}-42)*({x}-42) ))"},
	}
	if extra != nil {
		extra(&spec)
	}
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "spec.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestHtuneEndToEnd(t *testing.T) {
	if _, err := os.Stat("/bin/sh"); err != nil {
		t.Skip("no /bin/sh")
	}
	dir := t.TempDir()
	spec := writeSpec(t, dir, nil)
	hist := filepath.Join(dir, "hist.json")
	if err := run(spec, cliOptions{historyPath: hist}); err != nil {
		t.Fatalf("run: %v", err)
	}
	// The history must record a near-optimal x.
	store, err := history.Open(hist)
	if err != nil {
		t.Fatal(err)
	}
	recs := store.Records()
	if len(recs) != 1 {
		t.Fatalf("history has %d records, want 1", len(recs))
	}
	if recs[0].BestValue > 25 { // within 5 of the optimum
		t.Errorf("tuned objective %v (x=%v), want near 0", recs[0].BestValue, recs[0].Best["x"])
	}
}

func TestHtuneEnvSubstitution(t *testing.T) {
	if _, err := os.Stat("/bin/sh"); err != nil {
		t.Skip("no /bin/sh")
	}
	dir := t.TempDir()
	spec := writeSpec(t, dir, func(s *Spec) {
		// Read the parameter from the environment instead of the
		// command line.
		s.Command = []string{"/bin/sh", "-c", "echo $(( ($HT_X-42)*($HT_X-42) ))"}
		s.MaxRuns = 20
	})
	if err := run(spec, cliOptions{}); err != nil {
		t.Fatalf("run: %v", err)
	}
}

// TestHtuneBadSpecs: each malformed spec is refused; where a case
// names a want, the error must contain it. How the tuning runs is a
// flag, so a spec that still names the former "workers" field is
// refused naming it, instead of silently running one evaluation at a
// time; and a misspelt metric is refused naming the known ones,
// instead of silently timing the command.
func TestHtuneBadSpecs(t *testing.T) {
	dir := t.TempDir()
	cases := map[string]struct{ path, want string }{
		"missing":   {path: filepath.Join(dir, "nope.json")},
		"not json":  {path: writeRaw(t, dir, "a.json", "{broken")},
		"no params": {path: writeRaw(t, dir, "b.json", `{"command":["true"]}`)},
		"no command": {path: writeRaw(t, dir, "c.json",
			`{"params":[{"name":"x","kind":"int","min":0,"max":1,"step":1}]}`)},
		"bad strategy": {path: writeRaw(t, dir, "d.json",
			`{"strategy":"annealing","command":["true"],"params":[{"name":"x","kind":"int","min":0,"max":1,"step":1}]}`)},
		"unknown field": {writeRaw(t, dir, "e.json",
			`{"workers":4,"command":["true"],"params":[{"name":"x","kind":"int","min":0,"max":1,"step":1}]}`), `"workers"`},
		"data after the spec": {writeRaw(t, dir, "f.json",
			`{"command":["true"],"params":[{"name":"x","kind":"int","min":0,"max":1,"step":1}]} {}`), "data after the spec"},
		"unknown metric": {writeRaw(t, dir, "g.json",
			`{"metric":"stdot","command":["true"],"params":[{"name":"x","kind":"int","min":0,"max":1,"step":1}]}`), `"stdot": want "time" (the default) or "stdout"`},
	}
	for name, c := range cases {
		if err := run(c.path, cliOptions{}); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one containing %q", name, err, c.want)
		}
	}
}

// TestHtuneKnownMetricsRun: the metrics htune knows, and none (wall
// time), all tune; any other is refused (TestHtuneBadSpecs).
func TestHtuneKnownMetricsRun(t *testing.T) {
	for _, metric := range []string{"", "time", "stdout"} {
		spec := writeSpec(t, t.TempDir(), func(s *Spec) { s.Metric, s.MaxRuns = metric, 2 })
		if err := run(spec, cliOptions{}); err != nil {
			t.Errorf("metric %q: %v", metric, err)
		}
	}
}

func writeRaw(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestHtuneFailingCommand(t *testing.T) {
	dir := t.TempDir()
	spec := writeSpec(t, dir, func(s *Spec) {
		s.Command = []string{"/bin/false"}
		s.MaxRuns = 3
	})
	// All runs fail -> no usable evaluations, but the driver reports
	// it gracefully rather than crashing.
	if err := run(spec, cliOptions{}); err != nil {
		t.Logf("run returned %v (acceptable)", err)
	}
}

func TestLastFloat(t *testing.T) {
	cases := []struct {
		in      string
		want    float64
		wantErr bool
	}{
		{"12.5\n", 12.5, false},
		{"elapsed: 3 runs\n1.25 seconds", 1.25, false}, // last numeric token
		{"result 7", 7, false},
		{"no numbers here", 0, true},
		{"", 0, true},
	}
	for _, c := range cases {
		got, err := lastFloat(c.in)
		if c.wantErr != (err != nil) {
			t.Errorf("lastFloat(%q) err = %v", c.in, err)
			continue
		}
		if !c.wantErr && got != c.want {
			t.Errorf("lastFloat(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestSubstitute(t *testing.T) {
	got := substitution(map[string]string{"x": "5", "y": "q"}).Replace("--x={x} --y={y} --x2={x}")
	if got != "--x=5 --y=q --x2=5" {
		t.Errorf("substitute = %q", got)
	}
	// A value that spells another placeholder is not expanded again,
	// whichever order the map ranges in.
	for i := 0; i < 200; i++ {
		if got := substitution(map[string]string{"a": "{b}", "b": "7"}).Replace("--a={a}"); got != "--a={b}" {
			t.Fatalf("call %d: substitute = %q, want --a={b}", i, got)
		}
	}
}

// TestHtuneParallelWorkers drives the same shell objective through
// the parallel engine: the PRO rounds fan concurrent command
// invocations out over the worker pool.
func TestHtuneParallelWorkers(t *testing.T) {
	if _, err := os.Stat("/bin/sh"); err != nil {
		t.Skip("no /bin/sh")
	}
	dir := t.TempDir()
	spec := writeSpec(t, dir, func(s *Spec) {
		s.Strategy = "pro"
		s.MaxRuns = 20
	})
	if err := run(spec, cliOptions{workers: 3}); err != nil {
		t.Fatalf("run with 3 workers: %v", err)
	}
}

// TestHtuneSurrogateNeedsAModel: htune has no model to screen with —
// screening needs a model that a campaign builds itself
// (core.SurrogateOptions) — so -surrogate is refused as an unknown
// flag before any run, and an app that -surrogate once refused for
// want of a model, gs2-table3, runs like any other.
func TestHtuneSurrogateNeedsAModel(t *testing.T) {
	if spec := os.Getenv("HTUNE_MAIN_SPEC"); spec != "" {
		os.Args = []string{"htune", "-surrogate", spec}
		main()
		return
	}
	dir := t.TempDir()
	spec := writeSpec(t, dir, func(s *Spec) { s.App = "gs2-table3" })
	cmd := exec.Command(os.Args[0], "-test.run=^TestHtuneSurrogateNeedsAModel$")
	cmd.Env = append(os.Environ(), "HTUNE_MAIN_SPEC="+spec)
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Errorf("htune -surrogate: %v, want exit status 2\n%s", err, out)
	}
	if !strings.Contains(string(out), "flag provided but not defined: -surrogate") {
		t.Errorf("htune -surrogate output does not name the unknown flag:\n%s", out)
	}
	if _, err := os.Stat("/bin/sh"); err != nil {
		t.Skip("no /bin/sh")
	}
	spec = writeSpec(t, dir, func(s *Spec) {
		s.App = "gs2-table3"
		s.MaxRuns = 5
	})
	if err := run(spec, cliOptions{}); err != nil {
		t.Errorf("gs2-table3: %v", err)
	}
}

// TestHtuneRunTimeout: a configuration that hangs the program is
// killed at the -run-timeout deadline and counted as a failure
// instead of wedging the session.
func TestHtuneRunTimeout(t *testing.T) {
	if _, err := os.Stat("/bin/sh"); err != nil {
		t.Skip("no /bin/sh")
	}
	dir := t.TempDir()
	spec := writeSpec(t, dir, func(s *Spec) {
		s.Command = []string{"/bin/sh", "-c", "sleep 30"}
		s.MaxRuns = 2
	})
	start := time.Now()
	err := run(spec, cliOptions{runTimeout: 50 * time.Millisecond})
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("run took %v; the per-run deadline did not kill the hung command", elapsed)
	}
	// Every run timed out, so the driver reports there is nothing to
	// tune — that is the graceful outcome, not a hang.
	if err == nil {
		t.Error("expected an error when every run exceeds the deadline")
	}
}

// TestWriteMetrics pins the machine-readable summary format.
func TestWriteMetrics(t *testing.T) {
	sp, err := proto.DecodeSpace([]proto.ParamSpec{
		{Name: "x", Kind: "int", Min: 0, Max: 100, Step: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := sp.Decode(sp.Center())
	if err != nil {
		t.Fatal(err)
	}
	res := &core.Result{
		Runs: 7, Failures: 1,
		BestValue: 2, FirstValue: 8, TuningCost: 12.5,
		BestConfig: cfg,
	}
	var sb strings.Builder
	writeMetrics(&sb, Spec{App: "shellapp"}, res)
	out := sb.String()
	for _, want := range []string{
		"htune.app shellapp\n",
		"htune.runs 7\n",
		"htune.failures 1\n",
		"htune.best_value 2\n",
		"htune.first_value 8\n",
		"htune.improvement 0.75\n",
		"htune.speedup 4\n",
		"htune.tuning_cost_s 12.5\n",
		"htune.best.x 50\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q:\n%s", want, out)
		}
	}
}
