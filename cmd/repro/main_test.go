package main

import (
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestExperimentRegistry checks every advertised experiment is
// runnable and ordered.
func TestExperimentRegistry(t *testing.T) {
	if len(experimentOrder) != len(experiments) {
		t.Fatalf("order lists %d experiments, registry has %d", len(experimentOrder), len(experiments))
	}
	for _, name := range experimentOrder {
		if _, ok := experiments[name]; !ok {
			t.Errorf("ordered experiment %q not registered", name)
		}
	}
}

const quickGolden = "testdata/quick.golden"

// wallClock matches the parallel experiment's wall-clock fields
// ("wall 0.13s", "3.37x wall-clock speedup"), the only output of a
// quick run that is not a function of the seed.
var wallClock = regexp.MustCompile(`\d+\.\d+([sx])\b`)

// TestQuickExperimentsSmoke runs every experiment at -quick, seed 1
// and 4 workers, in paper order, and compares what each prints with
// its section of testdata/quick.golden: a change that moves any
// reproduced number, table row or tuned configuration fails here.
// runOne's "completed in" line is printed outside the experiment and
// is not captured. Under the race detector fig3 is skipped: its
// numeric SNES runs on coroutine ranks and takes minutes there.
//
// Regenerate (only when a change is meant to alter the output) with:
//
//	HARMONY_PRINT_FINGERPRINTS=1 go test -run TestQuickExperimentsSmoke ./cmd/repro
func TestQuickExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	o := options{quick: true, seed: 1, workers: 4}
	if os.Getenv("HARMONY_PRINT_FINGERPRINTS") != "" {
		if raceEnabled {
			t.Fatal("regenerate the golden without -race: it skips fig3")
		}
		var b strings.Builder
		for _, name := range experimentOrder {
			fmt.Fprintf(&b, "=== %s\n%s", name, quickOutput(t, name, o))
		}
		if err := os.WriteFile(quickGolden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(quickGolden)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	name := ""
	for _, line := range strings.SplitAfter(string(data), "\n") {
		if n, ok := strings.CutPrefix(line, "=== "); ok {
			name = strings.TrimSuffix(n, "\n")
			want[name] = ""
			continue
		}
		want[name] += line
	}
	for _, name := range experimentOrder {
		t.Run(name, func(t *testing.T) {
			if name == "fig3" && raceEnabled {
				t.Skip("fig3's numeric SNES is too slow under the race detector")
			}
			w, ok := want[name]
			if !ok {
				t.Fatalf("%s has no section in %s", name, quickGolden)
			}
			if got := quickOutput(t, name, o); got != w {
				t.Errorf("quick output of %s differs from %s:\n--- got\n%s--- want\n%s", name, quickGolden, got, w)
			}
		})
	}
}

// quickOutput runs one experiment and returns what it printed, with
// the parallel experiment's wall-clock fields masked.
func quickOutput(t *testing.T, name string, o options) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stdout := os.Stdout
	os.Stdout = f
	err = experiments[name].run(o)
	os.Stdout = stdout
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	if name == "parallel" {
		out = wallClock.ReplaceAll(out, []byte("N.NN$1"))
	}
	return string(out)
}

func TestRunOneUnknown(t *testing.T) {
	if err := runOne("fig99", options{}); err == nil {
		t.Error("expected error for unknown experiment")
	}
}

// TestParallelRefusesOneWorker: the parallel experiment compares 1
// worker against N, so -workers below 2 is an error, not a silent 4.
func TestParallelRefusesOneWorker(t *testing.T) {
	for _, workers := range []int{0, 1} {
		err := runOne("parallel", options{quick: true, workers: workers})
		if err == nil || !strings.Contains(err.Error(), "-workers") {
			t.Errorf("-workers %d: got %v, want an error naming the flag", workers, err)
		}
	}
}

func TestPct(t *testing.T) {
	if got := pct(100, 80); got != 20 {
		t.Errorf("pct = %v, want 20", got)
	}
	if got := pct(0, 10); got != 0 {
		t.Errorf("pct(0,·) = %v, want 0", got)
	}
}
