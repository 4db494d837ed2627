package main

import (
	"bytes"
	"testing"
)

// BenchmarkHarmonyvet times a full-repo vet run — load and type-check
// the module from source, run all three analyzers, filter
// suppressions.
// This is the CI gate's work, so the benchmark is the budget that
// keeps the gate blocking: a full run must stay under a few seconds.
// The standard library is type-checked once per process, so every
// iteration after the first reuses it and times only the module; the
// CI Harmonyvet step's own wall time is the cold budget.
func BenchmarkHarmonyvet(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var out, errb bytes.Buffer
		if code := run([]string{"-C", "../..", "./..."}, &out, &errb); code != 0 {
			b.Fatalf("harmonyvet exit = %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
		}
	}
}
