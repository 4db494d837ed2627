package harmony_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestAllocationPinsRunInCI fails when CI would stop running the
// allocation pins. A pin skips under the race detector, as does fig3's
// quick golden in cmd/repro, and every CI step but one runs with -race,
// so that one step must run the whole suite without -race and fail on
// any skipped test.
func TestAllocationPinsRunInCI(t *testing.T) {
	data, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	var step string
	for _, s := range strings.Split(string(data), "\n      - name: ") {
		if strings.Contains(s, "go test -count=1 -v ./... 2>&1") {
			step = s
		}
	}
	if step == "" {
		t.Fatal("ci.yml has no step running go test -count=1 -v ./...")
	}
	_, run, _ := strings.Cut(step, "run: |")
	if strings.Contains(run, "-race") {
		t.Errorf("ci.yml's go test -count=1 -v ./... step runs under -race:\n%s", step)
	}
	if !strings.Contains(run, "grep -q -- '--- SKIP'") {
		t.Errorf("ci.yml's go test -count=1 -v ./... step does not fail on a skipped test:\n%s", step)
	}
}
