package analysis

import (
	"fmt"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// The fixture harness: each package under testdata/src/<dir> is
// loaded with the real loader and analyzed with a chosen analyzer.
// Expectations live in the fixtures themselves as trailing
//
//	// want `regex`
//
// comments; a finding must appear on exactly the lines that carry a
// want comment whose regex matches its message, and every want
// comment must be satisfied.

// sharedLoader type-checks the module's packages once for the whole
// test binary.
var sharedLoader = sync.OnceValues(func() (*Loader, error) {
	return NewLoader(".")
})

func loadFixture(t *testing.T, dir string) *Package {
	t.Helper()
	l, err := sharedLoader()
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkg, err := l.loadDir(filepath.Join("testdata", "src", dir))
	if err != nil {
		t.Fatalf("loadDir(%s): %v", dir, err)
	}
	return pkg
}

var wantRe = regexp.MustCompile("want `([^`]+)`")

// fixtureWants maps "file:line" to the message regexes expected there.
func fixtureWants(t *testing.T, pkg *Package) map[string][]string {
	t.Helper()
	wants := make(map[string][]string)
	seen := make(map[string]bool)
	for _, f := range pkg.Files {
		name := pkg.Fset.Position(f.Pos()).Filename
		if seen[name] {
			continue
		}
		seen[name] = true
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatalf("read fixture %s: %v", name, err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range wantRe.FindAllStringSubmatch(line, -1) {
				key := fmt.Sprintf("%s:%d", name, i+1)
				wants[key] = append(wants[key], m[1])
			}
		}
	}
	return wants
}

// runFixture analyzes testdata/src/<dir> with the named analyzer and
// checks the findings against the fixture's want comments.
func runFixture(t *testing.T, dir, analyzer string) {
	t.Helper()
	az := ByName(analyzer)
	if az == nil {
		t.Fatalf("no analyzer named %q", analyzer)
	}
	pkg := loadFixture(t, dir)
	wants := fixtureWants(t, pkg)
	findings := Run([]*Package{pkg}, []*Analyzer{az})

	unmatched := make(map[string][]string, len(wants))
	for k, v := range wants {
		unmatched[k] = append([]string(nil), v...)
	}
	for _, f := range findings {
		key := fmt.Sprintf("%s:%d", f.Pos.Filename, f.Pos.Line)
		rest := unmatched[key]
		hit := -1
		for i, pat := range rest {
			re, err := regexp.Compile(pat)
			if err != nil {
				t.Fatalf("%s: bad want regex %q: %v", key, pat, err)
			}
			if re.MatchString(f.Message) {
				hit = i
				break
			}
		}
		if hit < 0 {
			t.Errorf("unexpected finding: %s", f)
			continue
		}
		unmatched[key] = append(rest[:hit], rest[hit+1:]...)
	}
	for key, rest := range unmatched {
		for _, pat := range rest {
			t.Errorf("%s: expected a finding matching %q, got none", key, pat)
		}
	}
}

func TestWallclockFixture(t *testing.T)   { runFixture(t, "simmpi", "wallclock") }
func TestWallclockExempt(t *testing.T)    { runFixture(t, "server", "wallclock") }
func TestMaporderFixture(t *testing.T)    { runFixture(t, "maporder", "maporder") }
func TestErrdropFixture(t *testing.T)     { runFixture(t, "proto", "errdrop") }
func TestSuppressionFixture(t *testing.T) { runFixture(t, "suppress", "maporder") }

// TestSuppressionValidation checks that malformed directives, and a
// stale directive whose verb is not ignore, are themselves reported
// and do not suppress the underlying finding.
func TestSuppressionValidation(t *testing.T) {
	pkg := loadFixture(t, "suppressbad")
	findings := Run([]*Package{pkg}, []*Analyzer{ByName("maporder")})

	var gotMissingReason, gotUnknown, gotStale bool
	maporderCount := 0
	for _, f := range findings {
		switch f.Analyzer {
		case "harmonyvet":
			if strings.Contains(f.Message, "needs a written reason") {
				gotMissingReason = true
			}
			if strings.Contains(f.Message, "must name a known analyzer") {
				gotUnknown = true
			}
			if strings.Contains(f.Message, `unknown harmonyvet directive "allocfree"`) {
				gotStale = true
			}
		case "maporder":
			maporderCount++
		}
	}
	if !gotMissingReason {
		t.Errorf("missing-reason directive was not reported: %v", findings)
	}
	if !gotUnknown {
		t.Errorf("unknown-analyzer directive was not reported: %v", findings)
	}
	if !gotStale {
		t.Errorf("stale allocfree directive was not reported as unknown: %v", findings)
	}
	if maporderCount != 3 {
		t.Errorf("malformed directives must not suppress: want 3 maporder findings, got %d (%v)", maporderCount, findings)
	}
}

// TestAnalyzerInventory pins the analyzer set the CLI advertises.
func TestAnalyzerInventory(t *testing.T) {
	want := []string{"wallclock", "maporder", "errdrop"}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("All() returned %d analyzers, want %d", len(all), len(want))
	}
	for i, az := range all {
		if az.Name != want[i] {
			t.Errorf("All()[%d] = %q, want %q", i, az.Name, want[i])
		}
		if az.Doc == "" {
			t.Errorf("analyzer %s has no doc string", az.Name)
		}
	}
}

// TestLoadersShareStdlib checks that every Loader in the process
// imports the standard library through the one importer — type-checked
// once, the same *types.Package for each Loader — and that Loaders may
// import at once.
func TestLoadersShareStdlib(t *testing.T) {
	pkgs := make([]*types.Package, 2)
	var wg sync.WaitGroup
	for i := range pkgs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l, err := NewLoader(".")
			if err != nil {
				t.Error(err)
				return
			}
			if pkgs[i], err = l.importPkg("encoding/json"); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if pkgs[0] == nil || pkgs[0] != pkgs[1] {
		t.Errorf("two Loaders imported encoding/json as %p and %p, want one package", pkgs[0], pkgs[1])
	}
}
