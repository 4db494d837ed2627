package main

import (
	"bytes"
	"encoding/json"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// TestSelfHostClean is the smoke test the CI gate relies on: the
// final tree must produce zero findings, so a vet regression shows up
// as a test failure too.
func TestSelfHostClean(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-C", "../..", "./..."}, &out, &errb)
	if code != 0 {
		t.Fatalf("harmonyvet ./... exit = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
	if out.Len() != 0 {
		t.Errorf("expected no findings on a clean tree, got:\n%s", out.String())
	}
}

// TestSuppressionInventory pins every //harmonyvet:ignore in shipped
// code (non-test, non-fixture Go files) as (file, analyzer): a new
// suppression fails here until someone edits this list, and with it
// the count DESIGN.md and ROADMAP.md quote.
func TestSuppressionInventory(t *testing.T) {
	want := [][2]string{
		{"internal/server/server.go", "maporder"},
	}
	var got [][2]string
	root := filepath.Join("..", "..")
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				// A directive is a comment of its own; the docs quote
				// the form inside ordinary comments.
				if rest, ok := strings.CutPrefix(c.Text, "//harmonyvet:ignore "); ok {
					got = append(got, [2]string{filepath.ToSlash(rel), strings.Fields(rest)[0]})
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("harmonyvet:ignore sites in shipped code:\n got %v\nwant %v", got, want)
	}
}

// TestFixturesFail drives the CLI at each analyzer's positive fixture
// package and checks the exit code and the file:line-tagged output.
func TestFixturesFail(t *testing.T) {
	cases := []struct {
		dir      string
		analyzer string
	}{
		{"simmpi", "wallclock"},
		{"maporder", "maporder"},
		{"proto", "errdrop"},
	}
	for _, tc := range cases {
		t.Run(tc.dir, func(t *testing.T) {
			var out, errb bytes.Buffer
			pattern := "./internal/analysis/testdata/src/" + tc.dir
			code := run([]string{"-C", "../..", pattern}, &out, &errb)
			if code != 1 {
				t.Fatalf("exit = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
			}
			lineRe := regexp.MustCompile(`fixture\.go:\d+: \[` + tc.analyzer + `\] `)
			if !lineRe.MatchString(out.String()) {
				t.Errorf("output lacks a file:line [%s] finding:\n%s", tc.analyzer, out.String())
			}
		})
	}
}

// TestFindingsOnlyInNamedPackages pins the scope of a run: the
// importer fixture is clean and calls into two fixtures with findings,
// maporder and proto, which the loader parses and type-checks to check
// the importer. Named alone it reports nothing; named with maporder it
// reports maporder's findings and no others.
func TestFindingsOnlyInNamedPackages(t *testing.T) {
	var out, errb bytes.Buffer
	importer := "./internal/analysis/testdata/src/importer"
	if code := run([]string{"-C", "../..", importer}, &out, &errb); code != 0 || out.Len() != 0 {
		t.Fatalf("exit = %d, want 0 with no findings\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
	code := run([]string{"-C", "../..", importer, "./internal/analysis/testdata/src/maporder"}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		if !strings.Contains(line, "testdata/src/maporder/fixture.go:") {
			t.Errorf("finding outside the named packages: %s", line)
		}
	}
}

// TestListFlag checks the analyzer inventory printout.
func TestListFlag(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("-list exit = %d, want 0 (stderr: %s)", code, errb.String())
	}
	for _, name := range []string{"wallclock", "maporder", "errdrop"} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list output missing %q:\n%s", name, out.String())
		}
	}
}

// TestOnlyFlag restricts the run to one analyzer: the wallclock
// fixture is dirty under wallclock but clean under errdrop.
func TestOnlyFlag(t *testing.T) {
	var out, errb bytes.Buffer
	pattern := "./internal/analysis/testdata/src/simmpi"
	if code := run([]string{"-C", "../..", "-only", "errdrop", pattern}, &out, &errb); code != 0 {
		t.Fatalf("-only errdrop exit = %d, want 0\nstdout:\n%s", code, out.String())
	}
	out.Reset()
	errb.Reset()
	if code := run([]string{"-C", "../..", "-only", "wallclock", pattern}, &out, &errb); code != 1 {
		t.Fatalf("-only wallclock exit = %d, want 1\nstdout:\n%s", code, out.String())
	}
}

// TestOnlyExclude checks the -name exclusion syntax: the proto
// fixture is dirty, but only under errdrop, so excluding that one
// analyzer runs the other two and exits clean.
func TestOnlyExclude(t *testing.T) {
	var out, errb bytes.Buffer
	pattern := "./internal/analysis/testdata/src/proto"
	if code := run([]string{"-C", "../..", "-only", "-errdrop", pattern}, &out, &errb); code != 0 {
		t.Fatalf("-only -errdrop exit = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
	out.Reset()
	errb.Reset()
	if code := run([]string{"-C", "../..", "-only", "-maporder", pattern}, &out, &errb); code != 1 {
		t.Fatalf("-only -maporder exit = %d, want 1 (errdrop still runs)\nstdout:\n%s", code, out.String())
	}
	out.Reset()
	errb.Reset()
	if code := run([]string{"-C", "../..", "-only", "-nosuch", pattern}, &out, &errb); code != 2 {
		t.Fatalf("-only -nosuch exit = %d, want 2", code)
	}
}

// TestJSONFlag checks the machine-readable findings format the CI
// artifact is built from.
func TestJSONFlag(t *testing.T) {
	var out, errb bytes.Buffer
	pattern := "./internal/analysis/testdata/src/proto"
	code := run([]string{"-C", "../..", "-json", "-only", "errdrop", pattern}, &out, &errb)
	if code != 1 {
		t.Fatalf("-json exit = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
	var findings []struct {
		File     string `json:"file"`
		Line     int    `json:"line"`
		Analyzer string `json:"analyzer"`
		Message  string `json:"message"`
	}
	if err := json.Unmarshal(out.Bytes(), &findings); err != nil {
		t.Fatalf("-json output is not a JSON array: %v\n%s", err, out.String())
	}
	if len(findings) == 0 {
		t.Fatal("-json produced an empty findings array for a dirty fixture")
	}
	for _, f := range findings {
		if f.Analyzer != "errdrop" || f.Line <= 0 || !strings.HasSuffix(f.File, "fixture.go") {
			t.Errorf("malformed JSON finding: %+v", f)
		}
	}

	// A clean tree still yields a parseable (empty) array.
	out.Reset()
	errb.Reset()
	if code := run([]string{"-C", "../..", "-json", "-only", "maporder", pattern}, &out, &errb); code != 0 {
		t.Fatalf("clean -json exit = %d, want 0", code)
	}
	findings = nil
	if err := json.Unmarshal(out.Bytes(), &findings); err != nil || len(findings) != 0 {
		t.Fatalf("clean -json output should be an empty array, got %q (err %v)", out.String(), err)
	}
}

// seededDefects are small, plausible regressions planted in the
// module's real code: one per analyzer, three for maporder (a float
// sum, a selection, an early return). Each replaces old, which must
// occur exactly once in file, with new; the analyzer must then report
// on the line of the copy that contains at.
var seededDefects = []struct {
	analyzer, file, old, new, at string
}{
	// A start-up timestamp in a virtual-time package.
	{"wallclock", "internal/simmpi/lockstep.go",
		"\t\"sync\"\n\n\t\"harmony/internal/cluster\"\n)\n",
		"\t\"sync\"\n\t\"time\"\n\n\t\"harmony/internal/cluster\"\n)\n\nvar loadedAt = time.Now()\n",
		"var loadedAt = time.Now()"},
	// The campaign-wide mean re-derived from the per-level sums, in map
	// order: Spread's last bits change run to run.
	{"maporder", "internal/core/sensitivity.go",
		"\t\ttotal += tr.Value\n\t\tn++\n\t\tfor d := 0; d < dims; d++ {\n\t\t\tlvl := tr.Point[d]\n\t\t\taccs[d].sum[lvl] += tr.Value\n\t\t\taccs[d].count[lvl]++\n\t\t}\n\t}\n",
		"\t\tn++\n\t\tfor d := 0; d < dims; d++ {\n\t\t\tlvl := tr.Point[d]\n\t\t\taccs[d].sum[lvl] += tr.Value\n\t\t\taccs[d].count[lvl]++\n\t\t}\n\t}\n\tfor _, s := range accs[0].sum {\n\t\ttotal += s\n\t}\n",
		"for _, s := range accs[0].sum {"},
	// The lowest-mean level picked in map order: a tie goes to whichever
	// level the map yields first.
	{"maporder", "internal/core/sensitivity.go",
		"\t\t\tfor _, lvl := range lvls {\n\t\t\t\tm := accs[d].sum[lvl] / float64(accs[d].count[lvl])\n",
		"\t\t\tfor lvl, c := range accs[d].count {\n\t\t\t\tm := accs[d].sum[lvl] / float64(c)\n",
		"for lvl, c := range accs[d].count {"},
	// The unknown parameter reported is the first the map yields.
	{"maporder", "internal/pop/namelist.go",
		"\t\t\t\tunknown = append(unknown, k)\n",
		"\t\t\t\treturn nil, fmt.Errorf(\"pop: unknown namelist parameter %q\", k)\n",
		"for k := range values {"},
	// A reconnect that drops the old connection's close error.
	{"errdrop", "internal/client/client.go",
		"\t\t_ = c.conn.Close()\n",
		"\t\tc.conn.Close()\n",
		"\t\tc.conn.Close()\n"},
}

// TestSeededDefects plants seededDefects in a copy of the module's
// non-test sources, vets the copy once, and checks that every analyzer
// reports at its planted line: a golden that cannot fail pins nothing.
func TestSeededDefects(t *testing.T) {
	root := filepath.Join("..", "..")
	dst := t.TempDir()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			if rel != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		if rel != "go.mod" && (!strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go")) {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}

	for _, sd := range seededDefects {
		path := filepath.Join(dst, filepath.FromSlash(sd.file))
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if n := strings.Count(string(data), sd.old); n != 1 {
			t.Fatalf("%s seed: %q occurs %d times in %s, want once", sd.analyzer, sd.old, n, sd.file)
		}
		data = []byte(strings.Replace(string(data), sd.old, sd.new, 1))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	var out, errb bytes.Buffer
	if code := run([]string{"-C", dst, "-json", "./..."}, &out, &errb); code != 1 {
		t.Fatalf("harmonyvet on the seeded copy: exit = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
	var findings []struct {
		File     string `json:"file"`
		Line     int    `json:"line"`
		Analyzer string `json:"analyzer"`
	}
	if err := json.Unmarshal(out.Bytes(), &findings); err != nil {
		t.Fatalf("-json output: %v\n%s", err, out.String())
	}
	for _, sd := range seededDefects {
		path := filepath.Join(dst, filepath.FromSlash(sd.file))
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if n := strings.Count(string(data), sd.at); n != 1 {
			t.Fatalf("%s seed: %q occurs %d times in the seeded %s, want once", sd.analyzer, sd.at, n, sd.file)
		}
		line := 1 + strings.Count(string(data[:strings.Index(string(data), sd.at)]), "\n")
		found := false
		for _, f := range findings {
			found = found || (f.File == path && f.Line == line && f.Analyzer == sd.analyzer)
		}
		if !found {
			t.Errorf("[%s] reports nothing at %s:%d, the seeded line\nfindings:\n%s", sd.analyzer, sd.file, line, out.String())
		}
	}
}
