package main

import (
	"bytes"
	"encoding/json"
	"go/parser"
	"go/token"
	"io/fs"
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
		{"internal/proto/proto.go", "protowire"},
		{"internal/proto/proto.go", "protowire"},
		{"internal/server/server.go", "maporder"},
		{"internal/simmpi/sched.go", "allocfree"},
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
		{"search", "randsource"},
		{"lockcheck", "lockcheck"},
		{"proto", "errdrop"},
		{"allocfree", "allocfree"},
		{"lockorder", "lockorder"},
		{"protowire", "protowire"},
		{"prunepurity", "prunepurity"},
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

// TestListFlag checks the analyzer inventory printout.
func TestListFlag(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("-list exit = %d, want 0 (stderr: %s)", code, errb.String())
	}
	for _, name := range []string{
		"wallclock", "maporder", "randsource", "lockcheck", "errdrop",
		"allocfree", "lockorder", "protowire", "prunepurity",
	} {
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

// TestOnlyExclude checks the -name exclusion syntax: the allocfree
// fixture is dirty, but only under allocfree, so excluding that one
// analyzer runs the other eight and exits clean.
func TestOnlyExclude(t *testing.T) {
	var out, errb bytes.Buffer
	pattern := "./internal/analysis/testdata/src/allocfree"
	if code := run([]string{"-C", "../..", "-only", "-allocfree", pattern}, &out, &errb); code != 0 {
		t.Fatalf("-only -allocfree exit = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
	out.Reset()
	errb.Reset()
	if code := run([]string{"-C", "../..", "-only", "-errdrop", pattern}, &out, &errb); code != 1 {
		t.Fatalf("-only -errdrop exit = %d, want 1 (allocfree still runs)\nstdout:\n%s", code, out.String())
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
	pattern := "./internal/analysis/testdata/src/lockorder"
	code := run([]string{"-C", "../..", "-json", "-only", "lockorder", pattern}, &out, &errb)
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
		if f.Analyzer != "lockorder" || f.Line <= 0 || !strings.HasSuffix(f.File, "fixture.go") {
			t.Errorf("malformed JSON finding: %+v", f)
		}
	}

	// A clean tree still yields a parseable (empty) array.
	out.Reset()
	errb.Reset()
	if code := run([]string{"-C", "../..", "-json", "-only", "errdrop", pattern}, &out, &errb); code != 0 {
		t.Fatalf("clean -json exit = %d, want 0", code)
	}
	findings = nil
	if err := json.Unmarshal(out.Bytes(), &findings); err != nil || len(findings) != 0 {
		t.Fatalf("clean -json output should be an empty array, got %q (err %v)", out.String(), err)
	}
}

// TestFactsFlag checks the interprocedural fact dump: the lockorder
// fixture's lockOther helper must carry the locks-shard fact.
func TestFactsFlag(t *testing.T) {
	var out, errb bytes.Buffer
	pattern := "./internal/analysis/testdata/src/lockorder"
	code := run([]string{"-C", "../..", "-facts", "-only", "lockorder", pattern}, &out, &errb)
	if code != 1 {
		t.Fatalf("-facts exit = %d, want 1\nstderr:\n%s", code, errb.String())
	}
	if !strings.Contains(out.String(), "lockorder.locks-shard") {
		t.Errorf("-facts dump lacks the locks-shard fact:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "lockorder.unsafe") {
		t.Errorf("-facts dump lacks the unsafe fact:\n%s", out.String())
	}
}
