package harmony_test

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocsNameWhatExists fails when README.md or DESIGN.md names, in
// backticks, a repository path that is not there or a pkg.Name that
// internal/pkg does not declare: the two documents describe the system
// as it is, so a rename or deletion that forgets them breaks tier-1.
//
// EXPERIMENTS.md and CHANGES.md are historical by design (they name
// what existed when each entry was written) and bench/README.md is
// frozen with the benchmark; none of them is checked.
func TestDocsNameWhatExists(t *testing.T) {
	// Every file and directory of the tree, by slash path and by base
	// name: documents name files both ways (`internal/core/window.go`,
	// `server/window.go`, `window.go`).
	paths, bases := map[string]bool{}, map[string]bool{}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != "." {
			return filepath.SkipDir
		}
		paths[filepath.ToSlash(p)] = true
		bases[d.Name()] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	pathExists := func(p string) bool {
		p = strings.TrimSuffix(p, "/")
		if !strings.Contains(p, "/") {
			return bases[p]
		}
		return paths[p] || paths["internal/"+p] || paths["cmd/"+p]
	}

	// What each internal package declares at top level, test files
	// included (documents cite tests as evidence).
	declared := map[string]map[string]bool{}
	dirs, err := os.ReadDir("internal")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		if !d.IsDir() {
			continue
		}
		pkgs, err := parser.ParseDir(token.NewFileSet(), filepath.Join("internal", d.Name()), nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		names := map[string]bool{}
		for _, pkg := range pkgs {
			for _, f := range pkg.Files {
				for _, decl := range f.Decls {
					switch decl := decl.(type) {
					case *ast.FuncDecl:
						if decl.Recv == nil {
							names[decl.Name.Name] = true
						}
					case *ast.GenDecl:
						for _, spec := range decl.Specs {
							switch spec := spec.(type) {
							case *ast.TypeSpec:
								names[spec.Name.Name] = true
							case *ast.ValueSpec:
								for _, n := range spec.Names {
									names[n.Name] = true
								}
							}
						}
					}
				}
			}
		}
		declared[d.Name()] = names
	}

	// The benchmark's per-layer metrics are written `layer.metric`
	// with package names as layers; they are names too, declared in
	// BENCHMARK.json.
	var bench struct {
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	metrics := map[string]bool{}
	for _, m := range bench.PerLayer {
		metrics[m.Name] = true
	}

	var (
		fence    = regexp.MustCompile("(?s)```.*?```")
		span     = regexp.MustCompile("`([^`]+)`")
		repoPath = regexp.MustCompile(`^(?:(?:internal|cmd|examples)/[\w./-]*|[\w./-]+\.(?:go|md))$`)
		pkgName  = regexp.MustCompile(`(?:^|[^\w./])([a-z][a-z0-9]*)\.([A-Za-z_]\w*)`)
	)
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range span.FindAllStringSubmatch(fence.ReplaceAllString(string(text), ""), -1) {
			s := strings.Join(strings.Fields(m[1]), " ") // a span may wrap
			if repoPath.MatchString(s) {
				if !strings.Contains(s, "...") && !pathExists(s) {
					t.Errorf("%s names `%s`, which is not in the repository", doc, s)
				}
				continue
			}
			for _, ref := range pkgName.FindAllStringSubmatch(s, -1) {
				pkg, name := ref[1], ref[2]
				if names, ok := declared[pkg]; ok && !names[name] && !metrics[pkg+"."+name] {
					t.Errorf("%s names `%s`: internal/%s declares no %s", doc, s, pkg, name)
				}
			}
		}
	}
}
