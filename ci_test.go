package harmony_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestAllocationPinsRunInCI fails when an allocation pin would never
// run. A pin skips under the race detector, and every CI step but one
// runs with -race, so CI's "Allocation pins" step runs the pins by name
// from a regex and a package list. A test is a pin when it skips on
// raceEnabled and measures allocations with testing.AllocsPerRun or
// runtime.ReadMemStats, directly or through a helper of its own
// package. Every pin must be named in the regex and its package in the
// list, and every name in the regex must be a test.
func TestAllocationPinsRunInCI(t *testing.T) {
	data, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	ci := string(data)
	m := regexp.MustCompile(`pins='\^\(([A-Za-z0-9_|]+)\)\$'`).FindStringSubmatch(ci)
	if m == nil {
		t.Fatal(`ci.yml has no pins='^(...)$' line`)
	}
	pinned := strings.Split(m[1], "|")
	m = regexp.MustCompile(`(?s)-run "\$pins" (.*?) 2>&1`).FindStringSubmatch(ci)
	if m == nil {
		t.Fatal(`ci.yml runs no go test -run "$pins"`)
	}
	pkgs := strings.Fields(strings.ReplaceAll(m[1], "\\\n", " "))

	type pkgKey struct{ dir, name string }
	type fn struct {
		key      pkgKey
		test     bool
		calls    []string
		race     bool // mentions raceEnabled
		measures bool // calls testing.AllocsPerRun or runtime.ReadMemStats
	}
	funcs := map[pkgKey]map[string]*fn{}
	fset := token.NewFileSet()
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		key := pkgKey{"./" + filepath.ToSlash(filepath.Dir(path)), file.Name.Name}
		if key.dir == "./." {
			key.dir = "."
		}
		if funcs[key] == nil {
			funcs[key] = map[string]*fn{}
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv != nil || fd.Body == nil {
				continue
			}
			f := &fn{key: key, test: strings.HasPrefix(fd.Name.Name, "Test")}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.Ident:
					f.race = f.race || n.Name == "raceEnabled"
				case *ast.CallExpr:
					switch fun := n.Fun.(type) {
					case *ast.Ident:
						f.calls = append(f.calls, fun.Name)
					case *ast.SelectorExpr:
						if x, ok := fun.X.(*ast.Ident); ok {
							name := x.Name + "." + fun.Sel.Name
							f.measures = f.measures || name == "testing.AllocsPerRun" || name == "runtime.ReadMemStats"
						}
					}
				}
				return true
			})
			funcs[key][fd.Name.Name] = f
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// A function skips or measures when a same-package function it
	// calls does.
	for changed := true; changed; {
		changed = false
		for _, byName := range funcs {
			for _, f := range byName {
				for _, c := range f.calls {
					if g := byName[c]; g != nil && (g.race && !f.race || g.measures && !f.measures) {
						f.race, f.measures, changed = f.race || g.race, f.measures || g.measures, true
					}
				}
			}
		}
	}
	tests := map[string]bool{}
	for _, byName := range funcs {
		for name, f := range byName {
			if !f.test {
				continue
			}
			tests[name] = true
			if !f.race || !f.measures {
				continue
			}
			if !slices.Contains(pinned, name) {
				t.Errorf("%s (%s) is an allocation pin that ci.yml's pins regex does not name", name, f.key.dir)
			}
			if !slices.Contains(pkgs, f.key.dir) {
				t.Errorf("%s is an allocation pin in %s, a package ci.yml's pins step does not test", name, f.key.dir)
			}
		}
	}
	for _, name := range pinned {
		if !tests[name] {
			t.Errorf("ci.yml pins %s, which is not a test", name)
		}
	}
}
