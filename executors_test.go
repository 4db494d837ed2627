package harmony_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"maps"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestValuedRunsHaveOneCaller pins what DESIGN.md § Two executors
// states: no option selects the simmpi coroutine executor or the
// numeric SLES run. Outside tests and bench/, only the SNES cavity
// application, whose solve depends on values, calls simmpi.Run, and
// nothing calls the numeric CG solve (ksp.CG), which only
// the SLES skeleton's differential test runs. A new caller fails here
// until the documents and this list say why it needs values.
func TestValuedRunsHaveOneCaller(t *testing.T) {
	valued := map[string]bool{"simmpi.Run": true, "ksp.CG": true}
	callers := map[string]bool{}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == "testdata" || p == "bench" || strings.HasPrefix(d.Name(), ".") && p != ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
					if pkg, ok := sel.X.(*ast.Ident); ok && valued[pkg.Name+"."+sel.Sel.Name] {
						callers[filepath.ToSlash(p)+": "+pkg.Name+"."+sel.Sel.Name] = true
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"internal/petscsim/cavity.go: simmpi.Run"}
	if got := slices.Sorted(maps.Keys(callers)); !slices.Equal(got, want) {
		t.Errorf("callers of a valued run outside tests and bench/: %q, want %q", got, want)
	}
}
