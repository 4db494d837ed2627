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
	"strconv"
	"strings"
	"testing"
)

// TestDocsNameWhatExists fails when README.md or DESIGN.md names, in
// backticks, a repository path that is not there, a pkg.Name that
// internal/pkg does not declare, or a command line that does not run:
// the two documents describe the system as it is, so a rename or
// deletion that forgets them breaks tier-1.
//
// A command line is a span whose first word is a command under cmd/
// (`repro`, `cmd/repro`, …). Each of its -flag tokens must be a flag
// that command's main package registers, and must come before the
// first positional argument: every command parses with the stdlib flag
// package, which stops there, so `repro fig2 -large` exits with usage.
// A bare `-flag` span could belong to any command and is not checked.
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

	// The flags each command registers, by name, true when the flag is
	// boolean (it takes no separate value): the first string literal
	// of every flag.X / fs.XVar definition call in the main package.
	flagDef := regexp.MustCompile(`^(?:Bool|Int|Int64|Uint|Uint64|Float64|String|Duration)(?:Var)?$`)
	flags := map[string]map[string]bool{}
	cmds, err := os.ReadDir("cmd")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range cmds {
		if !d.IsDir() {
			continue
		}
		notTest := func(fi fs.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }
		pkgs, err := parser.ParseDir(token.NewFileSet(), filepath.Join("cmd", d.Name()), notTest, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		names := map[string]bool{}
		for _, pkg := range pkgs {
			for _, f := range pkg.Files {
				ast.Inspect(f, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					sel, ok := call.Fun.(*ast.SelectorExpr)
					if !ok || !flagDef.MatchString(sel.Sel.Name) {
						return true
					}
					for _, arg := range call.Args {
						if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING {
							name, err := strconv.Unquote(lit.Value)
							if err == nil {
								names[name] = strings.HasPrefix(sel.Sel.Name, "Bool")
							}
							break
						}
					}
					return true
				})
			}
		}
		flags[d.Name()] = names
	}
	flagToken := regexp.MustCompile(`^--?[A-Za-z][\w-]*(?:=.*)?$`)
	checkCommandLine := func(doc, s string) {
		words := strings.Fields(s)
		cmd := strings.TrimPrefix(words[0], "cmd/")
		registered, ok := flags[cmd]
		if !ok {
			return
		}
		lookup := func(tok string) (isBool, inline bool) {
			name, _, inline := strings.Cut(strings.TrimLeft(tok, "-"), "=")
			isBool, ok := registered[name]
			if !ok {
				t.Errorf("%s names `%s`: %s registers no flag -%s", doc, s, cmd, name)
				return true, inline // reported; take no value, so the rest is still read
			}
			return isBool, inline
		}
		args := words[1:]
		for len(args) > 0 && flagToken.MatchString(args[0]) {
			isBool, inline := lookup(args[0])
			args = args[1:]
			if !isBool && !inline && len(args) > 0 {
				args = args[1:] // the flag's value
			}
		}
		for _, a := range args {
			if flagToken.MatchString(a) {
				lookup(a)
				t.Errorf("%s names `%s`: %s is after %s's first argument %q, where flag parsing stops", doc, s, a, cmd, args[0])
			}
		}
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
			if s == "" {
				continue
			}
			checkCommandLine(doc, s)
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
