// Package analysis implements harmonyvet: a repo-specific static
// analysis suite built purely on the standard library's go/ast,
// go/parser, go/types, and go/importer.
//
// The analyzers encode invariants the compiler cannot see but the
// reproduction depends on: virtual-time packages must never read the
// wall clock, float accumulation and message schedules must not
// depend on Go's randomised map iteration order, and errors on the
// protocol's encode/decode/connection paths must not be silently
// dropped. Three analyzers enforce them, each within one package; see
// DESIGN.md ("Static analysis") for the rationale of each analyzer and
// the suppression syntax.
package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
)

// Package is one parsed and type-checked package of the module.
type Package struct {
	// Path is the import path ("harmony/internal/simmpi").
	Path string
	// Fset is the process's one file set (positions).
	Fset *token.FileSet
	// Files holds the parsed non-test sources, sorted by file name.
	Files []*ast.File
	// Types and Info carry the type-checker's results.
	Types *types.Package
	Info  *types.Info
}

// Loader loads and type-checks packages of one module from source.
// Module-internal imports are resolved by parsing the imported
// directory; everything else (the standard library) goes through the
// process's stdlib source importer.
type Loader struct {
	root   string              // module root directory (holds go.mod)
	module string              // module path from go.mod
	pkgs   map[string]*Package // memoised module packages by import path
}

// Every Loader of the process parses into fileSet and imports the
// standard library through stdImporter, which memoises what it
// type-checks: the standard library is checked once per process, not
// once per Loader. stdMu serialises stdImporter, which is not safe for
// concurrent use.
var (
	fileSet     = token.NewFileSet()
	stdImporter = importer.ForCompiler(fileSet, "source", nil)
	stdMu       sync.Mutex
)

func init() {
	// The stdlib source importer resolves files through go/build's
	// default context. Disable cgo so packages like net select their
	// pure-Go variants; type-checking cgo-processed sources would need
	// a C toolchain the analysis must not depend on.
	build.Default.CgoEnabled = false
}

var moduleRe = regexp.MustCompile(`(?m)^module\s+(\S+)`)

// NewLoader creates a loader for the module rooted at or above dir.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root := abs
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("analysis: no go.mod at or above %s", abs)
		}
		root = parent
	}
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	m := moduleRe.FindSubmatch(data)
	if m == nil {
		return nil, fmt.Errorf("analysis: no module directive in %s/go.mod", root)
	}
	return &Loader{
		root:   root,
		module: string(m[1]),
		pkgs:   make(map[string]*Package),
	}, nil
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// importPkg resolves an import path during type-checking: module
// packages load from source in the module tree, the rest delegates to
// the stdlib source importer.
func (l *Loader) importPkg(path string) (*types.Package, error) {
	if path == l.module || strings.HasPrefix(path, l.module+"/") {
		pkg, err := l.loadPath(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	stdMu.Lock()
	defer stdMu.Unlock()
	return stdImporter.Import(path)
}

// loadPath loads (memoised) the module package with the given import
// path.
func (l *Loader) loadPath(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.module), "/")
	pkg, err := l.loadDir(filepath.Join(l.root, filepath.FromSlash(rel)))
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = pkg
	return pkg, nil
}

// loadDir parses and type-checks the non-test Go files of one
// directory. The package's import path is derived from its location
// in the module tree, so fixture packages under testdata get paths
// like "harmony/internal/analysis/testdata/src/simmpi" — analyzers
// that select packages by final path element apply to them exactly as
// they would to the real package.
func (l *Loader) loadDir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(l.root, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return nil, fmt.Errorf("analysis: %s is outside module root %s", dir, l.root)
	}
	path := l.module
	if rel != "." {
		path = l.module + "/" + filepath.ToSlash(rel)
	}
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}

	entries, err := os.ReadDir(abs)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		names = append(names, name)
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", abs)
	}
	sort.Strings(names)

	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(fileSet, filepath.Join(abs, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}

	var typeErrs []error
	conf := types.Config{
		Importer: importerFunc(l.importPkg),
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	tpkg, _ := conf.Check(path, fileSet, files, info)
	if len(typeErrs) > 0 {
		msgs := make([]string, 0, len(typeErrs))
		for _, e := range typeErrs {
			msgs = append(msgs, e.Error())
		}
		return nil, fmt.Errorf("analysis: type errors in %s:\n  %s", path, strings.Join(msgs, "\n  "))
	}
	pkg := &Package{Path: path, Fset: fileSet, Files: files, Types: tpkg, Info: info}
	l.pkgs[path] = pkg
	return pkg, nil
}

// Load expands the given patterns into packages. A pattern is either
// a directory path (absolute or relative to the module root, "./x"
// style accepted) or "dir/..." which walks dir recursively, skipping
// testdata, hidden directories, and directories without Go files.
// The default pattern "./..." loads the whole module.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	var dirs []string
	seen := make(map[string]bool)
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		recursive := false
		if pat == "..." {
			pat = "./..."
		}
		if strings.HasSuffix(pat, "/...") {
			recursive = true
			pat = strings.TrimSuffix(pat, "/...")
		}
		if !filepath.IsAbs(pat) {
			pat = filepath.Join(l.root, pat)
		}
		if !recursive {
			add(pat)
			continue
		}
		err := filepath.WalkDir(pat, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				name := d.Name()
				if p != pat && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
					return filepath.SkipDir
				}
				return nil
			}
			if strings.HasSuffix(p, ".go") && !strings.HasSuffix(p, "_test.go") {
				add(filepath.Dir(p))
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	pkgs := make([]*Package, 0, len(dirs))
	for _, dir := range dirs {
		pkg, err := l.loadDir(dir)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}
