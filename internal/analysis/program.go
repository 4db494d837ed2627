package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file holds the interprocedural layer added for the allocfree,
// lockorder, and prunepurity analyzers: a whole-program view with a
// function index, directive parsing, a static call-graph builder, and
// a cross-package fact store. The per-package Pass API is untouched;
// analyzers that need cross-package reasoning set RunProgram instead
// of Run and receive a ProgramPass.

// Function-level directives. Unlike //harmonyvet:ignore (which
// suppresses one finding on one line), these change how the
// interprocedural analyzers treat the annotated function as a whole.
const (
	// dirAllocfree marks a function whose execution — including every
	// module function it transitively calls — must not allocate.
	// Enforced by the allocfree analyzer.
	dirAllocfree = "allocfree"
	// dirAllocamortized excuses the function's own allocation sites
	// (grow-on-demand buffers, pooled free lists, first-use setup) from
	// allocfree enforcement. Callees are still checked. The written
	// reason is mandatory.
	dirAllocamortized = "allocamortized"
	// dirColdpath marks a function as a death/error path (deadlock
	// reports, panic formatting) that allocfree does not descend into.
	// The written reason is mandatory.
	dirColdpath = "coldpath"
)

// funcDirectives are the verbs accepted on function declarations.
var funcDirectives = map[string]bool{
	dirAllocfree:      true,
	dirAllocamortized: true,
	dirColdpath:       true,
}

// FuncInfo is one function declaration of the program: its object,
// syntax, owning package, and parsed harmonyvet directives.
type FuncInfo struct {
	Fn         *types.Func
	Decl       *ast.FuncDecl
	Pkg        *Package
	Directives map[string]string // verb -> reason ("" for allocfree)

	callees []*types.Func // memoised static callees, in source order
	built   bool
}

// Directive reports whether the function carries the verb.
func (fi *FuncInfo) Directive(verb string) bool {
	_, ok := fi.Directives[verb]
	return ok
}

// Program is the cross-package view handed to RunProgram analyzers:
// the packages named by the run's patterns, every further module
// package the loader pulled in as a dependency, a function index with
// parsed directives, and the shared fact store.
type Program struct {
	// Pkgs are the pattern packages — the set the user asked to vet.
	// Program analyzers report findings rooted in these (descent may
	// surface a finding in a dependency, attributed to the root).
	Pkgs []*Package
	// Fset is the shared file set.
	Fset *token.FileSet

	all   map[string]*Package // every known module package by path
	funcs map[*types.Func]*FuncInfo
	facts *FactStore
}

// buildProgram indexes the pattern packages plus every module package
// their loaders have cached (dependencies were loaded from source to
// type-check the patterns, so their syntax is already in memory).
func buildProgram(pkgs []*Package) *Program {
	prog := &Program{
		Pkgs:  pkgs,
		all:   make(map[string]*Package),
		funcs: make(map[*types.Func]*FuncInfo),
		facts: NewFactStore(),
	}
	for _, pkg := range pkgs {
		if prog.Fset == nil {
			prog.Fset = pkg.Fset
		}
		prog.all[pkg.Path] = pkg
		if pkg.loader != nil {
			for _, dep := range pkg.loader.Cached() {
				if _, ok := prog.all[dep.Path]; !ok {
					prog.all[dep.Path] = dep
				}
			}
		}
	}
	for _, pkg := range prog.allPackages() {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Name == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				prog.funcs[obj] = &FuncInfo{
					Fn:         obj,
					Decl:       fd,
					Pkg:        pkg,
					Directives: parseFuncDirectives(fd),
				}
			}
		}
	}
	return prog
}

// allPackages returns every indexed package, sorted by import path
// for deterministic iteration.
func (prog *Program) allPackages() []*Package {
	paths := make([]string, 0, len(prog.all))
	for path := range prog.all {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	out := make([]*Package, 0, len(paths))
	for _, path := range paths {
		out = append(out, prog.all[path])
	}
	return out
}

// FuncOf returns the declaration info of a function object, or nil
// when the function has no source in the program (stdlib, interface
// methods, func-typed values).
func (prog *Program) FuncOf(fn *types.Func) *FuncInfo {
	return prog.funcs[fn]
}

// Facts returns the program's shared fact store.
func (prog *Program) Facts() *FactStore { return prog.facts }

// parseFuncDirectives extracts function-level harmonyvet verbs from a
// declaration's doc comment. Reason validation happens during
// suppression collection (collectSuppressions), which sees every
// comment; here a missing reason simply parses as an empty string.
func parseFuncDirectives(fd *ast.FuncDecl) map[string]string {
	if fd.Doc == nil {
		return nil
	}
	var dirs map[string]string
	for _, c := range fd.Doc.List {
		verb, rest, ok := parseDirective(c.Text)
		if !ok || !funcDirectives[verb] {
			continue
		}
		if dirs == nil {
			dirs = make(map[string]string)
		}
		dirs[verb] = rest
	}
	return dirs
}

// parseDirective splits a comment of the form "//harmonyvet:<verb>
// <rest>" into its verb and trailing text.
func parseDirective(comment string) (verb, rest string, ok bool) {
	text := strings.TrimPrefix(comment, "//")
	text = strings.TrimPrefix(text, "/*")
	text = strings.TrimSpace(strings.TrimSuffix(text, "*/"))
	if !strings.HasPrefix(text, "harmonyvet:") {
		return "", "", false
	}
	text = strings.TrimPrefix(text, "harmonyvet:")
	verb, rest, _ = strings.Cut(text, " ")
	return verb, strings.TrimSpace(rest), true
}

// Callees returns the static callees of a function in source order:
// every call whose callee resolves through Info.Uses to a concrete
// *types.Func (package functions, methods on concrete receivers).
// Calls through func values and interface methods are dynamic and do
// not appear; analyzers that care inspect the syntax themselves.
func (prog *Program) Callees(fi *FuncInfo) []*types.Func {
	if fi.built {
		return fi.callees
	}
	fi.built = true
	if fi.Decl.Body == nil {
		return nil
	}
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn := StaticCallee(fi.Pkg, call); fn != nil {
			fi.callees = append(fi.callees, fn)
		}
		return true
	})
	return fi.callees
}

// StaticCallee resolves a call expression to its concrete callee, or
// nil for dynamic calls (func values, interface methods) and builtins.
func StaticCallee(pkg *Package, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		// An interface method resolves to a *types.Func too; reject it
		// so only concrete targets count as static.
		if sel, ok := pkg.Info.Selections[fun]; ok && sel.Kind() == types.MethodVal {
			if types.IsInterface(sel.Recv()) {
				return nil
			}
		}
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := pkg.Info.Uses[id].(*types.Func)
	if fn != nil {
		// A method of an instantiated generic type resolves to its
		// declaration, which is what carries the body and the facts.
		fn = fn.Origin()
	}
	return fn
}

// ProgramPass carries one (analyzer, program) run.
type ProgramPass struct {
	Analyzer *Analyzer
	Prog     *Program
	findings []Finding
}

// Reportf records a finding at pos.
func (pp *ProgramPass) Reportf(pos token.Pos, format string, args ...any) {
	pp.findings = append(pp.findings, Finding{
		Pos:      pp.Prog.Fset.Position(pos),
		Analyzer: pp.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Packages returns the pattern packages the analyzer applies to —
// the roots a program analyzer scans (descent beyond them is the
// analyzer's own business).
func (pp *ProgramPass) Packages() []*Package {
	var out []*Package
	for _, pkg := range pp.Prog.Pkgs {
		if pp.Analyzer.Applies == nil || pp.Analyzer.Applies(pkg.Path) {
			out = append(out, pkg)
		}
	}
	return out
}

// FactPackages returns every indexed package the analyzer applies to,
// pattern or dependency — the set fact computation runs over, so
// cross-package facts (a taint summary in internal/core consumed from
// internal/server) exist even when only one of the packages is being
// reported on.
func (pp *ProgramPass) FactPackages() []*Package {
	var out []*Package
	for _, pkg := range pp.Prog.allPackages() {
		if pp.Analyzer.Applies == nil || pp.Analyzer.Applies(pkg.Path) {
			out = append(out, pkg)
		}
	}
	return out
}

// funcsIn returns the program's function infos declared in pkg, in
// source order.
func (prog *Program) funcsIn(pkg *Package) []*FuncInfo {
	var fns []*types.Func
	for fn := range prog.funcs {
		if prog.funcs[fn].Pkg == pkg {
			fns = append(fns, fn)
		}
	}
	sort.Slice(fns, func(i, j int) bool {
		return prog.funcs[fns[i]].Decl.Pos() < prog.funcs[fns[j]].Decl.Pos()
	})
	out := make([]*FuncInfo, 0, len(fns))
	for _, fn := range fns {
		out = append(out, prog.funcs[fn])
	}
	return out
}
