package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// allocfreeAnalyzer proves the zero-alloc hot paths stay zero-alloc.
// A function annotated
//
//	//harmonyvet:allocfree
//
// must be transitively free of heap allocation: no make/new, no slice
// or map literals, no &composite escaping, no growing append, no
// interface boxing, no closure captures, no string↔[]byte
// conversions, no goroutine launches, and no calls the analyzer
// cannot see into (func values, interface methods, stdlib outside a
// small pure allowlist). The check descends into every module callee
// with source, so an allocation introduced three calls deep in a
// refactor is caught at its site, attributed to the annotated root.
//
// Two escape hatches, both demanding a written reason:
//
//	//harmonyvet:allocamortized <reason>  — the function's own sites
//	    are warm-up or grow-on-demand allocations (pooled free lists,
//	    high-water-mark buffers); its callees are still checked.
//	//harmonyvet:coldpath <reason>        — death/error path (deadlock
//	    reports); not descended into at all.
//
// Arguments of panic(...) are exempt everywhere: a panic is the end
// of the simulated world, so formatting its message may allocate.
var allocfreeAnalyzer = &Analyzer{
	Name:    "allocfree",
	Doc:     "//harmonyvet:allocfree functions must be transitively heap-allocation-free",
	Applies: everywhere,
	Run:     runAllocfree,
}

// allocfreeStdlib lists stdlib packages whose exported functions are
// accepted as allocation-free (pure numeric code).
var allocfreeStdlib = map[string]bool{
	"math":        true,
	"math/bits":   true,
	"sync/atomic": true,
}

func runAllocfree(p *Pass) {
	var roots []*FuncInfo
	for _, pkg := range p.Packages() {
		for _, fi := range p.Prog.funcsIn(pkg) {
			if fi.Directive(dirAllocfree) {
				roots = append(roots, fi)
			}
		}
	}
	reported := make(map[token.Pos]bool)
	for _, root := range roots {
		v := &allocfreeScan{
			p:        p,
			root:     root,
			visited:  make(map[*types.Func]bool),
			reported: reported,
		}
		v.checkFunc(root, root.Fn.Name())
	}
}

// allocfreeScan walks one annotated root and its transitive module
// callees. Findings are deduplicated across roots by site, so one
// shared helper reached from several annotated functions produces one
// finding (and needs one suppression).
type allocfreeScan struct {
	p        *Pass
	root     *FuncInfo
	visited  map[*types.Func]bool
	reported map[token.Pos]bool
}

func (v *allocfreeScan) site(pos token.Pos, amortized bool, path, format string, args ...any) {
	if amortized || v.reported[pos] {
		return
	}
	v.reported[pos] = true
	v.p.Reportf(pos, "%s on the allocation-free path of %s (%s)",
		fmt.Sprintf(format, args...), v.root.Fn.Name(), path)
}

func (v *allocfreeScan) checkFunc(fi *FuncInfo, path string) {
	if v.visited[fi.Fn] {
		return
	}
	v.visited[fi.Fn] = true
	if fi.Decl.Body == nil {
		return
	}
	v.walk(fi, fi.Decl.Body, path, fi.Directive(dirAllocamortized))
}

// walk inspects one function body (or function-literal body) for
// allocation sites, recursing into module callees.
func (v *allocfreeScan) walk(fi *FuncInfo, body ast.Node, path string, amortized bool) {
	info := fi.Pkg.Info
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			if isBuiltinCall(info, x, "panic") {
				return false // death path: panic message construction is exempt
			}
			v.call(fi, x, path, amortized)
		case *ast.CompositeLit:
			switch typeOf(info, x).Underlying().(type) {
			case *types.Slice:
				v.site(x.Pos(), amortized, path, "slice literal allocates")
			case *types.Map:
				v.site(x.Pos(), amortized, path, "map literal allocates")
			}
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if cl, ok := ast.Unparen(x.X).(*ast.CompositeLit); ok {
					v.site(cl.Pos(), amortized, path, "&composite literal escapes to the heap")
				}
			}
		case *ast.BinaryExpr:
			if x.Op == token.ADD && isString(typeOf(info, x)) {
				v.site(x.Pos(), amortized, path, "string concatenation allocates")
			}
		case *ast.FuncLit:
			if capturesOutside(fi.Pkg, x) {
				v.site(x.Pos(), amortized, path, "closure captures variables and may allocate its environment")
			}
			// The literal may run on this path: keep walking its body.
		case *ast.GoStmt:
			v.site(x.Pos(), amortized, path, "go statement allocates a goroutine")
		}
		return true
	})
}

// call classifies one call expression: builtin, conversion, dynamic,
// module callee (descend), or foreign function (allowlist).
func (v *allocfreeScan) call(fi *FuncInfo, call *ast.CallExpr, path string, amortized bool) {
	info := fi.Pkg.Info

	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				v.site(call.Pos(), amortized, path, "make allocates")
			case "new":
				v.site(call.Pos(), amortized, path, "new allocates")
			case "append":
				v.site(call.Pos(), amortized, path, "append may grow its backing array")
			}
			return
		}
	}

	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		v.conversion(fi, call, tv.Type, path, amortized)
		return
	}

	fn := StaticCallee(fi.Pkg, call)
	if fn == nil {
		v.site(call.Pos(), amortized, path, "dynamic call (func value or interface method) cannot be proven allocation-free")
		return
	}
	v.checkBoxing(fi, call, fn, path, amortized)

	if callee := v.p.Prog.FuncOf(fn); callee != nil {
		if callee.Directive(dirColdpath) || callee.Directive(dirAllocfree) {
			return // cold paths are out of scope; allocfree callees carry their own proof
		}
		v.checkFunc(callee, path+" → "+fn.Name())
		return
	}

	p := fn.Pkg()
	if p == nil {
		return
	}
	if allocfreeStdlib[p.Path()] {
		return
	}
	if p.Path() == "sort" && strings.HasPrefix(fn.Name(), "Search") {
		return // binary search over caller-owned data
	}
	v.site(call.Pos(), amortized, path, "calls %s.%s, which harmonyvet cannot prove allocation-free", p.Path(), fn.Name())
}

// conversion flags string↔[]byte/[]rune conversions and conversions
// that box a concrete value into an interface.
func (v *allocfreeScan) conversion(fi *FuncInfo, call *ast.CallExpr, target types.Type, path string, amortized bool) {
	if len(call.Args) != 1 {
		return
	}
	argT := typeOf(fi.Pkg.Info, call.Args[0])
	switch {
	case isByteOrRuneSlice(target) && isString(argT):
		v.site(call.Pos(), amortized, path, "string to %s conversion allocates", target)
	case isString(target) && isByteOrRuneSlice(argT):
		v.site(call.Pos(), amortized, path, "%s to string conversion allocates", argT)
	case types.IsInterface(target) && boxes(argT):
		v.site(call.Pos(), amortized, path, "conversion boxes %s into %s", argT, target)
	}
}

// checkBoxing flags concrete non-pointer arguments passed to
// interface parameters: the conversion allocates unless the compiler
// proves the box does not escape, which an invariant cannot rest on.
func (v *allocfreeScan) checkBoxing(fi *FuncInfo, call *ast.CallExpr, fn *types.Func, path string, amortized bool) {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // the slice is passed through, not boxed per element
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if !types.IsInterface(pt) {
			continue
		}
		argT := typeOf(fi.Pkg.Info, arg)
		if boxes(argT) {
			v.site(arg.Pos(), amortized, path, "argument boxes %s into interface parameter of %s", argT, fn.Name())
		}
	}
}

// boxes reports whether converting a value of type t into an
// interface allocates: true for concrete non-word-sized kinds,
// false for pointers, channels, maps, funcs, interfaces, and nil.
func boxes(t types.Type) bool {
	if t == nil || types.IsInterface(t) {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return false
	case *types.Basic:
		if u.Kind() == types.UntypedNil || u.Kind() == types.Invalid {
			return false
		}
	}
	return true
}

// capturesOutside reports whether a function literal references
// variables declared outside itself (closure environment capture).
// Package-level objects are shared, not captured.
func capturesOutside(pkg *Package, lit *ast.FuncLit) bool {
	captured := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || captured {
			return !captured
		}
		obj, ok := pkg.Info.Uses[id].(*types.Var)
		if !ok || obj.IsField() {
			return true
		}
		if obj.Parent() == pkg.Types.Scope() || obj.Parent() == types.Universe {
			return true
		}
		if obj.Pos() < lit.Pos() || obj.Pos() > lit.End() {
			captured = true
		}
		return true
	})
	return captured
}

func isBuiltinCall(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}

func typeOf(info *types.Info, e ast.Expr) types.Type {
	if t := info.TypeOf(e); t != nil {
		return t
	}
	return types.Typ[types.Invalid]
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}
