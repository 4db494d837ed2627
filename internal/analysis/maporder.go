package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// maporderAnalyzer flags `for range` loops over maps whose bodies are
// sensitive to iteration order. Go randomises map iteration order per
// range statement, so such a loop produces run-dependent results:
// float accumulation picks up different rounding, slices feeding
// message schedules or fan-out rounds are built in different orders,
// and logs or wire writes interleave differently. PR 3 fixed exactly
// this bug by hand in AlltoallvBytes; this analyzer makes the fix
// mechanical.
//
// The sanctioned idiom — collect the map's keys, sort them, loop over
// the sorted slice — is recognised and allowed: a loop body that only
// appends the *key* variable (and performs no other flagged
// operation) is the first half of that idiom.
//
// A body is flagged when it
//
//  1. accumulates into a float (or complex) variable with a compound
//     assignment (+=, -=, *=, /=) — reassociating float arithmetic
//     changes the bits;
//  2. appends an expression involving the range *value* variable to a
//     slice — downstream consumers (schedules, sends, rounds) observe
//     the random order; or
//  3. calls anything that looks like I/O or messaging (names starting
//     with Send, Recv, Write, Print, Fprint, Encode, Log, Flush,
//     Close) — the external effect happens in random order.
var maporderAnalyzer = &Analyzer{
	Name:    "maporder",
	Doc:     "no order-sensitive work inside map-range loops; iterate sorted keys",
	Applies: everywhere,
	Run: func(p *Pass) {
		for _, pkg := range p.Packages() {
			inspect(pkg, func(n ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				t := pkg.Info.TypeOf(rs.X)
				if t == nil {
					return true
				}
				if _, isMap := t.Underlying().(*types.Map); !isMap {
					return true
				}
				if reason := mapLoopHazard(pkg.Info, rs); reason != "" {
					p.Reportf(rs.For, "map iteration order is random: %s; iterate sorted keys instead", reason)
				}
				return true
			})
		}
	},
}

// ioNamePrefixes mark calls whose effects escape the loop in
// iteration order.
var ioNamePrefixes = []string{
	"Send", "Recv", "Write", "Print", "Fprint", "Encode", "Log", "Flush", "Close",
}

// mapLoopHazard returns a description of the first order-sensitive
// operation in the loop body, or "" when the body is order-safe.
func mapLoopHazard(info *types.Info, rs *ast.RangeStmt) string {
	valueObj := rangeVarObj(info, rs.Value)
	var reason string
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if reason != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			switch n.Tok {
			case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
				for _, lhs := range n.Lhs {
					if isFloaty(info.TypeOf(lhs)) {
						reason = "the body accumulates into a float, so the rounding depends on visit order"
						return false
					}
				}
			}
		case *ast.CallExpr:
			fun := ast.Unparen(n.Fun)
			if id, ok := fun.(*ast.Ident); ok && id.Name == "append" {
				if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
					for _, arg := range n.Args[1:] {
						if valueObj != nil && usesObj(info, arg, valueObj) {
							reason = "the body appends map values to a slice, so its element order is random"
							return false
						}
					}
					return true
				}
			}
			if name := calleeName(fun); name != "" {
				for _, prefix := range ioNamePrefixes {
					if strings.HasPrefix(name, prefix) {
						reason = "the body calls " + name + ", so its external effects happen in random order"
						return false
					}
				}
			}
		}
		return true
	})
	return reason
}

// rangeVarObj resolves the object of a range variable expression
// (the `v` of `for k, v := range m`), or nil.
func rangeVarObj(info *types.Info, e ast.Expr) types.Object {
	id, ok := e.(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	if obj := info.Defs[id]; obj != nil {
		return obj
	}
	return info.Uses[id]
}

// usesObj reports whether the expression references obj.
func usesObj(info *types.Info, e ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}

// calleeName returns the bare name of a call target: the selector for
// method/package calls, the identifier for plain calls.
func calleeName(fun ast.Expr) string {
	switch fun := fun.(type) {
	case *ast.SelectorExpr:
		return fun.Sel.Name
	case *ast.Ident:
		return fun.Name
	}
	return ""
}

// isFloaty reports whether t is (or aliases) a floating-point or
// complex type.
func isFloaty(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&(types.IsFloat|types.IsComplex) != 0
}
