package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
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
//     Close) — the external effect happens in random order;
//  4. selects: an `if` on an ordered comparison (<, >, <=, >=) keeps,
//     in a variable declared outside the loop, something derived from
//     the key or value other than a compared operand — of two tied
//     entries, the one visited first (or last) wins; or
//  5. returns early with a result derived from the key or value — of
//     several entries that qualify, the one visited first is returned.
//
// "Derived from" follows assignments inside the body, so
// `err := check(v); return err` returns the value. Keeping only the
// compared quantity (`if v > hi { hi = v }`) and returning a constant
// (`if v < 0 { return false }`) do not depend on the order.
var maporderAnalyzer = &Analyzer{
	Name:    "maporder",
	Doc:     "no order-sensitive work inside map-range loops; iterate sorted keys",
	Applies: everywhere,
	run: func(p *pass) {
		for _, pkg := range p.packages() {
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
					p.reportf(rs.For, "map iteration order is random: %s; iterate sorted keys instead", reason)
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
	derived := entryDerived(info, rs)
	if returnsEntry(info, rs.Body, derived) {
		return "the body returns a result derived from the entry it reached first"
	}
	var reason string
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if reason != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.IfStmt:
			if selectsEntry(info, rs, n, derived) {
				reason = "the body selects an entry by an ordered comparison, so a tie goes to the visit order"
				return false
			}
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
						if valueObj != nil && (objSet{valueObj: true}).uses(info, arg) {
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

// objSet is a set of variables.
type objSet map[types.Object]bool

// uses reports whether the expression references a variable of the set.
func (set objSet) uses(info *types.Info, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && set[info.Uses[id]] {
			found = true
		}
		return !found
	})
	return found
}

// entryDerived returns the range key and value variables of rs and every
// variable the body assigns from them, directly or through each other.
func entryDerived(info *types.Info, rs *ast.RangeStmt) objSet {
	set := objSet{}
	for _, e := range []ast.Expr{rs.Key, rs.Value} {
		if obj := rangeVarObj(info, e); obj != nil {
			set[obj] = true
		}
	}
	for changed := true; changed; {
		changed = false
		ast.Inspect(rs.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for i, l := range as.Lhs {
				r := as.Rhs[0]
				if len(as.Rhs) == len(as.Lhs) {
					r = as.Rhs[i]
				}
				id, ok := l.(*ast.Ident)
				if !ok || !set.uses(info, r) {
					continue
				}
				if obj := rangeVarObj(info, id); obj != nil && !set[obj] {
					set[obj] = true
					changed = true
				}
			}
			return true
		})
	}
	return set
}

// returnsEntry reports whether a return statement of the loop body (not
// of a function literal in it) has an entry-derived result.
func returnsEntry(info *types.Info, body *ast.BlockStmt, derived objSet) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			found = found || slices.ContainsFunc(n.Results, func(r ast.Expr) bool { return derived.uses(info, r) })
		}
		return !found
	})
	return found
}

// selectsEntry reports whether the if statement, inside the map range
// rs, compares with an ordered operator and then keeps, in a variable
// declared outside rs, an entry-derived value that is not one of the
// compared operands.
func selectsEntry(info *types.Info, rs *ast.RangeStmt, ifs *ast.IfStmt, derived objSet) bool {
	var operands []string
	ast.Inspect(ifs.Cond, func(n ast.Node) bool {
		if b, ok := n.(*ast.BinaryExpr); ok {
			switch b.Op {
			case token.LSS, token.GTR, token.LEQ, token.GEQ:
				operands = append(operands, types.ExprString(b.X), types.ExprString(b.Y))
			}
		}
		return true
	})
	if len(operands) == 0 {
		return false
	}
	found := false
	ast.Inspect(ifs.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || found || len(as.Lhs) != len(as.Rhs) {
			return !found
		}
		for i, l := range as.Lhs {
			root := rootIdent(l)
			if root == nil {
				continue
			}
			obj := info.Uses[root]
			if obj == nil || (obj.Pos() >= rs.Pos() && obj.Pos() < rs.End()) {
				continue // declared in the loop: rebuilt on every visit
			}
			if r := as.Rhs[i]; derived.uses(info, r) && !slices.Contains(operands, types.ExprString(r)) {
				found = true
			}
		}
		return !found
	})
	return found
}

// rootIdent returns the variable an assignment target is rooted in: x
// for x, x.f, x[i] and *x.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
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
