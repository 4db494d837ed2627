package analysis

import (
	"go/ast"
	"go/types"
)

// errdropAnalyzer flags statements that silently discard an error
// result in the protocol packages (proto, server, client): a dropped
// encode/decode/connection error there turns a detectable fault into
// a hung or corrupted tuning session, which is exactly what the
// fault-tolerance layer of PR 2 exists to prevent. An explicit
// `_ = f()` assignment is accepted as a deliberate, greppable
// acknowledgment; a bare call statement is not.
var errdropAnalyzer = &Analyzer{
	Name:    "errdrop",
	Doc:     "no silently discarded error results in the protocol packages",
	Applies: baseIn("proto", "server", "client"),
	run: func(p *pass) {
		for _, pkg := range p.packages() {
			report := func(call *ast.CallExpr, how string) {
				if callDropsError(pkg.Info, call) {
					p.reportf(call.Pos(), "%s from %s is discarded; handle it or assign it to _ explicitly",
						how, calleeText(call))
				}
			}
			inspect(pkg, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.ExprStmt:
					if call, ok := n.X.(*ast.CallExpr); ok {
						report(call, "error result")
					}
				case *ast.DeferStmt:
					report(n.Call, "error result of deferred call")
				case *ast.GoStmt:
					report(n.Call, "error result of goroutine call")
				}
				return true
			})
		}
	},
}

// callDropsError reports whether the call returns an error among its
// results (all of which the surrounding statement discards).
func callDropsError(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call.Fun]
	if !ok {
		return false
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return false // conversion or builtin
	}
	errorType := types.Universe.Lookup("error").Type()
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		if types.Identical(res.At(i).Type(), errorType) {
			return true
		}
	}
	return false
}

// calleeText names the call target for the diagnostic.
func calleeText(call *ast.CallExpr) string {
	return types.ExprString(ast.Unparen(call.Fun))
}
