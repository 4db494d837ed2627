package analysis

import (
	"go/ast"
	"go/types"
)

// wallclockFuncs are the package time functions that read or depend
// on the real clock. Pure constructors and conversions (time.Duration
// arithmetic, time.Unix, time.Date) are allowed — they do not couple
// the simulation to wall time.
var wallclockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "Tick": true, "NewTimer": true, "NewTicker": true,
	"AfterFunc": true,
}

// wallclockAnalyzer enforces the virtual-time discipline: simulator
// packages advance time only through the World clock (Rank.Compute,
// Rank.Sleep, message costs), never through the machine's wall clock.
// A single time.Now in a cost model would make every campaign
// fingerprint irreproducible. The on-line protocol packages (server,
// client) legitimately deal in wall time, but through an injectable
// Clock — they are exempt here.
var wallclockAnalyzer = &Analyzer{
	Name: "wallclock",
	Doc:  "no wall-clock reads (time.Now/Since/Sleep/...) in virtual-time packages",
	Applies: baseIn(
		"simmpi", "cluster", "sparse", "pop", "gs2", "petscsim", "ksp", "snes",
	),
	run: func(p *pass) {
		for _, pkg := range p.packages() {
			inspect(pkg, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if fn := calleePkgFunc(pkg.Info, call, "time"); fn != nil && wallclockFuncs[fn.Name()] {
					p.reportf(call.Pos(), "time.%s reads the wall clock in a virtual-time package; derive time from the simulated World clock", fn.Name())
				}
				return true
			})
		}
	},
}

// calleePkgFunc resolves a call to a package-level function of the
// package with the given import path, or nil. Method calls (which
// have a receiver) never match.
func calleePkgFunc(info *types.Info, call *ast.CallExpr, pkgPath string) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.Ident:
		id = fun
	default:
		return nil
	}
	fn, ok := info.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != pkgPath {
		return nil
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return nil
	}
	return fn
}
