package analysis

import (
	"go/ast"
)

// randsourceAnalyzer keeps search randomness reproducible: campaigns
// are pinned by golden fingerprints, which only hold when every
// random draw flows from a *rand.Rand seeded by the caller
// (Options.Seed and friends). The package-level math/rand functions
// draw from the process-global source — shared across goroutines and,
// since Go 1.20, seeded randomly at startup — so a single call makes
// results irreproducible and worker-count dependent. Constructing a
// seeded generator (rand.New, rand.NewSource) is exactly the approved
// pattern and is not flagged; neither are methods on a *rand.Rand.
var randsourceAnalyzer = &Analyzer{
	Name: "randsource",
	Doc:  "no package-global math/rand draws in deterministic packages; inject a seeded *rand.Rand",
	Applies: baseIn(
		"search", "core",
		"simmpi", "cluster", "sparse", "pop", "gs2", "petscsim", "ksp", "snes",
	),
	Run: func(p *Pass) {
		for _, pkg := range p.Packages() {
			inspect(pkg, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				for _, pkgPath := range []string{"math/rand", "math/rand/v2"} {
					fn := calleePkgFunc(pkg.Info, call, pkgPath)
					if fn == nil {
						continue
					}
					switch fn.Name() {
					case "New", "NewSource", "NewPCG", "NewChaCha8", "NewZipf":
						// Building a seeded generator is the approved idiom.
					default:
						p.Reportf(call.Pos(), "rand.%s draws from the process-global source; use a seeded *rand.Rand parameter or field", fn.Name())
					}
				}
				return true
			})
		}
	},
}
