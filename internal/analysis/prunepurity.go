package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// prunepurityAnalyzer proves the surrogate transparency invariant
// from the pruning layer: a model-predicted value (the score a pruned
// Trial is answered with) must never be mistaken for a measurement.
// Concretely, values originating from a Predict call may flow to the
// strategy (Report/ReportBatch — the designed prediction channel) and
// into pruned Trial records, but never into
//
//   - an evaluation cache (methods named Store/Put on a *Cache type),
//   - best-result state (Best/BestValue/BestConfig/BestAtRun/
//     FirstValue fields, the server's measured-best shadow
//     measuredPt/measuredVal),
//   - run accounting (TuningCost).
//
// The dataflow is taint-style and flow-insensitive: assignments
// propagate taint through locals, struct fields (field-granular,
// program-wide), slices, and arithmetic; comparisons drop taint —
// branching on a prediction is the pruning design, only the value
// must not escape. Function summaries (does a result carry a
// prediction, does a parameter reach a sink) are computed over the
// static call graph to a fixpoint, so a prediction laundered through
// a helper and sunk two calls later is still caught at the call site.
var prunepurityAnalyzer = &Analyzer{
	Name:       "prunepurity",
	Doc:        "surrogate-predicted values never reach eval caches, Best results, or run accounting",
	Applies:    baseIn("core", "server", "prunepurity"),
	RunProgram: runPrunepurity,
}

// prunepurity fact names.
const (
	factPredResult = "prunepurity.result-predicted" // some result carries a predicted value
	factParamSink  = "prunepurity.param-sink"       // value = comma list of sinking param indices
)

// pruneSinkFields maps struct field names that constitute measurement
// sinks to the invariant they belong to.
var pruneSinkFields = map[string]string{
	"Best":        "best-result state",
	"BestValue":   "best-result state",
	"BestConfig":  "best-result state",
	"BestAtRun":   "best-result state",
	"FirstValue":  "best-result state",
	"TuningCost":  "run accounting",
	"measuredVal": "the measured-best shadow",
	"measuredPt":  "the measured-best shadow",
}

func runPrunepurity(pp *ProgramPass) {
	st := &puState{
		pp:            pp,
		fieldTaint:    make(map[*types.Var]bool),
		resultTaint:   make(map[*types.Func]bool),
		paramToResult: make(map[*types.Func]map[int]bool),
		paramSink:     make(map[*types.Func]map[int]string),
	}
	for _, pkg := range pp.FactPackages() {
		st.fis = append(st.fis, pp.Prog.funcsIn(pkg)...)
	}

	// Per-parameter summaries: does param i reach a sink, does it flow
	// to a result. Fixpoint: a summary may depend on callee summaries.
	for changed := true; changed; {
		changed = false
		for _, fi := range st.fis {
			if fi.Decl.Body == nil {
				continue
			}
			for i, obj := range paramObjs(fi) {
				la := st.newLocal(fi, false)
				la.taint[obj] = true
				la.run()
				if la.sinkDesc != "" && st.paramSink[fi.Fn][i] == "" {
					setIndexed(st.paramSink, fi.Fn, i, la.sinkDesc)
					changed = true
				}
				if la.returnsTainted && !st.paramToResult[fi.Fn][i] {
					if st.paramToResult[fi.Fn] == nil {
						st.paramToResult[fi.Fn] = make(map[int]bool)
					}
					st.paramToResult[fi.Fn][i] = true
					changed = true
				}
			}
		}
	}

	// Whole-program taint: seed from Predict calls, propagate through
	// fields and result summaries to a fixpoint.
	for changed := true; changed; {
		changed = false
		for _, fi := range st.fis {
			if fi.Decl.Body == nil {
				continue
			}
			la := st.newLocal(fi, true)
			la.run()
			if la.returnsTainted && !st.resultTaint[fi.Fn] {
				st.resultTaint[fi.Fn] = true
				changed = true
			}
			if la.newFieldTaint {
				changed = true
			}
		}
	}

	// Export the summaries as facts (visible via harmonyvet -facts).
	facts := pp.Prog.Facts()
	for fn := range st.resultTaint {
		facts.Set(fn, factPredResult, "returns a surrogate-predicted value")
	}
	for fn, idx := range st.paramSink {
		var parts []string
		for i := 0; i < 64; i++ {
			if d, ok := idx[i]; ok && d != "" {
				parts = append(parts, d)
			}
		}
		if len(parts) > 0 {
			facts.Set(fn, factParamSink, strings.Join(parts, "; "))
		}
	}

	// Reporting pass over the pattern packages.
	inPattern := make(map[*Package]bool)
	for _, pkg := range pp.Packages() {
		inPattern[pkg] = true
	}
	for _, fi := range st.fis {
		if fi.Decl.Body == nil || !inPattern[fi.Pkg] {
			continue
		}
		la := st.newLocal(fi, true)
		la.run()
		la.reportPass = true
		la.walkOnce()
	}
}

// puState is the program-wide taint state shared by every local pass.
type puState struct {
	pp            *ProgramPass
	fis           []*FuncInfo
	fieldTaint    map[*types.Var]bool
	resultTaint   map[*types.Func]bool
	paramToResult map[*types.Func]map[int]bool
	paramSink     map[*types.Func]map[int]string
}

func setIndexed(m map[*types.Func]map[int]string, fn *types.Func, i int, v string) {
	if m[fn] == nil {
		m[fn] = make(map[int]string)
	}
	m[fn][i] = v
}

func paramObjs(fi *FuncInfo) []types.Object {
	var out []types.Object
	if fi.Decl.Type.Params == nil {
		return nil
	}
	for _, f := range fi.Decl.Type.Params.List {
		for _, id := range f.Names {
			if obj := fi.Pkg.Info.Defs[id]; obj != nil {
				out = append(out, obj)
			}
		}
	}
	return out
}

// puLocal is one flow-insensitive pass over one function body.
type puLocal struct {
	st         *puState
	fi         *FuncInfo
	useSources bool // treat Predict calls / summaries as taint sources
	taint      map[types.Object]bool

	returnsTainted bool
	sinkDesc       string // first sink description hit (summary mode)
	newFieldTaint  bool
	reportPass     bool
	changed        bool
}

func (st *puState) newLocal(fi *FuncInfo, useSources bool) *puLocal {
	return &puLocal{st: st, fi: fi, useSources: useSources, taint: make(map[types.Object]bool)}
}

// run iterates walkOnce until the local taint set stabilises.
func (la *puLocal) run() {
	for i := 0; i < 32; i++ {
		la.changed = false
		la.walkOnce()
		if !la.changed {
			return
		}
	}
}

func (la *puLocal) obj(id *ast.Ident) types.Object {
	info := la.fi.Pkg.Info
	if o := info.Defs[id]; o != nil {
		return o
	}
	return info.Uses[id]
}

func (la *puLocal) addTaint(o types.Object) {
	if o == nil || la.taint[o] {
		return
	}
	la.taint[o] = true
	la.changed = true
}

func (la *puLocal) addFieldTaint(f *types.Var) {
	if f == nil || la.st.fieldTaint[f] {
		return
	}
	// Summary passes must not pollute the program-wide field state
	// with hypothetical per-parameter taint.
	if !la.useSources {
		return
	}
	la.st.fieldTaint[f] = true
	la.newFieldTaint = true
	la.changed = true
}

// fieldOf resolves a selector to the struct field object it reads or
// writes, or nil.
func (la *puLocal) fieldOf(sel *ast.SelectorExpr) *types.Var {
	info := la.fi.Pkg.Info
	if s, ok := info.Selections[sel]; ok && s.Kind() == types.FieldVal {
		if v, ok := s.Obj().(*types.Var); ok {
			// A field of an instantiated generic struct is the field of
			// its declaration: taint parked through Candidate[P] is read
			// back through Candidate[handState].
			return v.Origin()
		}
	}
	return nil
}

// tainted reports whether an expression carries a predicted value.
func (la *puLocal) tainted(e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.Ident:
		return la.taint[la.obj(x)]
	case *ast.ParenExpr:
		return la.tainted(x.X)
	case *ast.StarExpr:
		return la.tainted(x.X)
	case *ast.SelectorExpr:
		if f := la.fieldOf(x); f != nil && la.st.fieldTaint[f] {
			return true
		}
		if _, isPkg := la.fi.Pkg.Info.Uses[x.Sel].(*types.PkgName); isPkg {
			return false
		}
		return la.tainted(x.X)
	case *ast.IndexExpr:
		return la.tainted(x.X)
	case *ast.SliceExpr:
		return la.tainted(x.X)
	case *ast.UnaryExpr:
		if x.Op == token.ARROW {
			return false // channel payloads are out of scope
		}
		return la.tainted(x.X)
	case *ast.BinaryExpr:
		switch x.Op {
		case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ, token.LAND, token.LOR:
			// Branching on a prediction is the pruning design; a boolean
			// derived from one carries no value to protect.
			return false
		}
		return la.tainted(x.X) || la.tainted(x.Y)
	case *ast.CompositeLit:
		for _, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				if la.tainted(kv.Value) {
					return true
				}
				continue
			}
			if la.tainted(el) {
				return true
			}
		}
		return false
	case *ast.CallExpr:
		return la.callTainted(x)
	case *ast.TypeAssertExpr:
		return la.tainted(x.X)
	}
	return false
}

// callTainted classifies a call's result taint.
func (la *puLocal) callTainted(call *ast.CallExpr) bool {
	info := la.fi.Pkg.Info
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return len(call.Args) == 1 && la.tainted(call.Args[0])
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "append", "min", "max":
				for _, a := range call.Args {
					if la.tainted(a) {
						return true
					}
				}
			}
			return false
		}
	}
	// The taint source: any Predict method — the surrogate interface's
	// single entry point, matched by name so fixtures and future
	// models are covered without a type allowlist.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Predict" && la.useSources {
		return true
	}
	fn := StaticCallee(la.fi.Pkg, call)
	if fn != nil && la.st.pp.Prog.FuncOf(fn) != nil {
		if la.useSources && la.st.resultTaint[fn] {
			return true
		}
		if ptr := la.st.paramToResult[fn]; ptr != nil {
			for i, a := range call.Args {
				if ptr[i] && la.tainted(a) {
					return true
				}
			}
		}
		return false
	}
	// Foreign or dynamic call: taint passes through arguments
	// (math.Abs of a prediction is still a prediction).
	for _, a := range call.Args {
		if la.tainted(a) {
			return true
		}
	}
	return false
}

// walkOnce makes one pass over the body: propagate assignments,
// check sinks (when reporting), note tainted returns.
func (la *puLocal) walkOnce() {
	ast.Inspect(la.fi.Decl.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			la.assign(x)
		case *ast.GenDecl:
			for _, spec := range x.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					if i < len(vs.Values) && la.tainted(vs.Values[i]) {
						la.addTaint(la.obj(name))
					}
				}
			}
		case *ast.RangeStmt:
			if la.tainted(x.X) {
				if id, ok := x.Value.(*ast.Ident); ok {
					la.addTaint(la.obj(id))
				}
			}
		case *ast.ReturnStmt:
			for _, r := range x.Results {
				if la.tainted(r) {
					la.returnsTainted = true
				}
			}
		case *ast.CallExpr:
			la.checkCallSinks(x)
		}
		return true
	})
}

// assign propagates one assignment statement and checks field sinks.
func (la *puLocal) assign(as *ast.AssignStmt) {
	// Multi-value call/type-assert: every LHS shares the RHS taint.
	if len(as.Lhs) > 1 && len(as.Rhs) == 1 {
		if la.tainted(as.Rhs[0]) {
			for _, l := range as.Lhs {
				la.taintLHS(l, as.Rhs[0])
			}
		}
		return
	}
	for i, l := range as.Lhs {
		if i >= len(as.Rhs) {
			break
		}
		r := as.Rhs[i]
		t := la.tainted(r)
		if as.Tok == token.ADD_ASSIGN || as.Tok == token.SUB_ASSIGN ||
			as.Tok == token.MUL_ASSIGN || as.Tok == token.QUO_ASSIGN {
			t = t || la.tainted(l) // x += y keeps x's own taint too
		}
		if t {
			la.taintLHS(l, r)
		}
	}
}

// taintLHS marks the target of a tainted assignment: locals, the
// element container for index writes, struct fields program-wide —
// and reports sink-field writes.
func (la *puLocal) taintLHS(l ast.Expr, r ast.Expr) {
	switch x := ast.Unparen(l).(type) {
	case *ast.Ident:
		la.addTaint(la.obj(x))
	case *ast.StarExpr:
		la.taintLHS(x.X, r)
	case *ast.IndexExpr:
		la.taintLHS(x.X, r)
	case *ast.SelectorExpr:
		if f := la.fieldOf(x); f != nil {
			if inv, isSink := pruneSinkFields[f.Name()]; isSink {
				la.sink(l.Pos(), "surrogate-predicted value assigned to %s.%s (%s); predictions must never look like measurements",
					fieldOwner(f), f.Name(), inv)
			}
			la.addFieldTaint(f)
			return
		}
		la.taintLHS(x.X, r)
	}
}

// checkCallSinks flags tainted arguments flowing into cache stores or
// into callees whose summary says the parameter reaches a sink.
func (la *puLocal) checkCallSinks(call *ast.CallExpr) {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		name := sel.Sel.Name
		if name == "Store" || name == "Put" {
			recv := lockNamedBase(la.fi.Pkg.Info, sel.X)
			if strings.Contains(recv, "Cache") {
				for _, a := range call.Args {
					if la.tainted(a) {
						la.sink(call.Pos(), "surrogate-predicted value stored into %s.%s (evaluation cache); pruned predictions must never be cached", recv, name)
						break
					}
				}
			}
		}
	}
	fn := StaticCallee(la.fi.Pkg, call)
	if fn == nil {
		return
	}
	if sinks := la.st.paramSink[fn]; sinks != nil {
		for i, a := range call.Args {
			if desc, ok := sinks[i]; ok && desc != "" && la.tainted(a) {
				la.sink(call.Pos(), "surrogate-predicted value passed to %s, whose parameter %d flows into %s", fn.Name(), i, desc)
			}
		}
	}
}

// sink records a sink hit: a finding in the reporting pass, a summary
// in the per-parameter pass.
func (la *puLocal) sink(pos token.Pos, format string, args ...any) {
	if la.reportPass {
		la.st.pp.Reportf(pos, format, args...)
		return
	}
	if la.sinkDesc == "" {
		// The summary only needs the sink's identity, not the sentence.
		s := fmt.Sprintf(format, args...)
		if i := strings.Index(s, ";"); i >= 0 {
			s = s[:i]
		}
		la.sinkDesc = strings.TrimPrefix(s, "surrogate-predicted value ")
	}
}

// fieldOwner names the struct type a field belongs to, for messages.
func fieldOwner(f *types.Var) string {
	// The field's parent scope is not exposed; fall back to the
	// package-qualified name when available.
	if f.Pkg() != nil {
		return f.Pkg().Name()
	}
	return "?"
}
