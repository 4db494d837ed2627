package analysis

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"strings"
)

// lockorderAnalyzer scans every sync.Mutex/RWMutex critical section,
// and enforces the sharded server's locking contract on top
// (internal/server/shard.go: "Lock order: shard.mu before session.mu,
// always"):
//
//  1. no return while a mutex is locked, and no mutex left locked at
//     the end of its scope, unless a deferred unlock covers it;
//  2. functions named *Locked hold a lock by convention: they are
//     scanned as if their shard/session lock were already held, and
//     calling one with no mutex held positionally is flagged;
//  3. no scope holds two shard mutexes at once — directly or by
//     calling a function that takes one;
//  4. no channel operation, goroutine launch, blocking I/O, or
//     callback through a func value (s.Logf, injected clocks) runs
//     while a shard mutex is held — directly or transitively;
//  5. a shard's deadline heap (the .dq field) is mutated only under
//     that shard's own mutex;
//  6. shard.mu is never acquired while a session.mu is held.
//
// The scan is positional, not a control-flow graph: statements are
// visited in source order, an unlock ends the critical section for
// everything after it (so unlocking on the early path before returning
// passes), and a deferred unlock keeps the lock held to the end of the
// scope. Function literals are scopes of their own. Shard and session
// mutexes are recognised as the .mu field of a type named "shard" or
// "session". Facts about callees (performs a forbidden operation,
// acquires a shard lock) are computed transitively over the static
// call graph, so a violation three calls deep is reported at the
// locked call site with the offending chain named.
var lockorderAnalyzer = &Analyzer{
	Name:    "lockorder",
	Doc:     "no return under a held mutex; *Locked callers hold one; one shard lock, no chan/IO/callback under it, heap under owner, shard before session",
	Applies: everywhere,
	Run:     runLockorder,
}

// lockorder fact names.
const (
	factLockUnsafe = "lockorder.unsafe"      // performs a forbidden op (directly or via calls)
	factLocksShard = "lockorder.locks-shard" // acquires a shard mutex itself
)

// lockorderIOPkgs are stdlib packages whose calls block on I/O.
var lockorderIOPkgs = map[string]bool{
	"net": true, "os": true, "io": true, "bufio": true, "log": true,
}

func runLockorder(p *Pass) {
	computeLockFacts(p)
	for _, pkg := range p.Packages() {
		inspect(pkg, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					scanLockBody(p, pkg, fn.Body, virtualLocks(pkg, fn), strings.HasSuffix(fn.Name.Name, "Locked"))
				}
			case *ast.FuncLit:
				scanLockBody(p, pkg, fn.Body, nil, false)
			}
			return true
		})
	}
}

// namedType returns the type name behind e (dereferencing one
// pointer), or nil.
func namedType(info *types.Info, e ast.Expr) *types.TypeName {
	t := info.TypeOf(e)
	if t == nil {
		return nil
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj()
	}
	return nil
}

// lockNamedBase returns the name of the named type behind e
// (dereferencing one pointer), or "".
func lockNamedBase(info *types.Info, e ast.Expr) string {
	if tn := namedType(info, e); tn != nil {
		return tn.Name()
	}
	return ""
}

// isMutexExpr reports whether e is (or points to) a sync.Mutex or
// sync.RWMutex.
func isMutexExpr(info *types.Info, e ast.Expr) bool {
	tn := namedType(info, e)
	return tn != nil && tn.Pkg() != nil && tn.Pkg().Path() == "sync" &&
		(tn.Name() == "Mutex" || tn.Name() == "RWMutex")
}

// lockTarget classifies a call as Lock/RLock (lock) or Unlock/RUnlock
// (unlock) of a sync mutex. It returns the canonical text of the mutex
// expression and its owner kind: "shard" or "session" for the .mu
// field of a type of that name, "" for any other mutex.
func lockTarget(info *types.Info, call *ast.CallExpr) (kind, mu string, lock, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false, false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		lock = true
	case "Unlock", "RUnlock":
	default:
		return "", "", false, false
	}
	if !isMutexExpr(info, sel.X) {
		return "", "", false, false
	}
	if f, isSel := ast.Unparen(sel.X).(*ast.SelectorExpr); isSel && f.Sel.Name == "mu" {
		if owner := lockNamedBase(info, f.X); owner == "shard" || owner == "session" {
			kind = owner
		}
	}
	return kind, exprText(sel.X), lock, true
}

// exprText renders an expression canonically for receiver matching.
func exprText(e ast.Expr) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, token.NewFileSet(), e); err != nil {
		return ""
	}
	return buf.String()
}

// heapDQBase matches container/heap calls whose first argument is (a
// pointer to) the .dq field of a shard, returning the shard expr text.
func heapDQBase(pkg *Package, call *ast.CallExpr) (base string, ok bool) {
	fn := StaticCallee(pkg, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "container/heap" {
		return "", false
	}
	switch fn.Name() {
	case "Push", "Pop", "Fix", "Init", "Remove":
	default:
		return "", false
	}
	if len(call.Args) == 0 {
		return "", false
	}
	arg := ast.Unparen(call.Args[0])
	if u, isU := arg.(*ast.UnaryExpr); isU && u.Op == token.AND {
		arg = ast.Unparen(u.X)
	}
	sel, isSel := arg.(*ast.SelectorExpr)
	if !isSel || sel.Sel.Name != "dq" {
		return "", false
	}
	if lockNamedBase(pkg.Info, sel.X) != "shard" {
		return "", false
	}
	return exprText(sel.X), true
}

// directForbiddenCall describes why a call is forbidden under a shard
// lock, or "".
func directForbiddenCall(pkg *Package, call *ast.CallExpr) string {
	info := pkg.Info
	// Builtins and conversions are fine.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isB := info.Uses[id].(*types.Builtin); isB {
			return ""
		}
	}
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return ""
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s, ok := info.Selections[sel]; ok && s.Kind() == types.MethodVal && types.IsInterface(s.Recv()) {
			// Interface method calls (strategy.Report under session locks)
			// are part of the session state machine; the callback rule is
			// about func-typed fields like Logf and injected clocks.
			return ""
		}
	}
	fn := StaticCallee(pkg, call)
	if fn == nil {
		return fmt.Sprintf("calls through func value %s (a callback may block or re-enter the server)", exprText(call.Fun))
	}
	if p := fn.Pkg(); p != nil {
		if lockorderIOPkgs[p.Path()] {
			return fmt.Sprintf("calls %s.%s (blocking I/O)", p.Path(), fn.Name())
		}
		if p.Path() == "fmt" && strings.HasPrefix(fn.Name(), "Fprint") {
			return fmt.Sprintf("calls fmt.%s (writes to an io.Writer)", fn.Name())
		}
	}
	return ""
}

// computeLockFacts summarises every function of the applicable
// packages: does it perform a forbidden-under-shard-lock operation,
// and does it acquire a shard lock — in both cases directly or
// through static module calls, to a fixpoint.
func computeLockFacts(p *Pass) {
	prog := p.Prog
	facts := prog.Facts()
	var fis []*FuncInfo
	for _, pkg := range p.FactPackages() {
		fis = append(fis, prog.funcsIn(pkg)...)
	}
	for _, fi := range fis {
		if fi.Decl.Body == nil {
			continue
		}
		pkg := fi.Pkg
		ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.SendStmt:
				setIfAbsent(facts, fi.Fn, factLockUnsafe, "performs a channel send")
			case *ast.UnaryExpr:
				if x.Op == token.ARROW {
					setIfAbsent(facts, fi.Fn, factLockUnsafe, "performs a channel receive")
				}
			case *ast.SelectStmt:
				setIfAbsent(facts, fi.Fn, factLockUnsafe, "blocks in a select")
			case *ast.GoStmt:
				setIfAbsent(facts, fi.Fn, factLockUnsafe, "starts a goroutine")
			case *ast.RangeStmt:
				if t := pkg.Info.TypeOf(x.X); t != nil {
					if _, isChan := t.Underlying().(*types.Chan); isChan {
						setIfAbsent(facts, fi.Fn, factLockUnsafe, "ranges over a channel")
					}
				}
			case *ast.CallExpr:
				if desc := directForbiddenCall(pkg, x); desc != "" {
					setIfAbsent(facts, fi.Fn, factLockUnsafe, desc)
				}
				if kind, _, lock, ok := lockTarget(pkg.Info, x); ok && lock && kind == "shard" {
					setIfAbsent(facts, fi.Fn, factLocksShard, "acquires a shard lock")
				}
			}
			return true
		})
	}
	// Transitive closure over static module calls.
	for changed := true; changed; {
		changed = false
		for _, fi := range fis {
			for _, callee := range prog.Callees(fi) {
				if desc, ok := facts.Get(callee, factLockUnsafe); ok && !facts.Has(fi.Fn, factLockUnsafe) {
					facts.Set(fi.Fn, factLockUnsafe, fmt.Sprintf("calls %s, which %s", callee.Name(), desc))
					changed = true
				}
				if desc, ok := facts.Get(callee, factLocksShard); ok && !facts.Has(fi.Fn, factLocksShard) {
					facts.Set(fi.Fn, factLocksShard, fmt.Sprintf("calls %s, which %s", callee.Name(), desc))
					changed = true
				}
			}
		}
	}
}

func setIfAbsent(facts *FactStore, fn *types.Func, name, value string) {
	if !facts.Has(fn, name) {
		facts.Set(fn, name, value)
	}
}

// heldLock is one mutex the scan holds: acquired at pos, or assumed
// held on entry (pos invalid) by a *Locked function.
type heldLock struct {
	kind, mu string
	pos      token.Pos
}

// virtualLocks returns the locks a *Locked-named function is entitled
// to assume at entry: its *shard parameters' locks, else its *session
// receiver's (or parameters') locks.
func virtualLocks(pkg *Package, fd *ast.FuncDecl) []heldLock {
	if !strings.HasSuffix(fd.Name.Name, "Locked") {
		return nil
	}
	var shard, session []heldLock
	for _, fl := range []*ast.FieldList{fd.Recv, fd.Type.Params} {
		if fl == nil {
			continue
		}
		for _, f := range fl.List {
			t := pkg.Info.TypeOf(f.Type)
			if t == nil {
				continue
			}
			name := ""
			if ptr, ok := t.Underlying().(*types.Pointer); ok {
				if named, ok := ptr.Elem().(*types.Named); ok {
					name = named.Obj().Name()
				}
			}
			for _, id := range f.Names {
				switch name {
				case "shard":
					shard = append(shard, heldLock{kind: name, mu: id.Name + ".mu"})
				case "session":
					session = append(session, heldLock{kind: name, mu: id.Name + ".mu"})
				}
			}
		}
	}
	// A function with a shard parameter holds the shard lock; a pure
	// session helper holds only its session lock. Holding the shard
	// lock does not imply holding the session's.
	if len(shard) > 0 {
		return shard
	}
	return session
}

// scanLockBody walks one scope in source order maintaining the held
// lock set. locked marks the body of a *Locked function, whose caller
// holds a lock the scan may not see.
func scanLockBody(p *Pass, pkg *Package, body *ast.BlockStmt, held []heldLock, locked bool) {
	facts := p.Prog.Facts()
	deferred := make(map[string]bool) // mutexes a deferred unlock releases
	first := func(kind string) string {
		for _, h := range held {
			if h.kind == kind {
				return h.mu
			}
		}
		return ""
	}
	// leaked reports every lock of this scope still held at a return
	// or at the end of the scope with no deferred unlock.
	leaked := func(report func(h heldLock)) {
		for _, h := range held {
			if h.pos.IsValid() && !deferred[h.mu] {
				report(h)
			}
		}
	}

	ast.Inspect(body, func(n ast.Node) bool {
		shard := first("shard")
		switch x := n.(type) {
		case *ast.FuncLit:
			return false // scanned as its own scope
		case *ast.ReturnStmt:
			leaked(func(h heldLock) {
				p.Reportf(x.Pos(), "return while %s is locked (locked at line %d, no deferred unlock)",
					h.mu, p.Prog.Fset.Position(h.pos).Line)
			})
		case *ast.SendStmt:
			if shard != "" {
				p.Reportf(x.Pos(), "channel send while shard lock %s is held", shard)
			}
		case *ast.UnaryExpr:
			if x.Op == token.ARROW && shard != "" {
				p.Reportf(x.Pos(), "channel receive while shard lock %s is held", shard)
			}
		case *ast.SelectStmt:
			if shard != "" {
				p.Reportf(x.Pos(), "select while shard lock %s is held", shard)
			}
		case *ast.GoStmt:
			if shard != "" {
				p.Reportf(x.Pos(), "goroutine started while shard lock %s is held", shard)
			}
		case *ast.CallExpr:
			if kind, mu, lock, ok := lockTarget(pkg.Info, x); ok {
				if !lock {
					for i := len(held) - 1; i >= 0; i-- {
						if held[i].mu == mu {
							held = append(held[:i], held[i+1:]...)
							break
						}
					}
					return true
				}
				if kind == "shard" && shard != "" {
					p.Reportf(x.Pos(), "acquires shard lock %s while already holding shard lock %s (no goroutine may hold two shard mutexes)", mu, shard)
				}
				if session := first("session"); kind == "shard" && session != "" {
					p.Reportf(x.Pos(), "acquires shard lock %s while session lock %s is held (lock order: shard.mu before session.mu)", mu, session)
				}
				held = append(held, heldLock{kind: kind, mu: mu, pos: x.Pos()})
				return true
			}
			if base, ok := heapDQBase(pkg, x); ok {
				if !heldMu(held, base+".mu") {
					p.Reportf(x.Pos(), "deadline-heap mutation of %s.dq without holding %s.mu (the heap is owned by its shard's lock)", base, base)
				}
				return true
			}
			fn := StaticCallee(pkg, x)
			if shard != "" {
				if desc := directForbiddenCall(pkg, x); desc != "" {
					p.Reportf(x.Pos(), "%s while shard lock %s is held", desc, shard)
				} else if fn != nil && p.Prog.FuncOf(fn) != nil {
					if desc, ok := facts.Get(fn, factLockUnsafe); ok {
						p.Reportf(x.Pos(), "calls %s, which %s, while shard lock %s is held", fn.Name(), desc, shard)
					}
					if desc, ok := facts.Get(fn, factLocksShard); ok {
						p.Reportf(x.Pos(), "calls %s, which %s, while shard lock %s is held", fn.Name(), desc, shard)
					}
				}
			}
			if fn != nil && strings.HasSuffix(fn.Name(), "Locked") && p.Prog.FuncOf(fn) != nil &&
				len(held) == 0 && !locked {
				p.Reportf(x.Pos(), "calls %s, which by convention requires its caller to hold a lock, with no lock held", fn.Name())
			}
		case *ast.DeferStmt:
			// A deferred unlock releases at return: for the positional
			// scan the lock simply stays held to the end of the scope,
			// so record it (do not treat it as an immediate unlock). Any
			// other deferred call is classified like a plain one.
			if _, mu, lock, ok := lockTarget(pkg.Info, x.Call); ok && !lock {
				deferred[mu] = true
				return false
			}
		case *ast.RangeStmt:
			if t := pkg.Info.TypeOf(x.X); t != nil && shard != "" {
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					p.Reportf(x.Pos(), "ranges over a channel while shard lock %s is held", shard)
				}
			}
		}
		return true
	})
	leaked(func(h heldLock) {
		p.Reportf(h.pos, "%s is locked but never unlocked in this function (and no deferred unlock)", h.mu)
	})
}

// heldMu reports whether the mutex mu is in the held set.
func heldMu(held []heldLock, mu string) bool {
	for _, h := range held {
		if h.mu == mu {
			return true
		}
	}
	return false
}
