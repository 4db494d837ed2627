package harmony_test

import (
	"go/types"
	"path"
	"slices"
	"sort"
	"strings"
	"testing"

	"harmony/internal/analysis"
)

// exportCeiling is the number of exported names that
// TestExportedNamesHaveOutsideCallers counts. A change that lowers the
// count lowers the ceiling in the same commit.
const exportCeiling = 39

// exportExceptions are exported names that no non-test code outside
// their package uses and that stay exported anyway, one line each with
// its reason. They are not counted.
var exportExceptions = map[string]string{
	"proto.StrategyCoordinate":     "a wire name: search and server tests register with it",
	"proto.StrategyExhaustive":     "a wire name: server tests register with it",
	"proto.StrategyRandom":         "a wire name: search and server tests register with it",
	"proto.StrategySystematic":     "a wire name: search and server tests register with it",
	"simmpi.Rank.AllreduceBytes":   "the gs2 coroutine reference test runs it; goes with the coroutine engine",
	"simmpi.Rank.Barrier":          "the pop coroutine reference test runs it; goes with the coroutine engine",
	"simmpi.Rank.Sleep":            "the gs2 and pop coroutine reference tests run it; goes with the coroutine engine",
	"sparse.CSR.MulVec":            "the serial product ksp's solver tests check residuals against",
	"sparse.VariableBandLaplacian": "the valued serial reference petscsim's numeric SLES test solves",
}

// TestExportedNamesHaveOutsideCallers is a ratchet on the exported
// surface of the module's library packages. It loads every non-test
// file of the module and counts the exported names of the non-main
// packages (package-level names, and the methods of exported types)
// that no non-test code outside their own package uses. The test fails
// when that count differs from exportCeiling.
//
// A name counts as used when:
//   - an identifier in another package's non-test code resolves to it
//     (a use of a generic instance resolves to its origin);
//   - it is a method that implements a method of an interface declared
//     in the module, or is String or Error;
//   - it belongs to the root harmony facade, or is a method of a type
//     the facade re-exports by alias: those are the public API.
func TestExportedNamesHaveOutsideCallers(t *testing.T) {
	unused, err := exportedWithoutOutsideCallers()
	if err != nil {
		t.Fatal(err)
	}
	counted := 0
	var names []string
	for _, name := range unused {
		if _, ok := exportExceptions[name]; ok {
			continue
		}
		counted++
		names = append(names, name)
	}
	for name := range exportExceptions {
		if !slices.Contains(unused, name) {
			t.Errorf("exception %s: the name is gone or now has an outside caller; delete its line", name)
		}
	}
	switch {
	case counted > exportCeiling:
		t.Errorf("%d exported names have no non-test caller outside their package, above the ceiling of %d. "+
			"Unexport or delete the new one, or give it a caller:\n  %s",
			counted, exportCeiling, strings.Join(names, "\n  "))
	case counted < exportCeiling:
		t.Errorf("%d exported names have no non-test caller outside their package, below the ceiling of %d: "+
			"lower exportCeiling to %d", counted, exportCeiling, counted)
	}
}

// exportedWithoutOutsideCallers returns, sorted, the exported names of
// the module's library packages that TestExportedNamesHaveOutsideCallers
// counts as unused, each as pkg.Name or pkg.Type.Method.
func exportedWithoutOutsideCallers() ([]string, error) {
	l, err := analysis.NewLoader(".")
	if err != nil {
		return nil, err
	}
	pkgs, err := l.Load("./...")
	if err != nil {
		return nil, err
	}

	used := map[types.Object]bool{}
	var ifaces []*types.Interface
	public := map[*types.TypeName]bool{}
	for _, p := range pkgs {
		for _, obj := range p.Info.Uses {
			if obj.Pkg() != nil && obj.Pkg() != p.Types {
				used[origin(obj)] = true
			}
		}
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok && !isGeneric(tn) {
				ifaces = append(ifaces, it)
			}
			if tn.IsAlias() && p.Types.Name() == "harmony" {
				if n, ok := types.Unalias(tn.Type()).(*types.Named); ok {
					public[n.Origin().Obj()] = true
				}
			}
		}
	}
	implements := func(n *types.Named, m *types.Func) bool {
		if m.Name() == "String" || m.Name() == "Error" {
			return true
		}
		if isGeneric(n.Obj()) {
			return false
		}
		for _, it := range ifaces {
			if obj, _, _ := types.LookupFieldOrMethod(it, false, nil, m.Name()); obj == nil {
				continue
			}
			if types.Implements(n, it) || types.Implements(types.NewPointer(n), it) {
				return true
			}
		}
		return false
	}

	var unused []string
	for _, p := range pkgs {
		if p.Types.Name() == "main" || p.Types.Name() == "harmony" {
			continue
		}
		pkg := path.Base(p.Path)
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !obj.Exported() {
				continue
			}
			if !used[obj] {
				unused = append(unused, pkg+"."+name)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() || public[tn] {
				continue
			}
			n, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < n.NumMethods(); i++ {
				m := n.Method(i)
				if m.Exported() && !used[m] && !implements(n, m) {
					unused = append(unused, pkg+"."+name+"."+m.Name())
				}
			}
		}
	}
	sort.Strings(unused)
	return unused, nil
}

// origin maps a use of a generic instance's function, method or field
// to the object its declaration defines.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

func isGeneric(tn *types.TypeName) bool {
	n, ok := tn.Type().(*types.Named)
	return ok && n.TypeParams().Len() > 0
}
