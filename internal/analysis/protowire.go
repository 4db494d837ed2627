package analysis

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// protowireAnalyzer keeps the binary wire protocol structurally
// complete. The binary frame format (internal/proto/binary.go) pairs
// every field with a `tag<Name>` constant; a tag that is encoded but
// never decoded is silently dropped on the wire, one decoded but
// never encoded is dead weight that masks a missing encode arm, and a
// Message field without a tag constant quietly falls out of the
// binary protocol while still travelling over JSON. Three checks:
//
//  1. every `tag*` constant is used both outside a case clause (the
//     encode arm) and inside one (the decode arm);
//  2. Message struct fields and tag constants stay in bijection —
//     field Foo ⇔ const tagFoo (JSON-only fields carry an explicit
//     suppression with the reason they are excluded from the frame);
//  3. the decode switch has a default arm that acts (calls a failure
//     or skip handler), so an unknown tag from a newer peer cannot be
//     silently swallowed as an empty case.
var protowireAnalyzer = &Analyzer{
	Name:    "protowire",
	Doc:     "binary-frame tags have encode and decode arms; fields and tags stay in bijection",
	Applies: baseIn("proto", "protowire"),
	Run: func(p *Pass) {
		for _, pkg := range p.Packages() {
			checkWireTags(p, pkg)
		}
	},
}

// checkWireTags runs the three checks over one package.
func checkWireTags(p *Pass, pkg *Package) {
	info := pkg.Info

	// Tag constants: package-level consts named tag<Upper...> of
	// integer type.
	type tagConst struct {
		obj  *types.Const
		decl *ast.Ident
	}
	tags := make(map[string]*tagConst)
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, name := range vs.Names {
					if !isTagName(name.Name) {
						continue
					}
					c, ok := info.Defs[name].(*types.Const)
					if !ok || c.Type() == nil {
						continue
					}
					if b, ok := c.Type().Underlying().(*types.Basic); !ok || b.Info()&types.IsInteger == 0 {
						continue
					}
					tags[name.Name] = &tagConst{obj: c, decl: name}
				}
			}
		}
	}
	if len(tags) == 0 {
		return
	}

	// Classify every use of a tag constant: inside a case clause's
	// expression list = decode arm, anywhere else = encode arm. A
	// switch whose cases resolve to tag constants is a decode switch
	// and must have a default that does something.
	caseIdent := make(map[*ast.Ident]bool)
	encode := make(map[string]bool)
	decode := make(map[string]bool)
	inspect(pkg, func(n ast.Node) bool {
		sw, ok := n.(*ast.SwitchStmt)
		if !ok {
			return true
		}
		tagCases := 0
		var deflt *ast.CaseClause
		for _, stmt := range sw.Body.List {
			cc, ok := stmt.(*ast.CaseClause)
			if !ok {
				continue
			}
			if cc.List == nil {
				deflt = cc
				continue
			}
			for _, e := range cc.List {
				ast.Inspect(e, func(m ast.Node) bool {
					if id, ok := m.(*ast.Ident); ok {
						if c, ok := info.Uses[id].(*types.Const); ok && isTagName(id.Name) && tags[id.Name] != nil && tags[id.Name].obj == c {
							caseIdent[id] = true
							tagCases++
						}
					}
					return true
				})
			}
		}
		if tagCases >= 2 {
			switch {
			case deflt == nil:
				p.Reportf(sw.Pos(), "decode switch over wire tags has no default: an unknown tag from a newer peer would fall through silently")
			case !bodyActs(deflt.Body):
				p.Reportf(deflt.Pos(), "decode switch default is inert: unknown wire tags must be failed or explicitly skipped, not swallowed")
			}
		}
		return true
	})
	inspect(pkg, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		tc := tags[id.Name]
		if tc == nil {
			return true
		}
		if c, ok := info.Uses[id].(*types.Const); !ok || c != tc.obj {
			return true
		}
		if caseIdent[id] {
			decode[id.Name] = true
		} else {
			encode[id.Name] = true
		}
		return true
	})

	// The Message struct, for the field ⇔ tag bijection.
	var msgFields []*ast.Ident
	inspect(pkg, func(n ast.Node) bool {
		ts, ok := n.(*ast.TypeSpec)
		if !ok || ts.Name.Name != "Message" {
			return true
		}
		st, ok := ts.Type.(*ast.StructType)
		if !ok {
			return true
		}
		for _, f := range st.Fields.List {
			msgFields = append(msgFields, f.Names...)
		}
		return true
	})

	names := make([]string, 0, len(tags))
	for name := range tags {
		names = append(names, name)
	}
	sort.Strings(names)
	fieldSet := make(map[string]bool, len(msgFields))
	for _, f := range msgFields {
		fieldSet[f.Name] = true
	}
	for _, name := range names {
		tc := tags[name]
		if !encode[name] {
			p.Reportf(tc.decl.Pos(), "wire tag %s has no encode arm: the field is never written to binary frames", name)
		}
		if !decode[name] {
			p.Reportf(tc.decl.Pos(), "wire tag %s has no decode arm: peers sending it are silently ignored", name)
		}
		if len(msgFields) > 0 && !fieldSet[strings.TrimPrefix(name, "tag")] {
			p.Reportf(tc.decl.Pos(), "wire tag %s has no matching Message field %s", name, strings.TrimPrefix(name, "tag"))
		}
	}
	for _, f := range msgFields {
		if tags["tag"+f.Name] == nil {
			p.Reportf(f.Pos(), "Message field %s has no wire tag (const tag%s): it travels over JSON but is dropped by the binary protocol", f.Name, f.Name)
		}
	}
}

// isTagName matches the tag-constant naming convention: "tag"
// followed by an exported-style name.
func isTagName(name string) bool {
	return len(name) > 3 && strings.HasPrefix(name, "tag") &&
		name[3] >= 'A' && name[3] <= 'Z'
}

// bodyActs reports whether a default clause's body performs an
// action (a call — d.fail, a skip helper, panic) rather than sitting
// empty or only assigning.
func bodyActs(body []ast.Stmt) bool {
	acts := false
	for _, stmt := range body {
		ast.Inspect(stmt, func(n ast.Node) bool {
			if _, ok := n.(*ast.CallExpr); ok {
				acts = true
			}
			return !acts
		})
	}
	return acts
}
