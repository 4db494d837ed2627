package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"path"
	"sort"
	"strings"
)

// Finding is one analyzer diagnostic, printed as
// "file:line: [analyzer] message".
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Analyzer, f.Message)
}

// Analyzer is one named check over the program.
type Analyzer struct {
	// Name identifies the analyzer in findings and in
	// //harmonyvet:ignore directives.
	Name string
	// Doc is a one-line description.
	Doc string
	// Applies reports whether the analyzer runs on the package with
	// the given import path. Selection is by final path element, so
	// fixture packages under testdata/src/<name> are analyzed exactly
	// like the real package of the same name.
	Applies func(pkgPath string) bool
	// run inspects the packages the analyzer applies to and reports
	// findings through the pass.
	run func(p *pass)
}

// pass carries one analyzer's run over the packages named by the run's
// patterns: the set the user asked to vet and the only one findings
// are reported in.
type pass struct {
	analyzer *Analyzer
	pkgs     []*Package
	findings []Finding
}

// reportf records a finding at pos.
func (p *pass) reportf(pos token.Pos, format string, args ...any) {
	p.findings = append(p.findings, Finding{
		Pos:      fileSet.Position(pos),
		Analyzer: p.analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// packages returns the pattern packages the analyzer applies to: the
// packages it reports on.
func (p *pass) packages() []*Package {
	var out []*Package
	for _, pkg := range p.pkgs {
		if p.analyzer.Applies == nil || p.analyzer.Applies(pkg.Path) {
			out = append(out, pkg)
		}
	}
	return out
}

// All returns the full analyzer suite in a fixed order.
func All() []*Analyzer {
	return []*Analyzer{
		wallclockAnalyzer,
		maporderAnalyzer,
		errdropAnalyzer,
	}
}

// ByName returns the analyzer with the given name, or nil.
func ByName(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// pkgBase returns the final element of an import path: the package
// selector the Applies filters match on.
func pkgBase(pkgPath string) string { return path.Base(pkgPath) }

// baseIn builds an Applies filter matching a set of final path
// elements.
func baseIn(names ...string) func(string) bool {
	set := make(map[string]bool, len(names))
	for _, n := range names {
		set[n] = true
	}
	return func(pkgPath string) bool { return set[pkgBase(pkgPath)] }
}

// everywhere is the Applies filter of analyzers that run on every
// package of the module.
func everywhere(string) bool { return true }

// A suppression is one directive
//
//	//harmonyvet:ignore <analyzer> <reason>
//
// It suppresses findings of the named analyzer on its own line and on
// the following line, so it can trail the offending statement or sit
// on its own line above it. The reason is mandatory: a directive
// without one is itself reported (as analyzer "harmonyvet"), so every
// suppression in the tree carries a written justification.
type suppression struct {
	file     string
	line     int
	analyzer string
}

// collectSuppressions scans a package's comments for harmonyvet
// directives, collecting ignore suppressions and reporting malformed
// or unknown directives as findings. ignore is the only verb, so a
// stale directive of any other name is reported, and suppresses
// nothing.
func collectSuppressions(pkg *Package) ([]suppression, []Finding) {
	var sups []suppression
	var bad []Finding
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				verb, rest, ok := parseDirective(c.Text)
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				fields := strings.Fields(rest)
				switch {
				case verb != "ignore":
					bad = append(bad, Finding{
						Pos: pos, Analyzer: "harmonyvet",
						Message: fmt.Sprintf("unknown harmonyvet directive %q (known: ignore)", verb),
					})
				case len(fields) == 0 || ByName(fields[0]) == nil:
					bad = append(bad, Finding{
						Pos: pos, Analyzer: "harmonyvet",
						Message: fmt.Sprintf("ignore directive must name a known analyzer (%s)", analyzerNames()),
					})
				case len(fields) < 2:
					bad = append(bad, Finding{
						Pos: pos, Analyzer: "harmonyvet",
						Message: fmt.Sprintf("ignore directive for %q needs a written reason", fields[0]),
					})
				default:
					sups = append(sups, suppression{file: pos.Filename, line: pos.Line, analyzer: fields[0]})
				}
			}
		}
	}
	return sups, bad
}

// parseDirective splits a comment of the form "//harmonyvet:<verb>
// <rest>" into its verb and trailing text.
func parseDirective(comment string) (verb, rest string, ok bool) {
	text := strings.TrimPrefix(comment, "//")
	text = strings.TrimPrefix(text, "/*")
	text = strings.TrimSpace(strings.TrimSuffix(text, "*/"))
	if !strings.HasPrefix(text, "harmonyvet:") {
		return "", "", false
	}
	text = strings.TrimPrefix(text, "harmonyvet:")
	verb, rest, _ = strings.Cut(text, " ")
	return verb, strings.TrimSpace(rest), true
}

func analyzerNames() string {
	var names []string
	for _, a := range All() {
		names = append(names, a.Name)
	}
	return strings.Join(names, ", ")
}

// suppressed reports whether a finding is covered by a directive on
// its line or the line above.
func suppressed(f Finding, sups []suppression) bool {
	for _, s := range sups {
		if s.analyzer == f.Analyzer && s.file == f.Pos.Filename &&
			(s.line == f.Pos.Line || s.line == f.Pos.Line-1) {
			return true
		}
	}
	return false
}

// Run applies the analyzers to the packages, filters suppressed
// findings, and returns the survivors sorted by position. Every
// analyzer reports only in the packages it is handed, so suppressions
// and malformed-directive findings come from those packages alone:
// vetting one directory surfaces nothing about the packages it imports.
func Run(pkgs []*Package, analyzers []*Analyzer) []Finding {
	var out []Finding
	var sups []suppression
	for _, pkg := range pkgs {
		s, bad := collectSuppressions(pkg)
		sups = append(sups, s...)
		out = append(out, bad...)
	}

	for _, a := range analyzers {
		p := &pass{analyzer: a, pkgs: pkgs}
		a.run(p)
		for _, f := range p.findings {
			if !suppressed(f, sups) {
				out = append(out, f)
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Analyzer < b.Analyzer
	})
	return out
}

// inspect walks every file of pkg.
func inspect(pkg *Package, fn func(ast.Node) bool) {
	for _, f := range pkg.Files {
		ast.Inspect(f, fn)
	}
}
