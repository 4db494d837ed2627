// Command harmonyvet runs the repository's custom static-analysis
// suite: determinism and protocol invariants the compiler cannot
// check. Three analyzers — wallclock, maporder and errdrop (-list
// describes them) — each look at one package at a time, and findings
// are reported only in the packages named. It loads the module's
// packages from source (stdlib go/parser + go/types only), runs every
// analyzer, and prints findings as
//
//	file:line: [analyzer] message
//
// exiting 1 when there are findings (2 on load errors), so it gates
// CI. Suppress an individual finding with a justified directive on or
// directly above the offending line:
//
//	//harmonyvet:ignore <analyzer> <reason>
//
// Usage:
//
//	harmonyvet [-C dir] [-only spec] [-json] [-list] [patterns...]
//
// Patterns are package directories or recursive "dir/..." forms,
// resolved against the module root; the default is "./...".
//
// The -only spec is a comma-separated list of analyzer names. A name
// prefixed with "-" excludes instead of selects: "-only -errdrop"
// runs everything except errdrop, "-only errdrop,maporder" runs
// exactly those two. -json emits findings as a JSON array (the CI
// artifact format).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"harmony/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("harmonyvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("C", ".", "run as if started in `dir`")
	only := fs.String("only", "", "comma-separated `analyzers` to run; -name excludes (default: all)")
	asJSON := fs.Bool("json", false, "print findings as a JSON array")
	list := fs.Bool("list", false, "list analyzers and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range analysis.All() {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	analyzers, err := selectAnalyzers(*only)
	if err != nil {
		fmt.Fprintf(stderr, "harmonyvet: %v\n", err)
		return 2
	}

	loader, err := analysis.NewLoader(*dir)
	if err != nil {
		fmt.Fprintf(stderr, "harmonyvet: %v\n", err)
		return 2
	}
	pkgs, err := loader.Load(fs.Args()...)
	if err != nil {
		fmt.Fprintf(stderr, "harmonyvet: %v\n", err)
		return 2
	}
	findings := analysis.Run(pkgs, analyzers)
	if *asJSON {
		if err := writeJSON(stdout, findings); err != nil {
			fmt.Fprintf(stderr, "harmonyvet: %v\n", err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Fprintln(stdout, f)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "harmonyvet: %d finding(s) in %d package(s)\n", len(findings), len(pkgs))
		return 1
	}
	return 0
}

// selectAnalyzers resolves the -only spec. Plain names select; names
// prefixed with "-" exclude from the running set (seeded with the
// full suite when the spec opens with an exclusion).
func selectAnalyzers(spec string) ([]*analysis.Analyzer, error) {
	if spec == "" {
		return analysis.All(), nil
	}
	var out []*analysis.Analyzer
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		if excl, ok := strings.CutPrefix(name, "-"); ok {
			a := analysis.ByName(excl)
			if a == nil {
				return nil, fmt.Errorf("unknown analyzer %q", excl)
			}
			if len(out) == 0 {
				out = analysis.All()
			}
			kept := out[:0]
			for _, have := range out {
				if have != a {
					kept = append(kept, have)
				}
			}
			out = kept
			continue
		}
		a := analysis.ByName(name)
		if a == nil {
			return nil, fmt.Errorf("unknown analyzer %q", name)
		}
		out = append(out, a)
	}
	return out, nil
}

// jsonFinding is the machine-readable finding shape uploaded as a CI
// artifact.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// writeJSON emits the findings as a JSON array ("[]" for a clean
// tree, so consumers always parse the same shape).
func writeJSON(w io.Writer, findings []analysis.Finding) error {
	out := make([]jsonFinding, 0, len(findings))
	for _, f := range findings {
		out = append(out, jsonFinding{
			File:     f.Pos.Filename,
			Line:     f.Pos.Line,
			Column:   f.Pos.Column,
			Analyzer: f.Analyzer,
			Message:  f.Message,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
