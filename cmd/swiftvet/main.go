// Command swiftvet runs the repository's custom static-analysis suite
// (package internal/lint) over the module. Ten analyzers enforce the
// invariants the compiler cannot see: virtual-time discipline (walltime),
// bandwidth-unit consistency (units), mutex-guarded state (lockedfields),
// cancellable network paths (ctxflow), virtual-time core hygiene (vtcore),
// seeded randomness in deterministic packages (seedflow), map-iteration
// order leaking into digests and encoders (maporder), allocation-free
// annotated hot paths (hotpath), %w/errors.Is error discipline (errwrap),
// and one exported entry point per operation (onepath).
//
// Usage:
//
//	swiftvet [-analyzers name,name] [-list] [-json] [-fix] [packages...]
//
// Patterns default to ./... . Diagnostics print as
// file:line:col: message [analyzer]; the exit code is 1 when any
// diagnostic fires and 2 on loading failure, making
// `go run ./cmd/swiftvet ./...` a CI gate.
//
// -json emits the diagnostics as a JSON array instead — one object per
// finding with analyzer, file, line, col, message, and the suggested fix
// when the analyzer attached one — for CI annotation pipelines.
//
// -fix applies every suggested fix to the files in place and prints an
// applied/skipped summary. The exit code is 0 when every diagnostic carried
// a fix that applied, 1 while unfixed (or unfixable) diagnostics remain.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"github.com/mobilebandwidth/swiftest/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// jsonDiagnostic is the -json wire form of one finding.
type jsonDiagnostic struct {
	Analyzer string    `json:"analyzer"`
	File     string    `json:"file"`
	Line     int       `json:"line"`
	Col      int       `json:"col"`
	Message  string    `json:"message"`
	Fix      *lint.Fix `json:"fix,omitempty"`
}

func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("swiftvet", flag.ContinueOnError)
	flags.SetOutput(stderr)
	list := flags.Bool("list", false, "list registered analyzers and exit")
	names := flags.String("analyzers", "", "comma-separated analyzer subset (default: all)")
	asJSON := flags.Bool("json", false, "emit diagnostics as a JSON array")
	fix := flags.Bool("fix", false, "apply suggested fixes to the files in place")
	if err := flags.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, a := range lint.All() {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	analyzers, err := selectAnalyzers(*names)
	if err != nil {
		fmt.Fprintf(stderr, "swiftvet: %v\n", err)
		return 2
	}

	patterns := flags.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.Load(".", patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "swiftvet: %v\n", err)
		return 2
	}

	var diags []lint.Diagnostic
	for _, pkg := range pkgs {
		ds, err := pkg.RunAnalyzers(analyzers)
		if err != nil {
			fmt.Fprintf(stderr, "swiftvet: %v\n", err)
			return 2
		}
		diags = append(diags, ds...)
	}

	if *fix {
		res, err := lint.ApplyFixes(diags)
		if err != nil {
			fmt.Fprintf(stderr, "swiftvet: applying fixes: %v\n", err)
			return 2
		}
		fmt.Fprintf(stdout, "swiftvet: %d fix(es) applied, %d skipped, %d diagnostic(s) without a fix\n",
			res.Applied, res.Skipped, len(diags)-res.Applied-res.Skipped)
		for _, f := range res.Files {
			fmt.Fprintf(stdout, "rewrote %s\n", f)
		}
		if res.Applied == len(diags) {
			return 0
		}
		return 1
	}

	if *asJSON {
		out := make([]jsonDiagnostic, 0, len(diags))
		for _, d := range diags {
			out = append(out, jsonDiagnostic{
				Analyzer: d.Analyzer,
				File:     d.Pos.Filename,
				Line:     d.Pos.Line,
				Col:      d.Pos.Column,
				Message:  d.Message,
				Fix:      d.Fix,
			})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(stderr, "swiftvet: encoding diagnostics: %v\n", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

// selectAnalyzers resolves the -analyzers flag: empty means all, otherwise a
// comma-separated subset where every name must be registered and the
// selection must be non-empty.
func selectAnalyzers(names string) ([]*lint.Analyzer, error) {
	if names == "" {
		return lint.All(), nil
	}
	var out []*lint.Analyzer
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		a := lint.Lookup(name)
		if a == nil {
			return nil, fmt.Errorf("unknown analyzer %q (try -list)", name)
		}
		out = append(out, a)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-analyzers %q selects nothing", names)
	}
	return out, nil
}
