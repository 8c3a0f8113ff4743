// Package lint is swiftvet's analysis framework: a small, dependency-free
// counterpart of golang.org/x/tools/go/analysis built directly on go/ast,
// go/parser and go/types. It exists because this repository's correctness
// rests on invariants the compiler cannot see — virtual-time packages must
// never read the wall clock, bandwidth arithmetic must not mix Mbps with
// bytes, mutex-guarded state must stay guarded, and transport hot paths must
// remain cancellable — and reviewer folklore does not scale. Each invariant
// is an Analyzer; cmd/swiftvet loads every package in the module and runs
// the registered set, failing CI on any diagnostic.
//
// Suppression is explicit and auditable via comment directives:
//
//	//lint:allow <analyzer> <reason>
//
// placed in a file's package-clause doc block (allows the whole package) or
// on/above the offending line (allows that line only). The reason is
// mandatory: an allow without a justification is itself a diagnostic.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// An Analyzer checks one invariant across a package and reports diagnostics
// through the Pass.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and allow directives.
	// Lowercase, no spaces.
	Name string
	// Doc is a one-paragraph description shown by `swiftvet -list`.
	Doc string
	// Run performs the check. Diagnostics go through pass.Reportf; the
	// returned error aborts the whole run (reserve it for internal failures,
	// not findings).
	Run func(pass *Pass) error
}

// deterministicPackages are the packages whose outputs must be a pure
// function of their inputs and seeds: vtcore, seedflow and maporder
// enforce their rules there, and TestOneFanout keeps their parallel work on
// internal/par. Matching by suffix keeps the checks independent of the
// module path.
var deterministicPackages = []string{
	"internal/analysis",
	"internal/claims",
	"internal/core",
	"internal/dataset",
	"internal/deploy",
	"internal/earlystop",
	"internal/exper",
	"internal/faults",
	"internal/fleet",
	"internal/gmm",
	"internal/linksim",
	"internal/loadgen",
	"internal/ranprofile",
}

// registry holds all known analyzers, keyed by name.
var registry = map[string]*Analyzer{}

// Register adds an analyzer to the global registry. It panics on a duplicate
// or empty name — both are programmer errors caught at init time.
func Register(a *Analyzer) {
	if a.Name == "" || a.Run == nil {
		panic("lint: Register: analyzer needs a name and a Run function")
	}
	if _, dup := registry[a.Name]; dup {
		panic(fmt.Sprintf("lint: Register: duplicate analyzer %q", a.Name))
	}
	registry[a.Name] = a
}

// Lookup returns the registered analyzer with the given name, or nil.
func Lookup(name string) *Analyzer { return registry[name] }

// All returns every registered analyzer, sorted by name for stable output.
func All() []*Analyzer {
	out := make([]*Analyzer, 0, len(registry))
	for _, a := range registry {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// A Diagnostic is one finding: a position, the analyzer that produced it,
// a human-readable message, and optionally a machine-applicable fix.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
	// Fix, when non-nil, is a textual edit that resolves the diagnostic.
	// `swiftvet -fix` applies it; `swiftvet -json` serialises it for CI.
	Fix *Fix
}

// A Fix is one machine-applicable resolution: a short description and the
// textual edits that implement it. Edits within one fix never overlap.
type Fix struct {
	// Message describes the fix ("replace %v with %w"), shown when applied.
	Message string `json:"message"`
	// Edits are the resolved byte-offset replacements.
	Edits []FixEdit `json:"edits"`
}

// A FixEdit replaces the bytes [Start, End) of File with NewText. Offsets
// are byte offsets into the file as parsed (insertions have Start == End).
type FixEdit struct {
	File    string `json:"file"`
	Start   int    `json:"start"`
	End     int    `json:"end"`
	NewText string `json:"new_text"`
}

// A TextEdit is the analyzer-side form of an edit, in token.Pos space; the
// Pass resolves it to a FixEdit when the diagnostic is reported.
type TextEdit struct {
	Pos, End token.Pos
	NewText  string
}

// A SuggestedFix bundles the analyzer-side edits of one fix.
type SuggestedFix struct {
	Message string
	Edits   []TextEdit
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// A Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	PkgPath  string
	Pkg      *types.Package
	Info     *types.Info

	directives *directiveIndex
	report     func(Diagnostic)
}

// Reportf records a diagnostic at pos unless an allow directive suppresses
// it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.reportWith(pos, nil, format, args...)
}

// ReportWithFix records a diagnostic carrying a machine-applicable fix. The
// fix's token.Pos edits are resolved to file/byte-offset form here, so
// consumers (the -fix applier, the -json emitter) never need the FileSet.
func (p *Pass) ReportWithFix(pos token.Pos, fix SuggestedFix, format string, args ...any) {
	resolved := &Fix{Message: fix.Message}
	for _, e := range fix.Edits {
		start, end := p.Fset.Position(e.Pos), p.Fset.Position(e.End)
		if start.Filename == "" || start.Filename != end.Filename || start.Offset > end.Offset {
			// A malformed edit is an analyzer bug; degrade to a fixless
			// diagnostic rather than corrupting a source file.
			resolved = nil
			break
		}
		resolved.Edits = append(resolved.Edits, FixEdit{
			File:    start.Filename,
			Start:   start.Offset,
			End:     end.Offset,
			NewText: e.NewText,
		})
	}
	p.reportWith(pos, resolved, format, args...)
}

func (p *Pass) reportWith(pos token.Pos, fix *Fix, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.directives != nil && p.directives.allows(p.Analyzer.Name, position) {
		return
	}
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      position,
		Message:  fmt.Sprintf(format, args...),
		Fix:      fix,
	})
}

// RunAnalyzers applies each analyzer to the package and returns the
// surviving diagnostics sorted by position. Malformed allow directives are
// reported under the pseudo-analyzer "lint".
func (pkg *Package) RunAnalyzers(analyzers []*Analyzer) ([]Diagnostic, error) {
	idx, badDirectives := indexDirectives(pkg.Fset, pkg.Files)
	var diags []Diagnostic
	diags = append(diags, badDirectives...)
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:   a,
			Fset:       pkg.Fset,
			Files:      pkg.Files,
			PkgPath:    pkg.PkgPath,
			Pkg:        pkg.Types,
			Info:       pkg.Info,
			directives: idx,
			report:     func(d Diagnostic) { diags = append(diags, d) },
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("lint: analyzer %s on %s: %w", a.Name, pkg.PkgPath, err)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return diags, nil
}

// directivePattern matches "//lint:allow <names> <reason>"; names may be a
// comma-separated list of analyzer names.
var directivePattern = regexp.MustCompile(`^//lint:(\w+)(?:\s+(\S+))?(?:\s+(.*))?$`)

// directiveIndex records where allow directives apply.
type directiveIndex struct {
	// pkgLevel holds analyzer names allowed for the entire package (a
	// directive in any file's package-clause doc block).
	pkgLevel map[string]bool
	// lineLevel maps analyzer name -> filename -> set of allowed lines. A
	// directive on line N allows lines N and N+1, covering both the
	// trailing-comment and the comment-above idioms.
	lineLevel map[string]map[string]map[int]bool
}

func (idx *directiveIndex) allows(analyzer string, pos token.Position) bool {
	if idx.pkgLevel[analyzer] {
		return true
	}
	byFile := idx.lineLevel[analyzer]
	if byFile == nil {
		return false
	}
	return byFile[pos.Filename][pos.Line]
}

// indexDirectives scans every comment in the package for lint directives.
// Malformed directives — unknown verb, missing analyzer name or missing
// reason — come back as diagnostics so a typo cannot silently disable a
// check.
func indexDirectives(fset *token.FileSet, files []*ast.File) (*directiveIndex, []Diagnostic) {
	idx := &directiveIndex{
		pkgLevel:  map[string]bool{},
		lineLevel: map[string]map[string]map[int]bool{},
	}
	var bad []Diagnostic
	report := func(pos token.Pos, format string, args ...any) {
		bad = append(bad, Diagnostic{
			Analyzer: "lint",
			Pos:      fset.Position(pos),
			Message:  fmt.Sprintf(format, args...),
		})
	}
	for _, f := range files {
		pkgLine := fset.Position(f.Package).Line
		for _, group := range f.Comments {
			for _, c := range group.List {
				if !strings.HasPrefix(c.Text, "//lint:") {
					continue
				}
				text := c.Text
				// A trailing "// ..." inside the same comment (fixture want
				// expectations, editor annotations) is not part of the
				// directive.
				if i := strings.Index(text[2:], "//"); i >= 0 {
					text = strings.TrimSpace(text[:i+2])
				}
				m := directivePattern.FindStringSubmatch(text)
				if m == nil || m[1] != "allow" {
					report(c.Pos(), "malformed lint directive %q (expect //lint:allow <analyzer> <reason>)", text)
					continue
				}
				names, reason := m[2], strings.TrimSpace(m[3])
				if names == "" {
					report(c.Pos(), "lint directive missing analyzer name (expect //lint:allow <analyzer> <reason>)")
					continue
				}
				if reason == "" {
					report(c.Pos(), "lint directive allows %q without a reason — justify the exemption", names)
					continue
				}
				line := fset.Position(c.Pos()).Line
				for _, name := range strings.Split(names, ",") {
					if name = strings.TrimSpace(name); name == "" {
						continue
					}
					if Lookup(name) == nil {
						report(c.Pos(), "lint directive allows unknown analyzer %q", name)
						continue
					}
					if line <= pkgLine {
						idx.pkgLevel[name] = true
						continue
					}
					filename := fset.Position(c.Pos()).Filename
					if idx.lineLevel[name] == nil {
						idx.lineLevel[name] = map[string]map[int]bool{}
					}
					if idx.lineLevel[name][filename] == nil {
						idx.lineLevel[name][filename] = map[int]bool{}
					}
					idx.lineLevel[name][filename][line] = true
					idx.lineLevel[name][filename][line+1] = true
				}
			}
		}
	}
	return idx, bad
}
