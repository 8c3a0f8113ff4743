package lint

// The fixture harness: analyzer tests are Go source strings with inline
// `// want "regexp"` expectations, in the spirit of analysistest from
// x/tools but dependency-free. A line with a want comment must produce a
// matching diagnostic; any diagnostic without a matching want fails the
// test. Fixtures are parsed with go/parser and fully type-checked, with
// stdlib imports resolved from `go list -export` build-cache export data.

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// stdlibExports lazily maps import paths to export-data files, covering
// everything a fixture may import (plus transitive deps). The module's own
// internal/errdefs rides along so error-discipline fixtures can exercise
// the real sentinels.
var stdlibExports = struct {
	sync.Once
	files map[string]string
	err   error
}{}

func stdlibExportLookup(path string) (io.ReadCloser, error) {
	stdlibExports.Do(func() {
		out, err := exec.Command("go", "list", "-deps", "-export",
			"-f", "{{.ImportPath}}\t{{.Export}}",
			"context", "crypto/sha256", "encoding/json", "errors", "fmt", "hash",
			"io", "math/rand", "math/rand/v2", "net", "net/http", "sort", "sync", "time",
			"github.com/mobilebandwidth/swiftest/internal/errdefs").Output()
		if err != nil {
			stdlibExports.err = fmt.Errorf("go list -export for stdlib: %w", err)
			return
		}
		stdlibExports.files = map[string]string{}
		for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
			if name, file, ok := strings.Cut(line, "\t"); ok && file != "" {
				stdlibExports.files[name] = file
			}
		}
	})
	if stdlibExports.err != nil {
		return nil, stdlibExports.err
	}
	file, ok := stdlibExports.files[path]
	if !ok {
		return nil, fmt.Errorf("fixture imports %q, which is not preloaded in stdlibExportLookup", path)
	}
	return os.Open(file)
}

// want is one expectation: a diagnostic matching rx on (file, line).
type want struct {
	file string
	line int
	rx   *regexp.Regexp
}

var wantPattern = regexp.MustCompile(`// want "((?:[^"\\]|\\.)*)"`)

// loadFixture parses, want-scans and type-checks the fixture files
// (name -> source), returning the analyzable package and the expectations.
func loadFixture(t *testing.T, pkgPath string, files map[string]string) (*Package, []*want) {
	t.Helper()
	fset := token.NewFileSet()
	var (
		parsed []*ast.File
		wants  []*want
	)
	for name, src := range files {
		f, err := parser.ParseFile(fset, name, src, parser.ParseComments)
		if err != nil {
			t.Fatalf("parsing fixture %s: %v", name, err)
		}
		parsed = append(parsed, f)
		for i, line := range strings.Split(src, "\n") {
			m := wantPattern.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			text, err := unquoteWant(m[1])
			if err != nil {
				t.Fatalf("%s:%d: bad want string: %v", name, i+1, err)
			}
			rx, err := regexp.Compile(text)
			if err != nil {
				t.Fatalf("%s:%d: bad want regexp %q: %v", name, i+1, text, err)
			}
			wants = append(wants, &want{file: name, line: i + 1, rx: rx})
		}
	}

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "gc", stdlibExportLookup)}
	tpkg, err := conf.Check(pkgPath, fset, parsed, info)
	if err != nil {
		t.Fatalf("type-checking fixture: %v", err)
	}
	return &Package{PkgPath: pkgPath, Fset: fset, Files: parsed, Types: tpkg, Info: info}, wants
}

// runFixtureCollect runs the analyzer over the fixture and returns the raw
// diagnostics — for fix-engine tests that need the resolved edits.
func runFixtureCollect(t *testing.T, analyzer *Analyzer, pkgPath string, files map[string]string) []Diagnostic {
	t.Helper()
	pkg, _ := loadFixture(t, pkgPath, files)
	diags, err := pkg.RunAnalyzers([]*Analyzer{analyzer})
	if err != nil {
		t.Fatalf("running %s: %v", analyzer.Name, err)
	}
	return diags
}

// runFixture type-checks the fixture files (name -> source), runs the
// analyzer, and matches diagnostics against the // want comments.
func runFixture(t *testing.T, analyzer *Analyzer, pkgPath string, files map[string]string) {
	t.Helper()
	pkg, wants := loadFixture(t, pkgPath, files)
	diags, err := pkg.RunAnalyzers([]*Analyzer{analyzer})
	if err != nil {
		t.Fatalf("running %s: %v", analyzer.Name, err)
	}

	matched := make([]bool, len(wants))
	for _, d := range diags {
		ok := false
		for i, w := range wants {
			if !matched[i] && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.rx.MatchString(d.Message) {
				matched[i] = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for i, w := range wants {
		if !matched[i] {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.rx)
		}
	}
}

// unquoteWant undoes the \" escapes allowed inside want strings.
func unquoteWant(s string) (string, error) {
	return strings.ReplaceAll(s, `\"`, `"`), nil
}
