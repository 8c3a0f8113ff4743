package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"github.com/mobilebandwidth/swiftest/internal/lint"
)

// TestSelfCheck runs every analyzer over the whole module: the repository
// must stay swiftvet-clean, so a violation (or a rotted allow directive)
// fails the ordinary test suite, not just the dedicated CI step.
func TestSelfCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("self-check shells out to go list -export")
	}
	pkgs, err := lint.Load("../..", "./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	analyzers := lint.All()
	if len(analyzers) < 10 {
		t.Fatalf("expected at least 10 registered analyzers, got %d", len(analyzers))
	}
	for _, pkg := range pkgs {
		diags, err := pkg.RunAnalyzers(analyzers)
		if err != nil {
			t.Fatalf("running analyzers on %s: %v", pkg.PkgPath, err)
		}
		for _, d := range diags {
			t.Errorf("%s", d)
		}
	}
}

// TestUnknownAnalyzerExitsTwo pins the usage contract: a typo in -analyzers
// is a hard usage failure (exit 2), not a silently empty run.
func TestUnknownAnalyzerExitsTwo(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-analyzers", "walltime,nope"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit code = %d, want 2; stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), `unknown analyzer "nope"`) {
		t.Errorf("stderr %q should name the unknown analyzer", stderr.String())
	}
}

// TestEmptySelectionExitsTwo: -analyzers "," resolves to no analyzers at
// all, which would vacuously pass — reject it the same way.
func TestEmptySelectionExitsTwo(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-analyzers", " , "}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit code = %d, want 2; stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "selects nothing") {
		t.Errorf("stderr %q should explain the empty selection", stderr.String())
	}
}

// TestListNamesAllAnalyzers keeps -list in sync with the registry.
func TestListNamesAllAnalyzers(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code = %d, want 0; stderr: %s", code, stderr.String())
	}
	for _, a := range lint.All() {
		if !strings.Contains(stdout.String(), a.Name) {
			t.Errorf("-list output is missing analyzer %s", a.Name)
		}
	}
}

// TestFixRoundTrip proves the headline -fix contract end to end: a module
// with errwrap violations is rewritten in place, the rewritten source
// compiles, and a second swiftvet pass over it is diagnostic-free.
func TestFixRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a throwaway module with the go tool")
	}
	dir := t.TempDir()
	// The package lives under internal/core so the errwrap suffix matches.
	pkgDir := filepath.Join(dir, "internal", "core")
	if err := os.MkdirAll(pkgDir, 0o755); err != nil {
		t.Fatal(err)
	}
	writeFile(t, filepath.Join(dir, "go.mod"), "module tmpmod\n\ngo 1.24\n")
	writeFile(t, filepath.Join(pkgDir, "core.go"), `package core

import (
	"errors"
	"fmt"
)

var errBoom = errors.New("boom")

func Wrap(err error) error {
	return fmt.Errorf("op: %v", err)
}

func IsBoom(err error) bool {
	return err == errBoom
}
`)
	t.Chdir(dir)

	var stdout, stderr bytes.Buffer
	if code := run([]string{"./..."}, &stdout, &stderr); code != 1 {
		t.Fatalf("pre-fix exit code = %d, want 1; stdout: %s stderr: %s", code, stdout.String(), stderr.String())
	}
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-fix", "./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("-fix exit code = %d, want 0; stdout: %s stderr: %s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "2 fix(es) applied") {
		t.Errorf("-fix summary %q should report 2 applied fixes", stdout.String())
	}

	fixed, err := os.ReadFile(filepath.Join(pkgDir, "core.go"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`fmt.Errorf("op: %w", err)`, "errors.Is(err, errBoom)"} {
		if !strings.Contains(string(fixed), want) {
			t.Errorf("fixed source is missing %q:\n%s", want, fixed)
		}
	}

	if out, err := exec.Command("go", "build", "./...").CombinedOutput(); err != nil {
		t.Fatalf("fixed module does not compile: %v\n%s", err, out)
	}
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("post-fix exit code = %d, want 0; stdout: %s stderr: %s", code, stdout.String(), stderr.String())
	}
}

// TestJSONOutput checks the -json wire format on the same throwaway module.
func TestJSONOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a throwaway module with the go tool")
	}
	dir := t.TempDir()
	pkgDir := filepath.Join(dir, "internal", "transport")
	if err := os.MkdirAll(pkgDir, 0o755); err != nil {
		t.Fatal(err)
	}
	writeFile(t, filepath.Join(dir, "go.mod"), "module tmpmod\n\ngo 1.24\n")
	writeFile(t, filepath.Join(pkgDir, "t.go"), `package transport

import "fmt"

func Wrap(err error) error {
	return fmt.Errorf("op: %v", err)
}
`)
	t.Chdir(dir)

	var stdout, stderr bytes.Buffer
	if code := run([]string{"-json", "./..."}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit code = %d, want 1; stderr: %s", code, stderr.String())
	}
	for _, want := range []string{
		`"analyzer": "errwrap"`,
		`"line": 6`,
		`"message":`,
		`"new_text": "%w"`,
	} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("-json output is missing %s:\n%s", want, stdout.String())
		}
	}
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkSwiftvet times the nine-analyzer pass over the already-loaded
// module — the marginal cost of the suite once go list -export has run.
func BenchmarkSwiftvet(b *testing.B) {
	pkgs, err := lint.Load("../..", "./...")
	if err != nil {
		b.Fatalf("loading module: %v", err)
	}
	analyzers := lint.All()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, pkg := range pkgs {
			if _, err := pkg.RunAnalyzers(analyzers); err != nil {
				b.Fatal(err)
			}
		}
	}
}
