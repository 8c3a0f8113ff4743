package lint

import (
	"go/ast"
	"go/types"
	"slices"
	"strings"
	"testing"
)

// TestOneFanout keeps internal/par the one worker pool of the deterministic
// packages: their non-test files hold no go statement and no use of
// runtime.GOMAXPROCS or runtime.NumCPU. A pool of their own would pick its
// own worker rule, and its outputs would have to be shown worker-invariant
// again; par.For writes item i into slot i and reads GOMAXPROCS in one
// place.
func TestOneFanout(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the module with go list -export")
	}
	mod, err := Load("../..", "./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	found := map[string]bool{}
	for _, pkg := range mod {
		i := slices.IndexFunc(deterministicPackages, func(suffix string) bool {
			return strings.HasSuffix(pkg.PkgPath, suffix)
		})
		if i < 0 {
			continue
		}
		found[deterministicPackages[i]] = true
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.GoStmt:
					t.Errorf("%s: go statement; run the work on par.For", pkg.Fset.Position(n.Pos()))
				case *ast.Ident:
					fn, ok := pkg.Info.Uses[n].(*types.Func)
					if ok && fn.Pkg() != nil && fn.Pkg().Path() == "runtime" && (fn.Name() == "GOMAXPROCS" || fn.Name() == "NumCPU") {
						t.Errorf("%s: runtime.%s; par.For alone picks the worker count", pkg.Fset.Position(n.Pos()), fn.Name())
					}
				}
				return true
			})
		}
	}
	for _, suffix := range deterministicPackages {
		if !found[suffix] {
			t.Errorf("no package of the module ends in %s; drop it from deterministicPackages", suffix)
		}
	}
}
