package main

import (
	"go/ast"
	"go/types"
	"testing"

	"github.com/mobilebandwidth/swiftest/internal/lint"
)

// fanoutPackages are the virtual-time packages under internal/ whose
// parallel work runs on par.For.
var fanoutPackages = []string{
	"dataset", "faults", "fleet", "loadgen", "linksim", "deploy",
	"core", "ranprofile", "earlystop", "exper", "analysis", "claims",
}

// TestOneFanout keeps internal/par the one worker pool of fanoutPackages:
// their non-test files hold no go statement and no use of
// runtime.GOMAXPROCS or runtime.NumCPU. A pool of their own would pick its
// own worker rule, and its outputs would have to be shown worker-invariant
// again; par.For writes item i into slot i and reads GOMAXPROCS in one
// place.
func TestOneFanout(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the module with go list -export")
	}
	mod, err := lint.Load("../..", "./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	checked := map[string]bool{}
	for _, name := range fanoutPackages {
		checked[internalPath+name] = false
	}
	for _, pkg := range mod {
		if _, ok := checked[pkg.PkgPath]; !ok {
			continue
		}
		checked[pkg.PkgPath] = true
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
	for path, ok := range checked {
		if !ok {
			t.Errorf("%s is not in the module; drop it from fanoutPackages", path)
		}
	}
}
