package lint

import (
	"go/ast"
	"go/types"
)

// Walltime flags wall-clock reads and timers in packages that are supposed
// to run entirely in virtual time. The simulation substrate (linksim, gmm,
// deploy, the engine in core, the baselines) must derive every timestamp
// from the injected simulation clock, or experiments stop being
// deterministic and a 10-second virtual test starts taking 10 real seconds.
//
// Every package is treated as virtual-time by default. Deployment-side
// packages that legitimately touch the wall clock (the UDP transport, the
// real-time emulator, command mains) opt out
// with a package-level directive:
//
//	//lint:allow walltime <why this package is real-time>
//
// and individual deployment call sites inside otherwise-virtual packages use
// the same directive on the offending line.
var Walltime = &Analyzer{
	Name: "walltime",
	Doc: "flags time.Now/Since/Sleep/timers in virtual-time packages; " +
		"real-time packages opt out with //lint:allow walltime <reason>",
	Run: runWalltime,
}

func init() { Register(Walltime) }

// walltimeFuncs are the package-level functions of package time that read
// the wall clock or schedule against it.
var walltimeFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
}

func runWalltime(pass *Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || !walltimeFuncs[sel.Sel.Name] {
				return true
			}
			ident, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pkgName, ok := pass.Info.Uses[ident].(*types.PkgName)
			if !ok || pkgName.Imported().Path() != "time" {
				return true
			}
			pass.Reportf(sel.Pos(),
				"wall-clock time.%s in a virtual-time package — inject the simulation clock, or annotate //lint:allow walltime <reason> if this path is deployment-only",
				sel.Sel.Name)
			return true
		})
	}
	return nil
}
