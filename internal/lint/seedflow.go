package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// Seedflow keeps the deterministic packages' randomness traceable to an
// explicit seed. The regression harness for every scale-up — byte-identical
// SHA-256 assignment/record digests across worker counts and reruns — only
// holds while every random draw flows from a seed the caller chose. Three
// leaks break it silently:
//
//   - the global math/rand source (rand.Intn, rand.Float64, rand.Shuffle,
//     v2's rand.IntN, rand.N, ...), whose state is shared, lock-guarded, and
//     unseeded;
//   - time-derived seeds (rand.NewSource(time.Now().UnixNano())), which
//     make every rerun a different experiment;
//   - hard-coded seeds (rand.NewSource(42), rand.NewPCG(42, 0)), which pin
//     an experiment no config can vary and usually mark a forgotten
//     debugging session.
//
// Inside the deterministic packages every *rand.Rand must therefore be
// constructed from a seed that traces to a parameter, field or variable —
// the idiom is rand.New(rand.NewSource(cfg.Seed)), or with math/rand/v2
// rand.New(rand.NewPCG(uint64(cfg.Seed), 0)) — and the global source is off
// limits entirely. Wall-clock-facing packages (transport, emu,
// command mains) are out of scope; a deliberate exception inside the core
// uses //lint:allow seedflow <reason>.
var Seedflow = &Analyzer{
	Name: "seedflow",
	Doc: "flags global math/rand source calls, time-derived seeds and " +
		"hard-coded rand.NewSource/NewPCG/NewChaCha8 seeds in the " +
		"deterministic packages (dataset, faults, fleet, loadgen, linksim, " +
		"deploy, core, ranprofile, earlystop, exper, claims)",
	Run: runSeedflow,
}

func init() { Register(Seedflow) }

// seedflowPackageSuffixes selects the deterministic packages under
// enforcement. Matching by suffix keeps the analyzer independent of the
// module path.
var seedflowPackageSuffixes = []string{
	"internal/dataset",
	"internal/faults",
	"internal/fleet",
	"internal/loadgen",
	"internal/linksim",
	"internal/deploy",
	"internal/core",
	"internal/ranprofile",
	"internal/earlystop",
	"internal/exper",
	"internal/claims",
}

// globalRandFuncs are the package-level math/rand and math/rand/v2
// functions that draw from (or mutate) the shared global source.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "NormFloat64": true,
	"ExpFloat64": true, "Perm": true, "Shuffle": true, "Read": true,
	"Seed": true,
	// math/rand/v2 only.
	"IntN": true, "Int32": true, "Int32N": true, "Int64": true,
	"Int64N": true, "Uint": true, "UintN": true, "Uint32N": true,
	"Uint64N": true, "N": true,
}

// seededSourceFuncs are the constructors whose arguments are all seed
// material: math/rand's NewSource, math/rand/v2's NewPCG and NewChaCha8.
var seededSourceFuncs = map[string]bool{
	"NewSource": true, "NewPCG": true, "NewChaCha8": true,
}

func runSeedflow(pass *Pass) error {
	if !pathHasSuffix(pass.PkgPath, seedflowPackageSuffixes) {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fun := call.Fun
			if inst, ok := fun.(*ast.IndexExpr); ok {
				fun = inst.X // rand.N[T](n), explicitly instantiated
			}
			sel, ok := fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			base, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pkgName, ok := pass.Info.Uses[base].(*types.PkgName)
			if !ok || !isMathRand(pkgName.Imported().Path()) {
				return true
			}
			switch {
			case globalRandFuncs[sel.Sel.Name]:
				pass.Reportf(call.Pos(),
					"global math/rand source call rand.%s in a deterministic package — draw from a *rand.Rand constructed from an explicit seed (rand.New(rand.NewSource(cfg.Seed)), or math/rand/v2's rand.New(rand.NewPCG(uint64(cfg.Seed), 0)))",
					sel.Sel.Name)
			case seededSourceFuncs[sel.Sel.Name] && len(call.Args) > 0:
				checkSeedArgs(pass, call.Args)
			}
			return true
		})
	}
	return nil
}

// checkSeedArgs vets the seed arguments of rand.NewSource, rand.NewPCG or
// rand.NewChaCha8: none may derive from the wall clock, and at least one
// must reference a variable (a parameter, field or local carrying the
// caller's chosen seed) — a seed built purely from literals and constants
// is hard-coded. rand.NewPCG(uint64(seed), 0) is therefore clean.
func checkSeedArgs(pass *Pass, seeds []ast.Expr) {
	tracesToVar := false
	for _, seed := range seeds {
		timeDerived := false
		ast.Inspect(seed, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if base, ok := n.X.(*ast.Ident); ok {
					if pkg, ok := pass.Info.Uses[base].(*types.PkgName); ok && pkg.Imported().Path() == "time" {
						timeDerived = true
					}
				}
			case *ast.Ident:
				if _, ok := pass.Info.Uses[n].(*types.Var); ok {
					tracesToVar = true
				}
			}
			return true
		})
		if timeDerived {
			pass.Reportf(seed.Pos(),
				"time-derived rand seed in a deterministic package — seeded reruns stop being byte-identical; plumb an explicit seed parameter instead")
			return
		}
	}
	if !tracesToVar {
		pass.Reportf(seeds[0].Pos(),
			"hard-coded rand seed in a deterministic package — derive it from an explicit seed parameter or config field so callers control reruns")
	}
}

// isMathRand matches both math/rand and math/rand/v2.
func isMathRand(path string) bool {
	return path == "math/rand" || path == "math/rand/v2"
}

// pathHasSuffix reports whether pkgPath ends in one of the suffixes.
func pathHasSuffix(pkgPath string, suffixes []string) bool {
	for _, s := range suffixes {
		if strings.HasSuffix(pkgPath, s) {
			return true
		}
	}
	return false
}
