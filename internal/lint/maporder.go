package lint

import (
	"go/ast"
	"go/types"
)

// Maporder flags the canonical nondeterminism bug of this repository: a
// `range` over a map whose body feeds an order-sensitive sink. Go map
// iteration order is deliberately randomised, so a map range that appends
// to a slice, writes into a hasher/digest, or streams into an encoder
// produces a different byte stream on every run — which is precisely how a
// SHA-256 assignment or golden-record digest (loadgen.AssignmentDigest, the
// dataset golden streams) silently stops being a regression harness.
//
// Two shapes stay legal:
//
//   - collect-then-sort: appending map keys to a slice that the same
//     function later passes through sort.* / slices.Sort* launders the
//     order before anything consumes it;
//   - order-independent writes: indexed assignment (m2[k] = v, arr[i] = v),
//     counters, sums — anything commutative.
//
// Enforcement covers the deterministic packages only; a deliberately
// order-insensitive sink there documents itself with
// //lint:allow maporder <reason>.
var Maporder = &Analyzer{
	Name: "maporder",
	Doc: "flags range-over-map bodies that append to unsorted slices or " +
		"write to hashers/encoders/digests in the deterministic packages — " +
		"map order is random, digests must not be",
	Run: runMaporder,
}

func init() { Register(Maporder) }

// orderSinkMethods are method names whose calls consume bytes in order:
// hash.Hash/io.Writer writes, digest finalisation, streaming encoders.
var orderSinkMethods = map[string]bool{
	"Write":       true,
	"WriteString": true,
	"WriteByte":   true,
	"WriteRune":   true,
	"Sum":         true,
	"Encode":      true,
}

// sortFuncs are the sort/slices package functions that launder collection
// order before consumption.
var sortFuncs = map[string]bool{
	"Sort": true, "Stable": true, "Slice": true, "SliceStable": true,
	"Strings": true, "Ints": true, "Float64s": true,
	"SortFunc": true, "SortStableFunc": true,
}

func runMaporder(pass *Pass) error {
	if !pathHasSuffix(pass.PkgPath, deterministicPackages) {
		return nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkMaporder(pass, fn)
		}
	}
	return nil
}

func checkMaporder(pass *Pass, fn *ast.FuncDecl) {
	// Pre-pass: the set of expressions laundered by a sort call anywhere in
	// the function (rendered textually — good enough to match `names` or
	// `t.androidOrder` between the append and the sort).
	sorted := map[string]bool{}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !sortFuncs[sel.Sel.Name] {
			return true
		}
		base, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		if pkg, ok := pass.Info.Uses[base].(*types.PkgName); !ok ||
			(pkg.Imported().Path() != "sort" && pkg.Imported().Path() != "slices") {
			return true
		}
		for _, arg := range call.Args {
			if s := renderExpr(arg); s != "" {
				sorted[s] = true
			}
		}
		return true
	})

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := pass.Info.Types[rng.X]
		if !ok {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		checkMapRangeBody(pass, rng, sorted)
		return true
	})
}

// checkMapRangeBody reports order-sensitive sinks inside one map range.
func checkMapRangeBody(pass *Pass, rng *ast.RangeStmt, sorted map[string]bool) {
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			if fun.Name != "append" || len(call.Args) == 0 {
				return true
			}
			if _, isBuiltin := pass.Info.Uses[fun].(*types.Builtin); !isBuiltin {
				return true
			}
			target := renderExpr(call.Args[0])
			if target == "" || sorted[target] {
				return true
			}
			pass.Reportf(call.Pos(),
				"append to %s inside a range over a map — iteration order is random, so the slice's element order changes every run; collect and sort, or annotate //lint:allow maporder <why order is irrelevant>",
				target)
		case *ast.SelectorExpr:
			if !orderSinkMethods[fun.Sel.Name] {
				return true
			}
			// Package-level calls (fmt.Fprintf style) resolve the base to a
			// PkgName; only method calls on a value are hasher/encoder writes.
			if base, ok := fun.X.(*ast.Ident); ok {
				if _, isPkg := pass.Info.Uses[base].(*types.PkgName); isPkg {
					return true
				}
			}
			pass.Reportf(call.Pos(),
				"%s.%s inside a range over a map — iteration order is random, so the written byte stream (and any digest over it) changes every run; iterate sorted keys instead",
				renderExpr(fun.X), fun.Sel.Name)
		}
		return true
	})
}

// renderExpr renders ident/selector/index chains ("t.androidOrder",
// "names", "m[k]") for matching and messages; other shapes yield "".
func renderExpr(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		if base := renderExpr(e.X); base != "" {
			return base + "." + e.Sel.Name
		}
	case *ast.IndexExpr:
		if base := renderExpr(e.X); base != "" {
			return base + "[…]"
		}
	}
	return ""
}
