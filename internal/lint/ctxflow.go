package lint

import (
	"go/ast"
	"go/types"
)

// CtxFlow keeps the deployable hot paths cancellable. In the packages that
// face real networks on behalf of callers (the UDP transport and the
// baseline estimators' I/O helpers), an exported function that spawns
// goroutines or loops on blocking network reads without accepting a
// context.Context — and without bounding itself with a deadline — cannot be
// cancelled by the caller, which is how a test server ends up wedged behind
// a dead client at scale.
//
// A function passes if any of these hold:
//   - it takes a context.Context parameter,
//   - it derives a bounded context internally (context.WithTimeout/
//     WithDeadline/WithCancel),
//   - its read loops are bounded by Set{Read,Write,}Deadline calls,
//   - a //lint:allow ctxflow directive documents why its lifetime is
//     managed another way (e.g. a constructor whose goroutine is bounded
//     by Close).
//
// Beyond goroutine spawns and read loops, the analyzer also flags exported
// functions that park in time.Sleep: a sleep cannot be interrupted by any
// caller, so cancellable paths must wait in a timer/ctx select instead.
// Blocking reads outside loops are held to the same deadline-or-context
// standard as read loops — a single unbounded Read wedges just as hard.
var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc: "flags exported functions in network-facing packages that spawn " +
		"goroutines, block on network reads, or park in time.Sleep without " +
		"a context.Context or deadline",
	Run: runCtxFlow,
}

func init() { Register(CtxFlow) }

// ctxFlowPackageSuffixes selects the packages under enforcement. Matching
// by suffix keeps the analyzer independent of the module path.
var ctxFlowPackageSuffixes = []string{
	"internal/transport",
	"internal/baseline",
	"internal/fleet",
	"internal/loadgen",
	"internal/earlystop",
	"internal/exper",
}

// blockingReadFuncs are method names that block on network input.
var blockingReadFuncs = map[string]bool{
	"Read":        true,
	"ReadFrom":    true,
	"ReadFromUDP": true,
	"ReadMsgUDP":  true,
	"Accept":      true,
	"Do":          true, // http.Client.Do
}

// deadlineFuncs bound a read loop without a context.
var deadlineFuncs = map[string]bool{
	"SetDeadline":      true,
	"SetReadDeadline":  true,
	"SetWriteDeadline": true,
}

// ctxDeriveFuncs are the context constructors that bound work internally.
var ctxDeriveFuncs = map[string]bool{
	"WithTimeout":  true,
	"WithDeadline": true,
	"WithCancel":   true,
}

func runCtxFlow(pass *Pass) error {
	if !pathHasSuffix(pass.PkgPath, ctxFlowPackageSuffixes) {
		return nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !fn.Name.IsExported() {
				continue
			}
			checkCtxFlow(pass, fn)
		}
	}
	return nil
}

func checkCtxFlow(pass *Pass, fn *ast.FuncDecl) {
	if hasContextParam(pass, fn) {
		return
	}

	// First pass: collect loop extents, so the single-read rule can tell a
	// lone blocking read from one already governed by the loop rule.
	type span struct{ lo, hi int }
	var loops []span
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			loops = append(loops, span{int(n.Pos()), int(n.End())})
		}
		return true
	})
	inLoop := func(n ast.Node) bool {
		p := int(n.Pos())
		for _, s := range loops {
			if p >= s.lo && p < s.hi {
				return true
			}
		}
		return false
	}

	var (
		firstGo      ast.Node
		firstNetLoop ast.Node
		firstRead    ast.Node // blocking read outside any loop
		firstSleep   ast.Node // time.Sleep call
		bounded      bool
	)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			if firstGo == nil {
				firstGo = n
			}
		case *ast.ForStmt, *ast.RangeStmt:
			if firstNetLoop == nil && loopHasBlockingRead(n) {
				firstNetLoop = n
			}
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				if blockingReadFuncs[sel.Sel.Name] && firstRead == nil && !inLoop(n) {
					firstRead = n
				}
				if deadlineFuncs[sel.Sel.Name] {
					bounded = true
				}
				if base, ok := sel.X.(*ast.Ident); ok {
					if ctxDeriveFuncs[sel.Sel.Name] {
						if pkg, ok := pass.Info.Uses[base].(*types.PkgName); ok && pkg.Imported().Path() == "context" {
							bounded = true
						}
					}
					if sel.Sel.Name == "Sleep" && firstSleep == nil {
						if pkg, ok := pass.Info.Uses[base].(*types.PkgName); ok && pkg.Imported().Path() == "time" {
							firstSleep = n
						}
					}
				}
			}
		}
		return true
	})

	if firstGo != nil {
		pass.Reportf(fn.Name.Pos(),
			"exported %s starts a goroutine but accepts no context.Context — plumb a ctx through, or annotate //lint:allow ctxflow <how its lifetime is bounded>",
			fn.Name.Name)
	}
	if firstNetLoop != nil && !bounded {
		pass.Reportf(fn.Name.Pos(),
			"exported %s loops on blocking network reads with no context.Context and no deadline — it cannot be cancelled by callers",
			fn.Name.Name)
	}
	if firstRead != nil && !bounded {
		pass.Reportf(fn.Name.Pos(),
			"exported %s blocks on a network read with no context.Context and no deadline — it cannot be cancelled by callers",
			fn.Name.Name)
	}
	if firstSleep != nil {
		pass.Reportf(fn.Name.Pos(),
			"exported %s parks in time.Sleep but accepts no context.Context — wait in a timer/ctx select, or annotate //lint:allow ctxflow <why the sleep is safe>",
			fn.Name.Name)
	}
}

// hasContextParam reports whether any parameter's type is context.Context.
func hasContextParam(pass *Pass, fn *ast.FuncDecl) bool {
	for _, field := range fn.Type.Params.List {
		tv, ok := pass.Info.Types[field.Type]
		if !ok {
			continue
		}
		named, ok := tv.Type.(*types.Named)
		if !ok {
			continue
		}
		obj := named.Obj()
		if obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context" {
			return true
		}
	}
	return false
}

// loopHasBlockingRead reports whether a loop body contains a call to a
// blocking network-read method.
func loopHasBlockingRead(loop ast.Node) bool {
	var body *ast.BlockStmt
	switch l := loop.(type) {
	case *ast.ForStmt:
		body = l.Body
	case *ast.RangeStmt:
		body = l.Body
	}
	if body == nil {
		return false
	}
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && blockingReadFuncs[sel.Sel.Name] {
			found = true
			return false
		}
		return true
	})
	return found
}
