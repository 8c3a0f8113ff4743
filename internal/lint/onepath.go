package lint

import "go/ast"

// Onepath keeps one entry point per operation. A package that exports both
// Foo and FooContext has two ways to do one thing: the context-less twin is a
// context.Background() wrapper at best and an uncancellable copy at worst,
// and every caller has to know which one it wants. The repository keeps the
// context-first form only; this analyzer stops the pairs from coming back.
// Functions pair with functions and methods with methods of the same
// receiver type. An unexported twin is the package's own business.
var Onepath = &Analyzer{
	Name: "onepath",
	Doc: "flags an exported Foo declared beside an exported FooContext in " +
		"the same package — keep the context-first form only",
	Run: runOnepath,
}

func init() { Register(Onepath) }

func runOnepath(pass *Pass) error {
	type key struct{ recv, name string }
	var exported []*ast.FuncDecl
	declared := map[key]bool{}
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Name.IsExported() {
				exported = append(exported, fn)
				declared[key{recvTypeName(fn), fn.Name.Name}] = true
			}
		}
	}
	for _, fn := range exported {
		if name := fn.Name.Name; declared[key{recvTypeName(fn), name + "Context"}] {
			pass.Reportf(fn.Name.Pos(),
				"exported %[1]s is declared beside %[1]sContext — two entry points for one operation; delete %[1]s and move its callers to %[1]sContext, or annotate //lint:allow onepath <why both must stay>",
				name)
		}
	}
	return nil
}

// recvTypeName is the receiver's type name with pointer and type parameters
// stripped, or "" for a plain function.
func recvTypeName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return ""
	}
	t := fn.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
