package main

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"testing"

	"github.com/mobilebandwidth/swiftest/internal/lint"
)

const internalPath = "github.com/mobilebandwidth/swiftest/internal/"

// deadExportKeep lists the exported declarations kept without a non-test
// caller, each with the reason it stays. Keys are "pkg.Name" or
// "pkg.Recv.Name" under internal/; a type's key covers its methods too.
var deadExportKeep = map[string]string{
	"exper.Evaluate": "acceptance harness of TestEvaluatePairedAcceptance and of the committed earlystop front",
}

// stdInterfaces are the standard-library interfaces a method may exist to
// satisfy without the module naming them: fmt prints Stringers and errors,
// errors.Is unwraps, and encoding/json and net/http call the rest.
var stdInterfaces = []iface{
	{{name: "Error", sig: "Error() string"}},
	{{name: "String", sig: "String() string"}},
	{{name: "Unwrap", sig: "Unwrap() error"}},
	{{name: "MarshalJSON", sig: "MarshalJSON() ([]byte, error)"}},
	{{name: "UnmarshalJSON", sig: "UnmarshalJSON([]byte) error"}},
	{{name: "ServeHTTP", sig: "ServeHTTP(net/http.ResponseWriter, *net/http.Request)"}},
}

// An iface is an interface's method set.
type iface []ifaceMethod

// An ifaceMethod is one method of an interface. A generic interface's
// methods mention its type parameters, so they match by name alone.
type ifaceMethod struct {
	name, sig string
	generic   bool
}

// ifaceOf lists the methods of it, embedded ones included.
func ifaceOf(it *types.Interface) iface {
	var out iface
	for i := 0; i < it.NumMethods(); i++ {
		m := it.Method(i)
		sig := m.Type().(*types.Signature)
		out = append(out, ifaceMethod{m.Name(), sigString(m.Name(), sig), hasTypeParam(sig)})
	}
	return out
}

func hasTypeParam(t types.Type) bool {
	switch t := t.(type) {
	case *types.TypeParam:
		return true
	case *types.Pointer:
		return hasTypeParam(t.Elem())
	case *types.Slice:
		return hasTypeParam(t.Elem())
	case *types.Array:
		return hasTypeParam(t.Elem())
	case *types.Map:
		return hasTypeParam(t.Key()) || hasTypeParam(t.Elem())
	case *types.Chan:
		return hasTypeParam(t.Elem())
	case *types.Named:
		for i := 0; i < t.TypeArgs().Len(); i++ {
			if hasTypeParam(t.TypeArgs().At(i)) {
				return true
			}
		}
	case *types.Signature:
		for _, tup := range []*types.Tuple{t.Params(), t.Results()} {
			for i := 0; i < tup.Len(); i++ {
				if hasTypeParam(tup.At(i).Type()) {
					return true
				}
			}
		}
	}
	return false
}

// declKey names a declaration across type-checks: each package is checked
// from source once and seen through export data everywhere else, so the
// two views share no types.Object and are matched by path, receiver and
// name instead.
type declKey struct{ pkg, recv, name string }

func (k declKey) String() string {
	if k.recv == "" {
		return k.pkg + "." + k.name
	}
	return k.pkg + "." + k.recv + "." + k.name
}

// keyOf names a package-level type or function, or a method of a named
// non-interface type; ok is false for anything else.
func keyOf(obj types.Object) (k declKey, ok bool) {
	if obj == nil || obj.Pkg() == nil {
		return k, false
	}
	switch o := obj.(type) {
	case *types.TypeName:
		return declKey{pkg: o.Pkg().Path(), name: o.Name()}, o.Parent() == o.Pkg().Scope()
	case *types.Func:
		o = o.Origin()
		recv := o.Type().(*types.Signature).Recv()
		if recv == nil {
			return declKey{pkg: o.Pkg().Path(), name: o.Name()}, true
		}
		named := recvNamed(recv.Type())
		if named == nil || types.IsInterface(named) {
			return k, false
		}
		return declKey{pkg: o.Pkg().Path(), recv: named.Obj().Name(), name: o.Name()}, true
	}
	return k, false
}

func recvNamed(t types.Type) *types.Named {
	if p, ok := types.Unalias(t).(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := types.Unalias(t).(*types.Named)
	return n
}

// sigString prints a method signature without parameter names and with
// full package paths, so the same signature reads the same from source and
// from export data, whatever its parameters are called.
func sigString(name string, sig *types.Signature) string {
	qual := func(p *types.Package) string { return p.Path() }
	tuple := func(t *types.Tuple, variadic bool) string {
		parts := make([]string, t.Len())
		for i := range parts {
			typ := t.At(i).Type()
			if variadic && i == len(parts)-1 {
				parts[i] = "..." + types.TypeString(typ.(*types.Slice).Elem(), qual)
			} else {
				parts[i] = types.TypeString(typ, qual)
			}
		}
		return strings.Join(parts, ", ")
	}
	s := name + "(" + tuple(sig.Params(), sig.Variadic()) + ")"
	switch res := tuple(sig.Results(), false); {
	case sig.Results().Len() > 1:
		s += " (" + res + ")"
	case res != "":
		s += " " + res
	}
	return s
}

// loadModules loads the module and the benchmark module from source,
// non-test files only; pkgs is both, mod the module alone.
func loadModules(t *testing.T) (mod, pkgs []*lint.Package) {
	t.Helper()
	if testing.Short() {
		t.Skip("loads the module and the benchmark with go list -export")
	}
	mod, err := lint.Load("../..", "./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	bench, err := lint.Load("../../bench", "./...")
	if err != nil {
		t.Fatalf("loading benchmark: %v", err)
	}
	return mod, append(mod[:len(mod):len(mod)], bench...)
}

// loadedIfaces is stdInterfaces plus every interface written in pkgs.
func loadedIfaces(pkgs []*lint.Package) []iface {
	ifaces := stdInterfaces
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok {
					ifaces = append(ifaces, ifaceOf(pkg.Info.Types[it].Type.(*types.Interface)))
				}
				return true
			})
		}
	}
	return ifaces
}

// TestNoDeadExports keeps every exported function, method and type
// declared under internal/ referenced from some other non-test declaration
// in the module or in the benchmark module. A per-package swiftvet
// analyzer cannot see uses in other packages, so this is a test over both
// loaded modules. A method is exempt when its receiver implements an
// interface that declares it — any interface written in the loaded code, or
// one of stdInterfaces — since calls through the interface name the
// interface method, not the concrete one.
func TestNoDeadExports(t *testing.T) {
	_, pkgs := loadModules(t)

	ifaces := loadedIfaces(pkgs)
	candidates := map[declKey]types.Object{}
	positions := map[declKey]string{}
	for _, pkg := range pkgs {
		internal := strings.HasPrefix(pkg.PkgPath, internalPath)
		for ident, obj := range pkg.Info.Defs {
			if !internal || !ident.IsExported() {
				continue
			}
			if k, ok := keyOf(obj); ok {
				candidates[k] = obj
				positions[k] = pkg.Fset.Position(ident.Pos()).String()
			}
		}
	}

	// References: every use inside a top-level declaration other than the
	// used one itself. A type's own methods do not keep the type alive.
	used := map[declKey]bool{}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				self := selfKeys(pkg, decl)
				ast.Inspect(decl, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if k, ok := keyOf(pkg.Info.Uses[id]); ok && !self[k] {
							used[k] = true
						}
					}
					return true
				})
			}
		}
	}

	// A dead declaration must be kept under its own key or its receiver
	// type's; every kept entry must cover a dead declaration.
	covered := map[string]bool{}
	var dead []string
	for k, obj := range candidates {
		if used[k] || implementsIface(obj, ifaces) {
			continue
		}
		listed := false
		for _, key := range []declKey{k, {pkg: k.pkg, name: k.recv}} {
			name := strings.TrimPrefix(key.String(), internalPath)
			if _, ok := deadExportKeep[name]; ok {
				listed, covered[name] = true, true
			}
		}
		if !listed {
			dead = append(dead, positions[k]+": "+k.String())
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("no non-test caller: %s", d)
	}
	for name := range deadExportKeep {
		if !covered[name] {
			t.Errorf("%s is listed as dead but has a caller or is gone; drop it from the list", name)
		}
	}
}

// selfKeys names what decl declares: a function, a method together with its
// receiver type, or the types of a type declaration.
func selfKeys(pkg *lint.Package, decl ast.Decl) map[declKey]bool {
	self := map[declKey]bool{}
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if k, ok := keyOf(pkg.Info.Defs[d.Name]); ok {
			self[k] = true
			if k.recv != "" {
				self[declKey{pkg: k.pkg, name: k.recv}] = true
			}
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			if ts, ok := spec.(*ast.TypeSpec); ok {
				if k, ok := keyOf(pkg.Info.Defs[ts.Name]); ok {
					self[k] = true
				}
			}
		}
	}
	return self
}

// implementsIface reports whether obj is a method that belongs to an
// interface its receiver type implements, comparing method sets by
// signature text.
func implementsIface(obj types.Object, ifaces []iface) bool {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Type().(*types.Signature).Recv() == nil {
		return false
	}
	sig := sigString(fn.Name(), fn.Type().(*types.Signature))
	named := recvNamed(fn.Type().(*types.Signature).Recv().Type())
	have := map[string]string{} // method name → signature
	mset := types.NewMethodSet(types.NewPointer(named))
	for i := 0; i < mset.Len(); i++ {
		m := mset.At(i).Obj()
		have[m.Name()] = sigString(m.Name(), m.Type().(*types.Signature))
	}
	for _, it := range ifaces {
		declares, all := false, true
		for _, m := range it {
			matches := func(s string) bool { return m.generic || s == m.sig }
			got, ok := have[m.name]
			declares = declares || (m.name == fn.Name() && matches(sig))
			all = all && ok && matches(got)
		}
		if declares && all {
			return true
		}
	}
	return false
}

const modulePath = "github.com/mobilebandwidth/swiftest"

// deadKnobKeep lists the option fields kept without a non-test writer
// outside their own package, each with the reason it stays. Keys are
// "pkg.Type.Field" ("swiftest." for the root package); a "pkg.Type" key
// covers every field of the type.
var deadKnobKeep = map[string]string{
	"linksim.Config.BufferBDP":           "tests size the queue in BDPs to pin the bufferbloat and drop-tail paths",
	"transport.ServerConfig.IdleTimeout": "tests shorten it to see idle sessions reaped",
	"fleet.Config.LeaseTTL":              "tests shorten it to see leases of crashed clients reclaimed",
	"swiftest.TestOptions.PingTimeout":   "tests shorten it to see an unreachable pool fail fast",
	"swiftest.LinkConfig.ShapingBurstMB": "tests drive the shaping policer of a carrier-limited plan",
	"swiftest.LinkConfig.ShapingMbps":    "tests drive the shaping policer of a carrier-limited plan",
	"loadgen.Config.Trace":               "tests read the fleet's event stream of a run",
	"swiftest.SessionOptions.Metrics":    "tests read the engine and resilience counters a test aggregates",
	"exper.ReplayConfig.FaultPlans":      "tests replay the fault-free plan alone to stay short",
	"deploy.ServerConfig":                "a catalogue row, not a knob: SyntheticCatalogue fills it and plan artifacts decode it",
	"exper.EvalConfig":                   "configures exper.Evaluate, kept in deadExportKeep",
	"core.RefreshConfig.MaxModes":        "the model store's fate is still open, and the store owns this bound",
}

// knobKey names a field of an option type across type-checks, as declKey
// names a declaration.
type knobKey struct{ pkg, typ, field string }

// String is the key's spelling in deadKnobKeep; with no field, its type's.
func (k knobKey) String() string {
	name := strings.TrimPrefix(k.pkg, internalPath) + "." + k.typ
	if k.pkg == modulePath {
		name = "swiftest." + k.typ
	}
	if k.field == "" {
		return name
	}
	return name + "." + k.field
}

// TestNoDeadKnobs keeps every exported field of an exported *Config or
// *Options struct, in the root package or under internal/, written by some
// non-test code outside the field's own package — by a composite-literal
// key, an assignment, an increment or by taking its address. A field only
// its own package sets is a default with a settable name; it belongs in an
// unexported constant.
func TestNoDeadKnobs(t *testing.T) {
	mod, pkgs := loadModules(t)

	positions := map[knobKey]string{}
	for _, pkg := range mod {
		if pkg.PkgPath != modulePath && !strings.HasPrefix(pkg.PkgPath, internalPath) {
			continue
		}
		for ident, obj := range pkg.Info.Defs {
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() || !ident.IsExported() || tn.Parent() != tn.Pkg().Scope() ||
				!(strings.HasSuffix(tn.Name(), "Config") || strings.HasSuffix(tn.Name(), "Options")) {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() {
					k := knobKey{pkg.PkgPath, tn.Name(), f.Name()}
					positions[k] = pkg.Fset.Position(f.Pos()).String()
				}
			}
		}
	}

	written := map[knobKey]bool{}
	for _, pkg := range pkgs {
		write := func(owner types.Type, field string) {
			named := recvNamed(owner)
			if named == nil || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() == pkg.PkgPath {
				return
			}
			written[knobKey{named.Obj().Pkg().Path(), named.Origin().Obj().Name(), field}] = true
		}
		writeSel := func(e ast.Expr) {
			se, ok := ast.Unparen(e).(*ast.SelectorExpr)
			if !ok {
				return
			}
			if sel := pkg.Info.Selections[se]; sel != nil && sel.Kind() == types.FieldVal {
				write(fieldOwner(sel), se.Sel.Name)
			}
		}
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					// Keys of map and array literals never name a field of an
					// option struct; an elided &T{…} in a []*T literal has type
					// *T, which write looks through.
					for _, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								write(pkg.Info.Types[n].Type, id.Name)
							}
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						writeSel(lhs)
					}
				case *ast.IncDecStmt:
					writeSel(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						writeSel(n.X)
					}
				}
				return true
			})
		}
	}

	covered := map[string]bool{}
	var dead []string
	for k, pos := range positions {
		if written[k] {
			continue
		}
		listed := false
		for _, name := range []string{k.String(), knobKey{k.pkg, k.typ, ""}.String()} {
			if _, ok := deadKnobKeep[name]; ok {
				listed, covered[name] = true, true
			}
		}
		if !listed {
			dead = append(dead, pos+": "+k.String())
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("no non-test writer outside its package: %s; make it an unexported constant", d)
	}
	for name := range deadKnobKeep {
		if !covered[name] {
			t.Errorf("%s is listed as unwritten but has a writer or is gone; drop it from the list", name)
		}
	}
}

// fieldOwner is the struct type that declares sel's field, following
// embedded fields from the receiver.
func fieldOwner(sel *types.Selection) types.Type {
	t := sel.Recv()
	idx := sel.Index()
	for _, i := range idx[:len(idx)-1] {
		if p, ok := types.Unalias(t).(*types.Pointer); ok {
			t = p.Elem()
		}
		t = t.Underlying().(*types.Struct).Field(i).Type()
	}
	return t
}

const claimsPath = internalPath + "claims"

// constArgKeep lists the parameters kept although every non-test caller
// passes them one constant, each with the reason it stays. Keys are
// "pkg.Func.param" or "pkg.Recv.Method.param" ("swiftest." for the root
// package).
var constArgKeep = map[string]string{
	"estimate.Stable.threshold":                           "the root crossingAt ablation benchmark sweeps it",
	"deploy.PlaceServers.shares":                          "bench/ calls it, so its signature is frozen",
	"transport.ServerPool.RankByLatencyContext.pingCount": "bench/ calls it, so its signature is frozen",
	"transport/batchio.SetSegmentSize.size":               "bench/ calls it, so its signature is frozen",
	"transport/batchio.MaxSegments.size":                  "a per-platform pair, and batchio does not import transport",
	"wire.DataOpen.AppendTo.b":                            "the append idiom: a caller passes nil to allocate",
	"wire.Data2.AppendTo.b":                               "the append idiom: a caller passes nil to allocate",
	"lint.Load.dir":                                       "a path, not a tuning value",
	"analysis.WiFiStandardFilter.std":                     "a selector: it chooses which population to report",
	"analysis.DiurnalAgg.Snapshot.tech":                   "a selector: it chooses which population to report",
}

// paramKey names the i-th parameter of a function or method.
type paramKey struct {
	fn declKey
	i  int
}

// argCensus is what the non-test call sites pass one parameter.
type argCensus struct {
	name    string
	calls   int
	value   string // the exact constant every call so far passed, if same
	shown   string // value, rounded for the message
	same    bool
	claims  bool // every call so far is in internal/claims
	declPos string
}

// key is the parameter's spelling in constArgKeep.
func (c *argCensus) key(k paramKey) string {
	name := strings.TrimPrefix(k.fn.String(), internalPath)
	if k.fn.pkg == modulePath {
		name = "swiftest" + strings.TrimPrefix(name, modulePath)
	}
	return name + "." + c.name
}

// TestNoConstantArgs keeps every non-variadic parameter of an exported
// function or method, in the root package or under internal/, given more
// than one value by its non-test callers in the module or the benchmark. A
// parameter every call passes the same constant (or untyped nil) is a knob
// no caller turns; it belongs in an unexported constant of its callee.
// Methods that implement an interface and functions also used as values
// are skipped: their callers are not all calls. A parameter whose every
// caller is in internal/claims is exempt, because the claims table is the
// one place a paper number lives.
func TestNoConstantArgs(t *testing.T) {
	mod, pkgs := loadModules(t)
	ifaces := loadedIfaces(pkgs)

	census := map[paramKey]*argCensus{}
	for _, pkg := range mod {
		if pkg.PkgPath != modulePath && !strings.HasPrefix(pkg.PkgPath, internalPath) {
			continue
		}
		for ident, obj := range pkg.Info.Defs {
			fn, ok := obj.(*types.Func)
			if !ok || !ident.IsExported() {
				continue
			}
			k, ok := keyOf(fn)
			if !ok || implementsIface(fn, ifaces) {
				continue
			}
			sig := fn.Type().(*types.Signature)
			n := sig.Params().Len()
			if sig.Variadic() {
				n--
			}
			for i := 0; i < n; i++ {
				name := sig.Params().At(i).Name()
				if name == "" || name == "_" {
					name = fmt.Sprintf("#%d", i)
				}
				census[paramKey{k, i}] = &argCensus{name: name, same: true, claims: true,
					declPos: pkg.Fset.Position(sig.Params().At(i).Pos()).String()}
			}
		}
	}

	asValue := map[declKey]bool{}
	for _, pkg := range pkgs {
		callees := map[*ast.Ident]bool{}
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				id, offset := callee(pkg, call.Fun)
				if id == nil {
					return true
				}
				callees[id] = true
				k, ok := keyOf(pkg.Info.Uses[id])
				if !ok {
					return true
				}
				spread := len(call.Args) == 1 && !isSingle(pkg.Info.Types[call.Args[0]].Type)
				for i := 0; ; i++ {
					c := census[paramKey{k, i}]
					if c == nil {
						break
					}
					c.calls++
					c.claims = c.claims && pkg.PkgPath == claimsPath
					if !c.same {
						continue
					}
					j := i + offset
					if spread || j >= len(call.Args) {
						c.same = false
						continue
					}
					tv := pkg.Info.Types[call.Args[j]]
					v, ok := constArg(tv, constant.Value.ExactString)
					if !ok || (c.calls > 1 && v != c.value) {
						c.same = false
					}
					c.value = v
					c.shown, _ = constArg(tv, constant.Value.String)
				}
				return true
			})
		}
		for id, obj := range pkg.Info.Uses {
			if _, ok := obj.(*types.Func); ok && !callees[id] {
				if k, ok := keyOf(obj); ok {
					asValue[k] = true
				}
			}
		}
	}

	covered := map[string]bool{}
	var flagged []string
	for k, c := range census {
		if c.calls == 0 || !c.same || c.claims || asValue[k.fn] {
			continue
		}
		key := c.key(k)
		if _, ok := constArgKeep[key]; ok {
			covered[key] = true
			continue
		}
		flagged = append(flagged, fmt.Sprintf("%s: %s = %s at %d non-test call(s)", c.declPos, key, c.shown, c.calls))
	}
	sort.Strings(flagged)
	for _, d := range flagged {
		t.Errorf("every caller passes one constant: %s; make it an unexported constant", d)
	}
	for key := range constArgKeep {
		if !covered[key] {
			t.Errorf("%s is listed as constant but takes more than one value, is claims-only or is gone; drop it from the list", key)
		}
	}
}

// callee is the identifier a call names as its function, and how many
// leading arguments are not the callee's parameters (the receiver of a
// method expression); id is nil for a call of anything else.
func callee(pkg *lint.Package, fun ast.Expr) (id *ast.Ident, offset int) {
	switch f := ast.Unparen(fun).(type) {
	case *ast.Ident:
		return f, 0
	case *ast.SelectorExpr:
		if sel := pkg.Info.Selections[f]; sel != nil && sel.Kind() == types.MethodExpr {
			return f.Sel, 1
		}
		return f.Sel, 0
	case *ast.IndexExpr:
		return callee(pkg, f.X)
	case *ast.IndexListExpr:
		return callee(pkg, f.X)
	}
	return nil, 0
}

// isSingle reports whether t is the type of one value, not of a call's
// multiple results.
func isSingle(t types.Type) bool {
	tup, ok := t.(*types.Tuple)
	return !ok || tup.Len() == 1
}

// constArg spells an argument's value when it is a constant or untyped nil.
func constArg(tv types.TypeAndValue, spell func(constant.Value) string) (string, bool) {
	switch {
	case tv.Value != nil:
		return spell(tv.Value), true
	case tv.IsNil():
		return "nil", true
	}
	return "", false
}
