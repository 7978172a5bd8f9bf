package lint

import (
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/lint/analysis"
	"repro/internal/lint/loader"
)

// DeadAPI is the whole-program rule. It is not in Analyzers: knowing
// that nothing references a declaration takes every package of the
// program at once, which go vet's one-package-at-a-time protocol never
// provides. The standalone driver runs it through RunDeadAPI.
var DeadAPI = &analysis.Analyzer{
	Name: "deadapi",
	Doc: `flag dead declarations and never-set knobs under internal/

Whole-program: standalone simlint on ./... only, with bench/ loaded.
Reports a package-level func, type, const or var, or a method, that
no non-test code references and no other package's test references
(interface-satisfying methods and String/Error/Format are live), and
an exported *Config/*Options field that no non-test code writes, where
a write inside the field's own zero check is a default, not a write,
and a write that copies another field (x.F = y.G, F: y.G) counts only
if that field is written in turn. A knob only tests set is a knob no
caller uses. Test files are matched by syntax, for references only.`,
	Run: func(*analysis.Pass) error {
		return errors.New("deadapi is whole-program: run it with RunDeadAPI")
	},
}

// deadAPI holds the program-wide facts the rule decides from. Objects
// are keyed by "path.Name" (package level) or "path.Type.Name" (methods
// and fields), because each package sees its imports through its own
// copy of their export data.
type deadAPI struct {
	pkgNames map[string]string   // import path -> package name
	used     map[string]bool     // keys referenced from non-test code
	written  map[string]bool     // field keys written by non-test code
	forward  map[string][]string // field key -> the field keys copied into it
	iface    map[string]bool     // "Name(sig)" of every interface method

	// Syntactic facts from _test.go files: key or name -> the package
	// directories whose tests mention it.
	testQual  map[string]map[string]bool // "path.Name" via an import
	testSel   map[string]map[string]bool // any selector x.Name
	testIdent map[string]map[string]bool // any identifier
}

// RunDeadAPI applies the deadapi rule to a whole program: pkgs is every
// non-test package of it, and the _test.go files in each package's
// directory are parsed for references. Findings are reported only in
// packages under internal/ and survive //simlint:allow deadapi pragmas.
func RunDeadAPI(pkgs []*loader.Package) ([]Finding, error) {
	d := &deadAPI{
		pkgNames:  map[string]string{},
		used:      map[string]bool{},
		written:   map[string]bool{},
		forward:   map[string][]string{},
		iface:     map[string]bool{},
		testQual:  map[string]map[string]bool{},
		testSel:   map[string]map[string]bool{},
		testIdent: map[string]map[string]bool{},
	}
	for _, pkg := range pkgs {
		d.pkgNames[pkg.Path] = pkg.Types.Name()
	}
	seen := map[*types.Package]bool{}
	for _, pkg := range pkgs {
		d.addInterfaces(pkg.Types, seen)
		for _, tv := range pkg.Info.Types {
			if tv.IsType() {
				d.addInterface(tv.Type)
			}
		}
		d.scanCode(pkg)
	}
	for _, pkg := range pkgs {
		if err := d.scanTests(pkg); err != nil {
			return nil, err
		}
	}
	var out []Finding
	for _, pkg := range pkgs {
		if !isInternalPkg(pkg.Path) {
			continue
		}
		pragmas := scanPragmas(pkg.Fset, pkg.Files, ruleNames, func(token.Pos, string) {})
		d.check(pkg, func(pos token.Pos, msg string) {
			if !pragmas.allowed(pos, DeadAPI.Name) {
				out = append(out, Finding{
					Pos: pkg.Fset.Position(pos), Rule: DeadAPI.Name, Message: msg,
				})
			}
		})
	}
	sortFindings(out)
	return out, nil
}

// addInterfaces records the methods of every named interface in pkg and
// in everything it imports.
func (d *deadAPI) addInterfaces(pkg *types.Package, seen map[*types.Package]bool) {
	if seen[pkg] {
		return
	}
	seen[pkg] = true
	for _, name := range pkg.Scope().Names() {
		if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
			d.addInterface(tn.Type())
		}
	}
	for _, imp := range pkg.Imports() {
		d.addInterfaces(imp, seen)
	}
}

func (d *deadAPI) addInterface(t types.Type) {
	it, ok := t.Underlying().(*types.Interface)
	if !ok {
		return
	}
	for i := 0; i < it.NumMethods(); i++ {
		m := it.Method(i)
		d.iface[m.Name()+sigKey(m.Type().(*types.Signature))] = true
	}
}

// sigKey renders a signature's parameter and result types without names
// or receiver, qualified by import path, so that signatures compare
// equal across packages' copies of the same types.
func sigKey(sig *types.Signature) string {
	qual := func(p *types.Package) string { return p.Path() }
	tuple := func(t *types.Tuple) string {
		parts := make([]string, t.Len())
		for i := range parts {
			parts[i] = types.TypeString(t.At(i).Type(), qual)
		}
		return "(" + strings.Join(parts, ",") + ")"
	}
	s := tuple(sig.Params()) + tuple(sig.Results())
	if sig.Variadic() {
		s += "..."
	}
	return s
}

// namedOf returns the declared named type behind t and *t.
func namedOf(t types.Type) *types.Named {
	if p, ok := types.Unalias(t).(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := types.Unalias(t).(*types.Named); ok {
		return n.Origin()
	}
	return nil
}

func memberKey(named *types.Named, name string) string {
	obj := named.Obj()
	if obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name() + "." + name
}

// objKey is the program-wide key of a package-level object or method,
// or "" for anything else.
func objKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		fn = fn.Origin()
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			if named := namedOf(recv.Type()); named != nil {
				return memberKey(named, fn.Name())
			}
			return ""
		}
	}
	if obj.Pkg().Scope().Lookup(obj.Name()) != obj {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// scanCode records what pkg's non-test files reference, which fields
// they write, and which fields they copy into others. A declaration's
// references to itself (a recursive call, a self-referential type) do
// not count, and neither does a method's receiver type.
func (d *deadAPI) scanCode(pkg *loader.Package) {
	info := pkg.Info
	mark := func(n ast.Node, self ...*ast.Ident) {
		skip := map[string]bool{}
		for _, id := range self {
			skip[objKey(info.Defs[id])] = true
		}
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if k := objKey(info.Uses[id]); k != "" && !skip[k] {
					d.used[k] = true
				}
			}
			return true
		})
	}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				mark(decl.Type, decl.Name)
				if decl.Body != nil {
					mark(decl.Body, decl.Name)
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						mark(spec, spec.Name)
					case *ast.ValueSpec:
						mark(spec, spec.Names...)
					}
				}
			}
		}
		scanWrites(f, info, func(k string, value ast.Expr) {
			if sel, ok := ast.Unparen(value).(*ast.SelectorExpr); ok {
				if src := fieldKey(info, sel); src != "" {
					d.forward[k] = append(d.forward[k], src)
					return
				}
			}
			d.written[k] = true
		})
	}
}

// isWritten reports whether field key k is written: directly, or by a
// copy from a field that is itself written. seen guards against
// forwarding cycles.
func (d *deadAPI) isWritten(k string, seen map[string]bool) bool {
	if d.written[k] {
		return true
	}
	if seen[k] {
		return false
	}
	seen[k] = true
	for _, src := range d.forward[k] {
		if d.isWritten(src, seen) {
			return true
		}
	}
	return false
}

// fieldKey names the field sel selects, following its embedding path
// to the named struct that declares it; "" means sel is not a field.
func fieldKey(info *types.Info, sel *ast.SelectorExpr) string {
	s := info.Selections[sel]
	if s == nil || s.Kind() != types.FieldVal {
		return ""
	}
	t := s.Recv()
	idx := s.Index()
	for i, x := range idx {
		named := namedOf(t)
		if named == nil {
			return ""
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			return ""
		}
		f := st.Field(x)
		if i == len(idx)-1 {
			return memberKey(named, f.Name())
		}
		t = f.Type()
	}
	return ""
}

// scanWrites calls mark for every field write in f: a composite-literal
// key, an assignment or ++/--, or &x.F, with the written value when it
// is a single expression (nil otherwise). An assignment inside the body
// of the field's own zero check is a default and is skipped.
func scanWrites(f *ast.File, info *types.Info, mark func(k string, value ast.Expr)) {
	var stack []ast.Node
	write := func(e, value ast.Expr) {
		sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
		if !ok {
			return
		}
		k := fieldKey(info, sel)
		if k == "" || defaulted(stack, k, info) {
			return
		}
		mark(k, value)
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		switch n := n.(type) {
		case *ast.CompositeLit:
			for _, e := range n.Elts {
				if kv, ok := e.(*ast.KeyValueExpr); ok {
					id, ok := kv.Key.(*ast.Ident)
					if named := namedOf(info.TypeOf(n)); ok && named != nil {
						mark(memberKey(named, id.Name), kv.Value)
					}
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				var value ast.Expr
				if n.Tok == token.ASSIGN && len(n.Rhs) == len(n.Lhs) {
					value = n.Rhs[i]
				}
				write(lhs, value)
			}
		case *ast.IncDecStmt:
			write(n.X, nil)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				write(n.X, nil)
			}
		}
		return true
	})
}

// defaulted reports whether the innermost node of stack sits in the body
// of an if statement whose condition is a zero check of field k:
// x.F == 0 (or "", nil, false) or len(x.F) == 0.
func defaulted(stack []ast.Node, k string, info *types.Info) bool {
	for i := len(stack) - 2; i >= 0; i-- {
		ifs, ok := stack[i].(*ast.IfStmt)
		if !ok || stack[i+1] != ifs.Body {
			continue
		}
		cond, ok := ast.Unparen(ifs.Cond).(*ast.BinaryExpr)
		if !ok || cond.Op != token.EQL {
			continue
		}
		for _, pair := range [2][2]ast.Expr{{cond.X, cond.Y}, {cond.Y, cond.X}} {
			x := ast.Unparen(pair[0])
			if call, ok := x.(*ast.CallExpr); ok && len(call.Args) == 1 {
				if fn, ok := call.Fun.(*ast.Ident); ok && fn.Name == "len" {
					x = ast.Unparen(call.Args[0])
				}
			}
			sel, ok := x.(*ast.SelectorExpr)
			if ok && isZero(pair[1]) && fieldKey(info, sel) == k {
				return true
			}
		}
	}
	return false
}

func isZero(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.BasicLit:
		return e.Value == "0" || e.Value == `""`
	case *ast.Ident:
		return e.Name == "nil" || e.Name == "false"
	}
	return false
}

// scanTests parses the _test.go files in pkg's directory and records,
// by syntax alone, what they reference. Their field writes do not
// count: a knob only tests set has no caller.
func (d *deadAPI) scanTests(pkg *loader.Package) error {
	names, err := filepath.Glob(filepath.Join(pkg.Dir, "*_test.go"))
	if err != nil {
		return err
	}
	add := func(m map[string]map[string]bool, k string) {
		if m[k] == nil {
			m[k] = map[string]bool{}
		}
		m[k][pkg.Dir] = true
	}
	fset := token.NewFileSet()
	for _, name := range names {
		src, err := os.ReadFile(name)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, name, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		imports := map[string]string{} // local name -> import path
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			local, ok := d.pkgNames[path]
			if !ok {
				local = path[strings.LastIndex(path, "/")+1:]
			}
			if imp.Name != nil {
				local = imp.Name.Name
			}
			imports[local] = path
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				add(d.testSel, n.Sel.Name)
				if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
					add(d.testQual, imports[x.Name]+"."+n.Sel.Name)
				}
			case *ast.Ident:
				add(d.testIdent, n.Name)
			}
			return true
		})
	}
	return nil
}

// elsewhere reports whether dirs holds a directory other than dir.
func elsewhere(dirs map[string]bool, dir string) bool {
	for d := range dirs {
		if d != dir {
			return true
		}
	}
	return false
}

// check reports pkg's dead declarations and unwritten config fields.
func (d *deadAPI) check(pkg *loader.Package, report func(token.Pos, string)) {
	dead := func(id *ast.Ident, display string, testRefs map[string]bool) {
		k := objKey(pkg.Info.Defs[id])
		if k == "" || d.used[k] || elsewhere(testRefs, pkg.Dir) {
			return
		}
		if d.testIdent[id.Name][pkg.Dir] {
			report(id.Pos(), display+" is referenced only by its own package's tests")
		} else {
			report(id.Pos(), display+" is never referenced")
		}
	}
	qual := func(id *ast.Ident) {
		if id.Name != "_" {
			dead(id, pkg.Types.Name()+"."+id.Name, d.testQual[pkg.Path+"."+id.Name])
		}
	}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil {
					if decl.Name.Name != "init" {
						qual(decl.Name)
					}
					continue
				}
				fn, _ := pkg.Info.Defs[decl.Name].(*types.Func)
				named := namedOf(fn.Type().(*types.Signature).Recv().Type())
				switch m := decl.Name.Name; {
				case m == "String" || m == "Error" || m == "Format":
				case d.iface[m+sigKey(fn.Type().(*types.Signature))]:
				case named != nil:
					dead(decl.Name, pkg.Types.Name()+"."+named.Obj().Name()+"."+m, d.testSel[m])
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						qual(spec.Name)
						d.checkConfig(pkg, spec, report)
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							qual(id)
						}
					}
				}
			}
		}
	}
}

// checkConfig reports the exported fields of a *Config or *Options
// struct that nothing writes, directly or through a chain of copies.
func (d *deadAPI) checkConfig(pkg *loader.Package, spec *ast.TypeSpec, report func(token.Pos, string)) {
	name := spec.Name.Name
	st, ok := spec.Type.(*ast.StructType)
	if !ok || !(strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options")) {
		return
	}
	for _, field := range st.Fields.List {
		for _, id := range field.Names {
			k := pkg.Path + "." + name + "." + id.Name
			if !id.IsExported() || d.isWritten(k, map[string]bool{}) {
				continue
			}
			why := "is never written (a zero-value default is not a write)"
			if len(d.forward[k]) > 0 {
				why = "is only copied from fields nothing writes"
			}
			report(id.Pos(), fmt.Sprintf("%s.%s.%s %s", pkg.Types.Name(), name, id.Name, why))
		}
	}
}
