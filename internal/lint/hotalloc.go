package lint

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
)

// hotpathMarker tags a function whose body must stay allocation-free.
const hotpathMarker = "//simlint:hotpath"

// HotAlloc statically complements the Test*ZeroAlloc runtime guards.
var HotAlloc = &analysis.Analyzer{
	Name: "hotalloc",
	Doc: `flag allocation sources in //simlint:hotpath functions

Functions marked //simlint:hotpath (in the doc comment) are the
steady-state paths covered by AllocsPerRun guards: the sim kernel's
dispatch/handoff, netem delivery, netapi.Spawner's task start and the
pre-bound AfterCall protocol callbacks. Three allocation sources are
flagged statically so the guard fails at lint time, not test time:

  - fmt calls (every fmt API allocates)
  - capturing closures (a func literal that captures variables
    allocates unless inlined; hot paths spawn tasks through
    netapi.Spawner and arm timers with pre-bound callbacks)
  - interface boxing (converting a concrete non-pointer value to an
    interface type heap-allocates the value)

Non-capturing func literals and pointer-shaped conversions are free and
are not flagged.`,
	Run: runHotAlloc,
}

func runHotAlloc(pass *analysis.Pass) error {
	pass.Inspect(func(n ast.Node) bool {
		fn, ok := n.(*ast.FuncDecl)
		if !ok {
			return true
		}
		if fn.Body == nil || !isHotpath(fn) {
			return true
		}
		checkHotBody(pass, fn)
		return true
	})
	return nil
}

func isHotpath(fn *ast.FuncDecl) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		if strings.HasPrefix(c.Text, hotpathMarker) {
			rest := strings.TrimPrefix(c.Text, hotpathMarker)
			if rest == "" || rest[0] == ' ' || rest[0] == '\t' {
				return true
			}
		}
	}
	return false
}

func checkHotBody(pass *analysis.Pass, fn *ast.FuncDecl) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkHotCall(pass, fn, n)
		case *ast.FuncLit:
			if immediatelyCalled(fn.Body, n) {
				return true
			}
			if capt := capturedVars(pass, fn, n); len(capt) > 0 {
				pass.Reportf(n.Pos(), "closure capturing %s allocates on a hot path; spawn the task through netapi.Spawner, or arm a pre-bound AfterCall callback", strings.Join(capt, ", "))
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if i >= len(n.Rhs) {
					break
				}
				lt := pass.TypeOf(lhs)
				checkBoxing(pass, lt, n.Rhs[i], "assignment")
			}
		case *ast.ReturnStmt:
			sig, _ := pass.TypeOf(fn.Name).(*types.Signature)
			if sig != nil && len(n.Results) == sig.Results().Len() {
				for i, r := range n.Results {
					checkBoxing(pass, sig.Results().At(i).Type(), r, "return")
				}
			}
		}
		return true
	})
}

// checkHotCall flags fmt calls and interface boxing at call boundaries.
func checkHotCall(pass *analysis.Pass, fn *ast.FuncDecl, call *ast.CallExpr) {
	// Type conversions to interface types box their operand.
	if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		checkBoxing(pass, tv.Type, call.Args[0], "conversion")
		return
	}
	f := analysis.CalleeFunc(pass.TypesInfo, call)
	if f != nil && f.Pkg() != nil && f.Pkg().Path() == "fmt" {
		pass.Reportf(call.Pos(), "fmt.%s allocates on a hot path; pre-format off the hot path or append to a scratch buffer", f.Name())
		return
	}
	sig, _ := pass.TypeOf(call.Fun).(*types.Signature)
	if sig == nil {
		return
	}
	n := sig.Params().Len()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= n-1:
			if call.Ellipsis.IsValid() {
				continue // slice passed through, no per-element boxing
			}
			pt = sig.Params().At(n - 1).Type().(*types.Slice).Elem()
		case i < n:
			pt = sig.Params().At(i).Type()
		default:
			continue
		}
		checkBoxing(pass, pt, arg, "argument")
	}
}

// checkBoxing reports when expr (a concrete, non-pointer-shaped value)
// is converted to the interface type dst.
func checkBoxing(pass *analysis.Pass, dst types.Type, expr ast.Expr, what string) {
	if dst == nil || !types.IsInterface(dst) {
		return
	}
	at := pass.TypeOf(expr)
	if at == nil || types.IsInterface(at) {
		return
	}
	if tv, ok := pass.TypesInfo.Types[expr]; ok && (tv.IsNil() || tv.Value != nil) {
		// nil never allocates; constants (small ints, strings) either
		// use the runtime's static boxes or are hoisted by the compiler.
		return
	}
	if pointerShaped(at) {
		return
	}
	pass.Reportf(expr.Pos(), "%s boxes %s into %s, allocating on a hot path; keep hot-path values pointer-shaped or avoid the interface", what, at.String(), dst.String())
}

// pointerShaped reports whether values of t fit an interface word
// without allocation: pointers, maps, channels, funcs, unsafe pointers,
// and zero-size types.
func pointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Map, *types.Chan, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	case *types.Struct:
		return u.NumFields() == 0
	case *types.Array:
		return u.Len() == 0
	}
	return false
}

// immediatelyCalled reports whether lit appears as f() of a call
// expression somewhere in body (the func(){...}() pattern, which the
// compiler inlines without allocating).
func immediatelyCalled(body *ast.BlockStmt, lit *ast.FuncLit) bool {
	called := false
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && ast.Unparen(call.Fun) == lit {
			called = true
		}
		return !called
	})
	return called
}

// capturedVars lists the outer-function variables a func literal
// captures (objects declared in fn but outside lit).
func capturedVars(pass *analysis.Pass, fn *ast.FuncDecl, lit *ast.FuncLit) []string {
	seen := map[types.Object]bool{}
	var names []string
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.TypesInfo.Uses[id]
		v, isVar := obj.(*types.Var)
		if !isVar || v.IsField() || seen[obj] {
			return true
		}
		if obj.Pos() >= fn.Pos() && obj.Pos() < fn.End() &&
			!(obj.Pos() >= lit.Pos() && obj.Pos() < lit.End()) {
			seen[obj] = true
			names = append(names, v.Name())
		}
		return true
	})
	return names
}
