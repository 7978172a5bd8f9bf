// Package analysis is a minimal, dependency-free analogue of
// golang.org/x/tools/go/analysis: just enough surface (Analyzer, Pass,
// Diagnostic) for the simlint suite to be written in the upstream style,
// so that a future PR can swap the real module in without rewriting the
// analyzers. The repository builds offline, so vendoring x/tools is not
// an option; everything here rests on go/ast and go/types only.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one named invariant checker. Run receives a fully
// type-checked package via *Pass and reports findings through
// Pass.Report; it must not retain the Pass after returning.
type Analyzer struct {
	// Name is the rule name used in messages, allow pragmas
	// (//simlint:allow <name> <reason>), and -rules selection.
	Name string

	// Doc is a one-paragraph description shown by `simlint -help`.
	Doc string

	// Run performs the analysis on one package.
	Run func(*Pass) error
}

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report delivers one diagnostic. The driver wraps this to apply
	// //simlint:allow pragmas, so analyzers never see suppression.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// TypeOf returns the static type of expression e, or nil.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	return p.TypesInfo.TypeOf(e)
}

// ObjectOf returns the object an identifier denotes (use or def), or nil.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	return p.TypesInfo.ObjectOf(id)
}

// Inspect walks every file in the pass in depth-first order, calling f
// for each node; f returning false prunes the subtree (ast.Inspect
// semantics).
func (p *Pass) Inspect(f func(ast.Node) bool) {
	for _, file := range p.Files {
		ast.Inspect(file, f)
	}
}

// CalleeFunc resolves the called function or method of call to its
// types.Func, looking through parenthesization. It returns nil for
// builtins, conversions, and calls of function-typed values.
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}
