// Package spanname implements the glvet analyzer for timeline hygiene.
// Every span or instant emitted on a trace.Timeline (Span, Instant) must
// name itself through a package-level const matching
//
//	^[a-z][a-z0-9._]*$
//
// so each span family exists exactly once, greps cleanly, and a typo cannot
// mint a second track lane in the Perfetto UI. Dynamic name families
// ("barrier.phase." + kind) are allowed when the leftmost operand of the
// concatenation is such a const. Table-driven names (a const-initialized
// array indexed at the call site) carry a `//lint:allow spanname <reason>`
// comment instead.
package spanname

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"regexp"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the spanname analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "spanname",
	Doc:  "require package-level const span/instant names (lowercase dotted) on Timeline emit calls",
	Run:  run,
}

// nameRE is the required span-name shape (the metricname shape: one
// grep-able lowercase dotted vocabulary across metrics and spans).
var nameRE = regexp.MustCompile(`^[a-z][a-z0-9._]*$`)

// tracePkgSuffix identifies the timeline package by import-path suffix, so
// fixtures importing the real package and the simulator packages both
// resolve.
const tracePkgSuffix = "internal/trace"

// emitMethods are the Timeline methods whose second argument is a span
// name.
var emitMethods = map[string]bool{"Span": true, "Instant": true}

func run(pass *analysis.Pass) error {
	for _, pkg := range pass.Packages {
		if strings.HasSuffix(pkg.Path, tracePkgSuffix) {
			// The timeline package's own forwarding (Instant delegates to
			// Span with its name parameter) defines the API; it mints no
			// names.
			continue
		}
		for _, f := range pkg.Files {
			checkFile(pass, pkg, f)
		}
	}
	return nil
}

// checkFile finds Timeline.{Span,Instant} calls and validates their
// name argument.
func checkFile(pass *analysis.Pass, pkg *analysis.Package, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !emitMethods[sel.Sel.Name] || len(call.Args) < 2 {
			return true
		}
		fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil || !strings.HasSuffix(fn.Pkg().Path(), tracePkgSuffix) {
			return true
		}
		sig, ok := fn.Type().(*types.Signature)
		if !ok || sig.Recv() == nil {
			return true
		}
		checkName(pass, pkg, call.Args[1])
		return true
	})
}

// checkName validates one emit call's name argument: a package-level
// const, or a concatenation led by one (a name family).
func checkName(pass *analysis.Pass, pkg *analysis.Package, arg ast.Expr) {
	leftmost := arg
	for {
		bin, ok := leftmost.(*ast.BinaryExpr)
		if !ok || bin.Op != token.ADD {
			break
		}
		leftmost = bin.X
	}
	id := constIdent(leftmost)
	if id == nil {
		pass.Reportf(arg.Pos(), "span name must be (or start with) a package-level const matching %s, not an inline value", nameRE)
		return
	}
	obj, ok := pkg.Info.Uses[id].(*types.Const)
	if !ok {
		pass.Reportf(arg.Pos(), "span name must be (or start with) a package-level const, not %s", id.Name)
		return
	}
	if obj.Parent() != obj.Pkg().Scope() {
		pass.Reportf(arg.Pos(), "span name const %s must be declared at package level", id.Name)
		return
	}
	if obj.Val().Kind() != constant.String {
		pass.Reportf(arg.Pos(), "span name const %s is not a string", id.Name)
		return
	}
	if val := constant.StringVal(obj.Val()); !nameRE.MatchString(val) {
		pass.Reportf(arg.Pos(), "span name %q does not match %s", val, nameRE)
	}
}

// constIdent unwraps a (possibly package-qualified) identifier.
func constIdent(e ast.Expr) *ast.Ident {
	switch e := e.(type) {
	case *ast.Ident:
		return e
	case *ast.ParenExpr:
		return constIdent(e.X)
	case *ast.SelectorExpr:
		return e.Sel
	}
	return nil
}
