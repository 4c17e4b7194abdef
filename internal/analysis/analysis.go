// Package analysis is a stdlib-only, type-checked multi-analyzer
// driver for the repo's invariant lints. It loads packages with
// go/types (source importer), builds per-function control-flow graphs
// from the AST, and runs analyzers as pluggable passes over one shared
// type-annotated program. cmd/lint is the thin CLI over this package.
//
// The design deliberately mirrors golang.org/x/tools/go/analysis in
// shape (Analyzer / Pass / Reportf) without importing it: the repo has
// a zero-dependency policy, and the subset needed here — one module,
// a handful of analyzers, flow-sensitive checks over function bodies —
// fits in a few hundred lines on top of go/ast and go/types.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer is one pluggable pass. Run inspects a single type-checked
// package and reports findings through the Pass.
type Analyzer struct {
	// Name is the [name] tag in findings. Lower-case, hyphenated.
	Name string
	// Run inspects pass.Pkg and calls pass.Reportf for each violation.
	Run func(pass *Pass)
}

// Finding is one reported violation, positioned and attributed.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the stable report line: file:line:col: [analyzer] msg.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
}

// less orders findings for stable output: by file, line, column,
// analyzer name, then message.
func (f Finding) less(g Finding) bool {
	if f.Pos.Filename != g.Pos.Filename {
		return f.Pos.Filename < g.Pos.Filename
	}
	if f.Pos.Line != g.Pos.Line {
		return f.Pos.Line < g.Pos.Line
	}
	if f.Pos.Column != g.Pos.Column {
		return f.Pos.Column < g.Pos.Column
	}
	if f.Analyzer != g.Analyzer {
		return f.Analyzer < g.Analyzer
	}
	return f.Message < g.Message
}

// Pass carries one analyzer's view of one package. Analyzers read the
// syntax and types through it and report through Reportf.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package

	report func(Finding)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.report(Finding{
		Pos:      p.Pkg.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of e, or nil if not recorded.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Pkg.Info.TypeOf(e) }

// Func is one function body in a package: a declaration or a function
// literal, with enough context to label findings.
type Func struct {
	// Name is a human label: "Pkg.Func", "(*T).Method" or "func literal".
	Name string
	// Decl is non-nil for declared functions, Lit for literals.
	Decl *ast.FuncDecl
	Lit  *ast.FuncLit
	// Type and Body are the signature and body (Body nil for
	// assembly-backed declarations).
	Type *ast.FuncType
	Body *ast.BlockStmt
}

// ForEachFunc visits every function declaration and function literal
// in the package, outermost first.
func (p *Pass) ForEachFunc(visit func(fn *Func)) {
	for _, file := range p.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch d := n.(type) {
			case *ast.FuncDecl:
				visit(&Func{Name: funcDeclName(d), Decl: d, Type: d.Type, Body: d.Body})
			case *ast.FuncLit:
				visit(&Func{Name: "func literal", Lit: d, Type: d.Type, Body: d.Body})
			}
			return true
		})
	}
}

func funcDeclName(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return d.Name.Name
	}
	recv := types.ExprString(d.Recv.List[0].Type)
	return "(" + recv + ")." + d.Name.Name
}

// isNamedType reports whether t, after stripping one pointer level, is
// the named type path.name (aliases resolve through go/types).
func isNamedType(t types.Type, path, name string) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	if obj.Name() != name {
		return false
	}
	if path == "" {
		return obj.Pkg() == nil
	}
	return obj.Pkg() != nil && obj.Pkg().Path() == path
}

// calleeOf resolves a call expression to the static callee object, or
// nil for dynamic calls (function values, interface methods resolve to
// the interface method object).
func calleeOf(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			return sel.Obj()
		}
		// Package-qualified call: pkg.F.
		return info.Uses[fun.Sel]
	}
	return nil
}

// calleeName renders a static callee as "pkgpath.Name" (methods as
// "pkgpath.recv.Name" is not needed; method checks key on receiver
// types instead).
func calleeName(obj types.Object) string {
	if obj == nil {
		return ""
	}
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// exprKey renders an expression as a canonical string so that two
// syntactic occurrences of the same lvalue (e.g. "n.mu") compare
// equal. Parens are stripped.
func exprKey(e ast.Expr) string {
	return types.ExprString(ast.Unparen(e))
}

// methodOn reports whether call is a method call named method on a
// receiver whose type (pointer-stripped) is path.typename. The
// receiver expression is returned for keying.
func methodOn(info *types.Info, call *ast.CallExpr, path, typename, method string) (ast.Expr, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != method {
		return nil, false
	}
	if !isNamedType(info.TypeOf(sel.X), path, typename) {
		return nil, false
	}
	return sel.X, true
}

// usesIdent reports whether node references the object obj anywhere.
func usesObject(info *types.Info, node ast.Node, obj types.Object) bool {
	if node == nil || obj == nil {
		return false
	}
	found := false
	ast.Inspect(node, func(n ast.Node) bool {
		if found {
			return false
		}
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}

// hasPrefixFold reports whether s starts with prefix, case-insensitively.
func hasPrefixFold(s, prefix string) bool {
	return len(s) >= len(prefix) && strings.EqualFold(s[:len(prefix)], prefix)
}
