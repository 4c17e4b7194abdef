package analysis

import (
	"go/ast"
	"go/types"
)

// CtxFlowAnalyzer guards the cancellation paths added for the solve
// service: a function that takes a context.Context must actually
// thread it. Flagged shapes when a ctx parameter is in scope:
//
//   - the parameter is never used (cancellation silently dead-ends);
//   - context.Background()/TODO() passed to a callee (detaches the
//     call from the caller's deadline) — except inside go/defer
//     literals, where outliving the request is often the point;
//   - calling F when the same package exports FCtx taking a context
//     first (the Solve/SolveCtx, Refine/RefineCtx pairs);
//   - building a struct literal that has a context.Context field
//     (core.Options.Context) without setting it, unless the field is
//     assigned later in the function.
var CtxFlowAnalyzer = &Analyzer{
	Name: "ctx-flow",
	Run:  runCtxFlow,
}

func runCtxFlow(pass *Pass) {
	info := pass.Pkg.Info
	pass.ForEachFunc(func(fn *Func) {
		if fn.Body == nil || fn.Lit != nil {
			return
		}
		ctxParams := contextParams(info, fn.Type)
		if len(ctxParams) == 0 {
			return
		}

		// Sub-check 1: dropped context.
		for _, p := range ctxParams {
			if !usesObject(info, fn.Body, p) {
				pass.Reportf(p.Pos(),
					"context parameter %s of %s is never used: cancellation and deadlines dead-end here",
					p.Name(), fn.Name)
			}
		}

		// Literals detached on purpose: a goroutine or defer body may
		// outlive the request, so Background() there is legitimate.
		detached := map[*ast.FuncLit]bool{}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
					detached[lit] = true
				}
			case *ast.DeferStmt:
				if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
					detached[lit] = true
				}
			}
			return true
		})

		ast.Inspect(fn.Body, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok && detached[lit] {
				return false
			}
			switch n := n.(type) {
			case *ast.CallExpr:
				// Sub-check 2: detaching from the live context.
				for _, arg := range n.Args {
					if isFreshBackground(info, arg) {
						pass.Reportf(arg.Pos(),
							"%s passed while %s is in scope in %s: callee is detached from the caller's cancellation",
							exprKey(arg), ctxParams[0].Name(), fn.Name)
					}
				}
				// Sub-check 3: a ctx-aware sibling exists.
				if name := ctxVariantOf(info, n); name != "" && !callHasContextArg(info, n) {
					pass.Reportf(n.Pos(),
						"call drops %s in %s: %s exists and takes the context",
						ctxParams[0].Name(), fn.Name, name)
				}
			case *ast.CompositeLit:
				// Sub-check 4: context-bearing options struct built
				// without its Context field.
				if field := missingContextField(info, fn.Body, n); field != "" {
					pass.Reportf(n.Pos(),
						"composite literal leaves %s unset while %s is in scope in %s",
						field, ctxParams[0].Name(), fn.Name)
				}
			}
			return true
		})
	})
}

// contextParams returns the named context.Context parameters.
func contextParams(info *types.Info, ft *ast.FuncType) []*types.Var {
	var out []*types.Var
	if ft.Params == nil {
		return nil
	}
	for _, field := range ft.Params.List {
		if !isNamedType(info.TypeOf(field.Type), "context", "Context") {
			continue
		}
		for _, name := range field.Names {
			if name.Name == "_" {
				continue
			}
			if v, ok := info.Defs[name].(*types.Var); ok {
				out = append(out, v)
			}
		}
	}
	return out
}

// isFreshBackground matches context.Background() / context.TODO().
func isFreshBackground(info *types.Info, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	callee := calleeOf(info, call)
	return callee != nil && callee.Pkg() != nil && callee.Pkg().Path() == "context" &&
		(callee.Name() == "Background" || callee.Name() == "TODO")
}

// ctxVariantOf reports the name of a <F>Ctx sibling of the callee that
// takes a context.Context first, or "".
func ctxVariantOf(info *types.Info, call *ast.CallExpr) string {
	callee := calleeOf(info, call)
	if callee == nil || callee.Pkg() == nil {
		return ""
	}
	fn, ok := callee.(*types.Func)
	if !ok {
		return ""
	}
	if sig, okSig := fn.Type().(*types.Signature); !okSig || sig.Recv() != nil {
		return "" // methods: receiver-scoped naming, skip
	}
	variant := callee.Pkg().Scope().Lookup(callee.Name() + "Ctx")
	if variant == nil {
		return ""
	}
	vfn, ok := variant.(*types.Func)
	if !ok {
		return ""
	}
	sig, ok := vfn.Type().(*types.Signature)
	if !ok || sig.Params().Len() == 0 {
		return ""
	}
	if !isNamedType(sig.Params().At(0).Type(), "context", "Context") {
		return ""
	}
	return callee.Pkg().Name() + "." + vfn.Name()
}

// callHasContextArg reports whether any argument is context-typed
// (the caller already threads a context into this call).
func callHasContextArg(info *types.Info, call *ast.CallExpr) bool {
	for _, a := range call.Args {
		if isNamedType(info.TypeOf(a), "context", "Context") {
			return true
		}
	}
	return false
}

// missingContextField returns "T.Field" if lit is a struct literal
// with a context.Context field that is neither set in the literal nor
// assigned later in body.
func missingContextField(info *types.Info, body *ast.BlockStmt, lit *ast.CompositeLit) string {
	t := info.TypeOf(lit)
	if t == nil {
		return ""
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return ""
	}
	fieldName := ""
	for i := 0; i < st.NumFields(); i++ {
		if isNamedType(st.Field(i).Type(), "context", "Context") {
			fieldName = st.Field(i).Name()
			break
		}
	}
	if fieldName == "" {
		return ""
	}
	// An empty literal is a zero value (error-path sentinels and the
	// like), not a configuration being assembled: skip it.
	if len(lit.Elts) == 0 {
		return ""
	}
	// Positional literals set every field; keyed ones must name it.
	if _, keyed := lit.Elts[0].(*ast.KeyValueExpr); !keyed {
		return ""
	}
	for _, elt := range lit.Elts {
		if kv, okKV := elt.(*ast.KeyValueExpr); okKV {
			if key, okK := kv.Key.(*ast.Ident); okK && key.Name == fieldName {
				return ""
			}
		}
	}
	// A later `opts.Context = ...` assignment counts as threading.
	assigned := false
	ast.Inspect(body, func(n ast.Node) bool {
		if assigned {
			return false
		}
		as, okA := n.(*ast.AssignStmt)
		if !okA || as.Pos() <= lit.End() {
			return true
		}
		for _, l := range as.Lhs {
			if sel, okS := ast.Unparen(l).(*ast.SelectorExpr); okS && sel.Sel.Name == fieldName {
				assigned = true
			}
		}
		return true
	})
	if assigned {
		return ""
	}
	return named.Obj().Name() + "." + fieldName
}
