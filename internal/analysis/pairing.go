package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// PairingAnalyzer guards the pooled-resource contract behind the
// zero-alloc kernel claim: every dense.Workspace acquired with
// GetWorkspace and every sync.Pool Get must be returned on every CFG
// path out of the function — early returns, fall-through and panic
// paths included. A value handed onward (returned, stored, sent) is an
// ownership transfer and closes the obligation at that point.
var PairingAnalyzer = &Analyzer{
	Name: "pairing",
	Run:  runPairing,
}

// acquire is one open obligation: the variable holding the resource
// and how to release it.
type acquire struct {
	stmt ast.Stmt     // the acquiring statement
	obj  types.Object // variable bound to the resource (nil if discarded)
	what string       // "dense.Workspace" or "sync.Pool value"

	// For workspace acquires, release is obj.Release(). For pool
	// acquires, release is poolKey.Put(...).
	poolKey string
}

func runPairing(pass *Pass) {
	pass.ForEachFunc(func(fn *Func) {
		if fn.Body == nil {
			return
		}
		cfg := pass.Pkg.CFG(fn.Body)
		for _, blk := range cfg.Blocks {
			for i, s := range blk.Stmts {
				acq := matchAcquire(pass, s)
				if acq == nil {
					continue
				}
				checkAcquire(pass, fn, cfg, blk, i, acq)
			}
		}
	})
}

// matchAcquire recognizes `x := dense.GetWorkspace(...)`,
// `x := pool.Get()` and `x := pool.Get().(*T)` acquire statements.
func matchAcquire(pass *Pass, s ast.Stmt) *acquire {
	as, ok := s.(*ast.AssignStmt)
	if !ok || len(as.Rhs) != 1 || len(as.Lhs) != 1 {
		return nil
	}
	rhs := ast.Unparen(as.Rhs[0])
	if ta, isTA := rhs.(*ast.TypeAssertExpr); isTA {
		rhs = ast.Unparen(ta.X)
	}
	call, ok := rhs.(*ast.CallExpr)
	if !ok {
		return nil
	}
	var obj types.Object
	if id, isID := as.Lhs[0].(*ast.Ident); isID && id.Name != "_" {
		obj = pass.Pkg.Info.Defs[id]
		if obj == nil {
			obj = pass.Pkg.Info.Uses[id] // x = ... (reassignment)
		}
	}

	// dense.GetWorkspace(...): keyed by callee identity, so aliased
	// imports and wrappers that re-export it still match.
	if callee := calleeOf(pass.Pkg.Info, call); callee != nil &&
		callee.Name() == "GetWorkspace" && callee.Pkg() != nil &&
		strings.HasSuffix(callee.Pkg().Path(), "internal/dense") {
		return &acquire{stmt: s, obj: obj, what: "dense.Workspace"}
	}

	// pool.Get() on a sync.Pool receiver.
	if recv, isGet := methodOn(pass.Pkg.Info, call, "sync", "Pool", "Get"); isGet {
		return &acquire{stmt: s, obj: obj, what: "sync.Pool value", poolKey: exprKey(recv)}
	}
	return nil
}

// checkAcquire walks all CFG paths from the acquire forward, looking
// for a path on which the obligation never closes.
func checkAcquire(pass *Pass, fn *Func, cfg *CFG, blk *Block, idx int, acq *acquire) {
	info := pass.Pkg.Info
	type visitKey struct {
		blk     *Block
		exposed bool
	}
	visited := map[visitKey]bool{}
	var normalLeak, panicLeak bool

	// scan processes the statements of one block starting at from.
	// Returns true if the obligation closed inside the block.
	var walk func(blk *Block, from int, exposed bool)
	scan := func(blk *Block, from int, exposed *bool) bool {
		for _, s := range blk.Stmts[from:] {
			switch {
			case isRelease(info, s, acq, false):
				if *exposed {
					panicLeak = true
				}
				return true
			case isRelease(info, s, acq, true): // deferred: covers panics too
				return true
			case isTransfer(info, s, acq):
				return true
			}
			if _, isRet := s.(*ast.ReturnStmt); isRet {
				// A return that doesn't carry the resource leaks it.
				normalLeak = true
				return true
			}
			if !*exposed && mayPanic(info, s) {
				*exposed = true
			}
		}
		return false
	}
	walk = func(b *Block, from int, exposed bool) {
		if from == 0 {
			k := visitKey{blk: b, exposed: exposed}
			if visited[k] {
				return
			}
			visited[k] = true
		}
		e := exposed
		if scan(b, from, &e) {
			return
		}
		if len(b.Succs) == 0 && b != cfg.Exit && b != cfg.Panic {
			// Dead-end block (e.g. select{}): path never returns.
			return
		}
		for _, succ := range b.Succs {
			switch succ {
			case cfg.Exit:
				normalLeak = true
			case cfg.Panic:
				panicLeak = true
			default:
				walk(succ, 0, e)
			}
		}
	}
	walk(blk, idx+1, false)

	switch {
	case normalLeak:
		pass.Reportf(acq.stmt.Pos(),
			"%s acquired in %s is not released on every path (early return or fall-through misses Release/Put)",
			acq.what, fn.Name)
	case panicLeak:
		pass.Reportf(acq.stmt.Pos(),
			"%s acquired in %s is released only on the normal path: a panic between acquire and release leaks it (defer the release)",
			acq.what, fn.Name)
	}
}

// isRelease matches the closing statement for an obligation:
// x.Release() for workspaces, pool.Put(...) for pool values, plain or
// deferred according to wantDefer.
func isRelease(info *types.Info, s ast.Stmt, acq *acquire, wantDefer bool) bool {
	var call *ast.CallExpr
	switch st := s.(type) {
	case *ast.ExprStmt:
		if wantDefer {
			return false
		}
		c, ok := ast.Unparen(st.X).(*ast.CallExpr)
		if !ok {
			return false
		}
		call = c
	case *ast.DeferStmt:
		if !wantDefer {
			return false
		}
		call = st.Call
		// defer func() { ...release... }() closes the obligation too.
		if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
			closed := false
			ast.Inspect(lit.Body, func(n ast.Node) bool {
				if es, isE := n.(*ast.ExprStmt); isE && !closed {
					closed = isRelease(info, es, acq, false)
				}
				return !closed
			})
			return closed
		}
	default:
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if acq.poolKey != "" {
		return sel.Sel.Name == "Put" && exprKey(sel.X) == acq.poolKey
	}
	if sel.Sel.Name != "Release" {
		return false
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	return ok && acq.obj != nil && info.Uses[id] == acq.obj
}

// isTransfer reports whether s hands the resource onward: returning
// it, assigning it into another variable/field, or sending it on a
// channel. The new owner carries the release obligation. Only bare
// uses transfer — a method call on the resource (ws.Factor(...)) is a
// loan, not a handoff, and leaves the obligation open.
func isTransfer(info *types.Info, s ast.Stmt, acq *acquire) bool {
	if acq.obj == nil {
		return false
	}
	switch st := s.(type) {
	case *ast.ReturnStmt:
		for _, r := range st.Results {
			if bareUse(info, r, acq.obj) {
				return true
			}
		}
	case *ast.AssignStmt:
		if st == acq.stmt {
			return false
		}
		for _, r := range st.Rhs {
			if bareUse(info, r, acq.obj) {
				return true
			}
		}
	case *ast.SendStmt:
		return bareUse(info, st.Value, acq.obj)
	}
	return false
}

// bareUse reports whether e is the resource variable itself, possibly
// behind &, a composite literal element, or a key-value element.
func bareUse(info *types.Info, e ast.Expr, obj types.Object) bool {
	switch v := ast.Unparen(e).(type) {
	case *ast.Ident:
		return info.Uses[v] == obj
	case *ast.UnaryExpr:
		return bareUse(info, v.X, obj)
	case *ast.KeyValueExpr:
		return bareUse(info, v.Value, obj)
	case *ast.CompositeLit:
		for _, elt := range v.Elts {
			if bareUse(info, elt, obj) {
				return true
			}
		}
	}
	return false
}

// mayPanic reports whether s contains a call that can panic: any
// non-builtin, non-conversion call (closure bodies excluded — they
// run elsewhere). Index and nil-deref panics are out of scope.
func mayPanic(info *types.Info, s ast.Stmt) bool {
	found := false
	ast.Inspect(s, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if tv, isT := info.Types[call.Fun]; isT && tv.IsType() {
			return true // conversion
		}
		if id, isID := ast.Unparen(call.Fun).(*ast.Ident); isID {
			if _, isB := info.Uses[id].(*types.Builtin); isB {
				return true // builtins other than panic don't panic here
			}
		}
		found = true
		return false
	})
	return found
}
