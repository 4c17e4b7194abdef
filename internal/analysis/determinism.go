package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// DeterminismAnalyzer guards the bitwise-reproducibility claims: map
// iteration order is random per run, so a range over a map must not
// let that order reach exported results, trace output or message
// emission. Flagged shapes inside a map-range body:
//
//   - printing (fmt.Print*/Fprint*) — output line order varies;
//   - channel sends — downstream consumers observe a random order;
//   - returning a value derived from the iteration variables — which
//     element "wins" differs run to run (the error-message shape);
//   - appending to a slice that escapes the function without a
//     subsequent sort — callers see a randomly ordered result.
//
// The append shape is cleared by any sort.*/slices.Sort* call on the
// same slice later in the function, which is the repo's canonical
// collect-then-sort idiom.
var DeterminismAnalyzer = &Analyzer{
	Name: "determinism",
	Run:  runDeterminism,
}

func runDeterminism(pass *Pass) {
	pass.ForEachFunc(func(fn *Func) {
		if fn.Body == nil || fn.Lit != nil {
			return // literals are visited via their enclosing declaration
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			if _, isMap := typeUnder(pass.TypeOf(rng.X)).(*types.Map); !isMap {
				return true
			}
			checkMapRange(pass, fn, rng)
			return true
		})
	})
}

func typeUnder(t types.Type) types.Type {
	if t == nil {
		return nil
	}
	return t.Underlying()
}

func checkMapRange(pass *Pass, fn *Func, rng *ast.RangeStmt) {
	info := pass.Pkg.Info
	loopVars := rangeVarObjects(info, rng)

	type appendTarget struct {
		key string
		obj types.Object // nil when the target is a selector/index
		pos token.Pos
	}
	var appends []appendTarget

	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // runs elsewhere (or is a different unit)
		case *ast.CallExpr:
			if name := printCallName(info, n); name != "" {
				pass.Reportf(n.Pos(),
					"%s inside iteration over map %s in %s: output order varies per run",
					name, exprKey(rng.X), fn.Name)
			}
		case *ast.SendStmt:
			pass.Reportf(n.Pos(),
				"channel send inside iteration over map %s in %s: receivers observe a random order",
				exprKey(rng.X), fn.Name)
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				for _, lv := range loopVars {
					if usesObject(info, res, lv) {
						pass.Reportf(n.Pos(),
							"return of a value derived from the iteration over map %s in %s: which element is returned varies per run",
							exprKey(rng.X), fn.Name)
						return true
					}
				}
			}
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if i >= len(n.Lhs) {
					break
				}
				if tgt, obj := appendSelfTarget(info, n.Lhs[i], rhs); tgt != "" {
					appends = append(appends, appendTarget{key: tgt, obj: obj, pos: n.Pos()})
				}
			}
		}
		return true
	})

	// Append targets: cleared by a later sort on the same slice,
	// otherwise flagged if the slice escapes the function.
	for _, a := range appends {
		if sortedAfter(info, fn.Body, a.key, rng.End()) {
			continue
		}
		if escapes(info, fn.Body, a.key, a.obj, rng) {
			pass.Reportf(a.pos,
				"%s accumulates map iteration order of %s in %s and escapes unsorted: result order varies per run",
				a.key, exprKey(rng.X), fn.Name)
		}
	}
}

// rangeVarObjects returns the objects of the key/value loop variables.
func rangeVarObjects(info *types.Info, rng *ast.RangeStmt) []types.Object {
	var objs []types.Object
	for _, e := range []ast.Expr{rng.Key, rng.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if obj := info.Defs[id]; obj != nil {
				objs = append(objs, obj)
			} else if obj := info.Uses[id]; obj != nil {
				objs = append(objs, obj) // for k = range (pre-declared)
			}
		}
	}
	return objs
}

// printCallName matches fmt's direct-output calls. Sprint* is excluded
// (a formatted string may feed a keyed structure); Print*/Fprint* hit
// a stream immediately.
func printCallName(info *types.Info, call *ast.CallExpr) string {
	callee := calleeOf(info, call)
	if callee == nil || callee.Pkg() == nil || callee.Pkg().Path() != "fmt" {
		return ""
	}
	name := callee.Name()
	if strings.HasPrefix(name, "Print") || strings.HasPrefix(name, "Fprint") {
		return "fmt." + name
	}
	return ""
}

// appendSelfTarget matches x = append(x, ...) and returns the key of
// x plus its object when x is a plain variable.
func appendSelfTarget(info *types.Info, lhs, rhs ast.Expr) (string, types.Object) {
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return "", nil
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" {
		return "", nil
	}
	if _, isB := info.Uses[id].(*types.Builtin); !isB {
		return "", nil
	}
	lk, ak := exprKey(lhs), exprKey(call.Args[0])
	if lk != ak {
		return "", nil
	}
	var obj types.Object
	if tid, isID := ast.Unparen(lhs).(*ast.Ident); isID {
		obj = info.Uses[tid]
		if obj == nil {
			obj = info.Defs[tid]
		}
	}
	return lk, obj
}

// sortedAfter reports whether a sort.*/slices.Sort* call mentioning
// key occurs in body after pos.
func sortedAfter(info *types.Info, body *ast.BlockStmt, key string, pos token.Pos) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() <= pos {
			return true
		}
		callee := calleeOf(info, call)
		if callee == nil {
			return true
		}
		switch {
		case callee.Pkg() != nil && (callee.Pkg().Path() == "sort" || callee.Pkg().Path() == "slices"):
			if !strings.HasPrefix(callee.Name(), "Sort") && !strings.HasPrefix(callee.Name(), "Stable") &&
				!strings.HasPrefix(callee.Name(), "Slice") &&
				callee.Name() != "Strings" && callee.Name() != "Ints" && callee.Name() != "Float64s" {
				return true
			}
		case hasPrefixFold(callee.Name(), "sort"):
			// A local helper named sort* (sortTileIDs, ...) is the
			// repo's collect-then-sort idiom, one call removed.
		default:
			return true
		}
		for _, a := range call.Args {
			if strings.Contains(exprKey(a), key) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// escapes reports whether the accumulating slice leaves the function:
// it is a field (selector target), is returned as a bare value, or is
// passed whole to a call after the loop. Deriving a scalar from it
// (len(x)) is not an escape — the order dies inside the function.
func escapes(info *types.Info, body *ast.BlockStmt, key string, obj types.Object, rng *ast.RangeStmt) bool {
	if strings.Contains(key, ".") || strings.Contains(key, "[") {
		return true // field or element of something longer-lived
	}
	if obj == nil {
		return true // unresolvable target: be conservative
	}
	esc := false
	ast.Inspect(body, func(n ast.Node) bool {
		if esc {
			return false
		}
		switch n := n.(type) {
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				if bareUse(info, r, obj) {
					esc = true
				}
			}
		case *ast.CallExpr:
			if n.Pos() <= rng.End() {
				return true
			}
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
				if _, isB := info.Uses[id].(*types.Builtin); isB {
					return true
				}
			}
			for _, a := range n.Args {
				if bareUse(info, a, obj) {
					esc = true
				}
			}
		}
		return !esc
	})
	return esc
}
