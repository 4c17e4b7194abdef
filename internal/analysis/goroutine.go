package analysis

import "go/ast"

// AddInGoroutineAnalyzer ports PR 1's add-in-goroutine heuristic with
// type resolution: wg.Add called inside the goroutine it accounts for
// races with the matching Wait — the launcher can reach Wait before
// the goroutine has run Add. Matching the receiver type (not the
// variable name) also catches WaitGroups reached through struct
// fields.
var AddInGoroutineAnalyzer = &Analyzer{
	Name: "add-in-goroutine",
	Run:  runAddInGoroutine,
}

func runAddInGoroutine(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			lit, ok := g.Call.Fun.(*ast.FuncLit)
			if !ok {
				return true
			}
			ast.Inspect(lit.Body, func(m ast.Node) bool {
				call, okC := m.(*ast.CallExpr)
				if !okC {
					return true
				}
				if recv, isAdd := methodOn(pass.Pkg.Info, call, "sync", "WaitGroup", "Add"); isAdd {
					pass.Reportf(call.Pos(),
						"%s.Add inside the goroutine it accounts: Wait can run before Add (move Add before the go statement)",
						exprKey(recv))
				}
				return true
			})
			return true
		})
	}
}
