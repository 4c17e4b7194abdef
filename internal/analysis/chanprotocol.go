package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// ChanProtocolAnalyzer guards the cluster messaging contract behind
// the "sends never block" inbox-sizing claim: every channel assigned
// into an inbox-named field or variable must be buffered, and no send
// into an inbox may happen while a mutex is held (a blocked sender
// holding a node lock is the distributed-deadlock shape).
var ChanProtocolAnalyzer = &Analyzer{
	Name: "chan-protocol",
	Run:  runChanProtocol,
}

func runChanProtocol(pass *Pass) {
	info := pass.Pkg.Info

	// Sub-check 1: unbuffered make(chan T) flowing into an inbox.
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					if i >= len(n.Rhs) {
						break
					}
					if name := inboxName(lhs); name != "" && isUnbufferedMakeChan(info, n.Rhs[i]) {
						pass.Reportf(n.Rhs[i].Pos(),
							"inbox %s is assigned an unbuffered channel; sends into it can block (size it for the worst-case message count)", name)
					}
				}
			case *ast.KeyValueExpr:
				if key, ok := n.Key.(*ast.Ident); ok &&
					strings.Contains(strings.ToLower(key.Name), "inbox") &&
					isUnbufferedMakeChan(info, n.Value) {
					pass.Reportf(n.Value.Pos(),
						"inbox %s is initialized with an unbuffered channel; sends into it can block", key.Name)
				}
			case *ast.ValueSpec:
				for i, name := range n.Names {
					if i < len(n.Values) &&
						strings.Contains(strings.ToLower(name.Name), "inbox") &&
						isUnbufferedMakeChan(info, n.Values[i]) {
						pass.Reportf(n.Values[i].Pos(),
							"inbox %s is declared with an unbuffered channel; sends into it can block", name.Name)
					}
				}
			}
			return true
		})
	}

	// Sub-check 2: send into an inbox while holding any mutex.
	pass.ForEachFunc(func(fn *Func) {
		if fn.Body == nil {
			return
		}
		lockWalk(pass.Pkg, fn.Body, func(s ast.Stmt, held lockSet) {
			if len(held) == 0 {
				return
			}
			send, ok := s.(*ast.SendStmt)
			if !ok {
				return
			}
			if inboxName(send.Chan) != "" {
				pass.Reportf(send.Pos(),
					"send into inbox %s while holding %s in %s (a full inbox would deadlock the node)",
					exprKey(send.Chan), heldNames(held), fn.Name)
			}
		})
	})
}

// inboxName returns the trailing identifier of e if it names an inbox
// ("inbox", "n.inbox", "g.nodes[i].inbox"), else "".
func inboxName(e ast.Expr) string {
	var name string
	switch v := ast.Unparen(e).(type) {
	case *ast.Ident:
		name = v.Name
	case *ast.SelectorExpr:
		name = v.Sel.Name
	case *ast.IndexExpr:
		return inboxName(v.X)
	default:
		return ""
	}
	if strings.Contains(strings.ToLower(name), "inbox") {
		return name
	}
	return ""
}

// isUnbufferedMakeChan matches make(chan T) with no capacity argument.
func isUnbufferedMakeChan(info *types.Info, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) != 1 {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "make" {
		return false
	}
	if _, isB := info.Uses[id].(*types.Builtin); !isB {
		return false
	}
	// make's first argument is a type expression; TypeOf resolves it
	// to the type it denotes.
	t := info.TypeOf(call.Args[0])
	if t == nil {
		return false
	}
	_, isChan := t.Underlying().(*types.Chan)
	return isChan
}
