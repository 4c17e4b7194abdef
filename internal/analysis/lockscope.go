package analysis

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// LockScopeAnalyzer guards the build-outside-lock discipline the serve
// factor cache relies on by convention: no blocking operation may
// execute while a sync.Mutex/RWMutex is held. Blocking operations are
// channel sends and receives, select statements' comm cases,
// WaitGroup.Wait, time.Sleep, I/O drains, process waits and the
// repo's own long-running entry points (core.Factorize and friends).
// sync.Cond.Wait is exempt: it releases its mutex while blocked —
// that is the one sanctioned way to block under a lock.
var LockScopeAnalyzer = &Analyzer{
	Name: "lock-scope",
	Run:  runLockScope,
}

// blockingCalls maps fully-qualified function names to a short label.
// Methods are matched separately by receiver type.
var blockingCalls = map[string]string{
	"time.Sleep":                          "time.Sleep",
	"io.ReadAll":                          "io.ReadAll",
	"io.Copy":                             "io.Copy",
	"net/http.Get":                        "http.Get",
	"net/http.Post":                       "http.Post",
	"net/http.PostForm":                   "http.PostForm",
	"net/http.Head":                       "http.Head",
	"tlrchol/internal/core.Factorize":     "core.Factorize",
	"tlrchol/internal/core.FactorizeLDLt": "core.FactorizeLDLt",
	"tlrchol/internal/core.FactorizeDistributed": "core.FactorizeDistributed",
	"tlrchol/internal/core.Solve":                "core.Solve",
	"tlrchol/internal/core.SolveCtx":             "core.SolveCtx",
	"tlrchol/internal/core.SolveSequentialCtx":   "core.SolveSequentialCtx",
	"tlrchol/internal/core.Refine":               "core.Refine",
	"tlrchol/internal/core.RefineCtx":            "core.RefineCtx",
}

func runLockScope(pass *Pass) {
	pass.ForEachFunc(func(fn *Func) {
		if fn.Body == nil {
			return
		}
		lockWalk(pass.Pkg, fn.Body, func(s ast.Stmt, held lockSet) {
			if len(held) == 0 {
				return
			}
			if op := blockingOpIn(pass.Pkg.Info, s); op != "" {
				pass.Reportf(s.Pos(), "%s while holding %s in %s (blocking under a mutex)",
					op, heldNames(held), fn.Name)
			}
		})
	})
}

// blockingOpIn returns a description of the first blocking operation
// in statement s, or "". Function literal bodies are skipped: they
// execute elsewhere, under their own analysis.
func blockingOpIn(info *types.Info, s ast.Stmt) string {
	// defer mu.Unlock() etc. runs at return; its call is not executed
	// here. A deferred blocking call runs after the body finishes, when
	// an explicit Unlock may have already dropped the lock — too
	// imprecise to flag statically, so skip defers entirely.
	if _, isDefer := s.(*ast.DeferStmt); isDefer {
		return ""
	}
	if _, isGo := s.(*ast.GoStmt); isGo {
		return ""
	}
	op := ""
	ast.Inspect(s, func(n ast.Node) bool {
		if op != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SendStmt:
			op = "channel send"
			return false
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" {
				op = "channel receive"
				return false
			}
		case *ast.CallExpr:
			if name := blockingCallName(info, n); name != "" {
				op = "call to " + name
				return false
			}
		}
		return true
	})
	return op
}

// blockingCallName classifies one call as blocking, or returns "".
func blockingCallName(info *types.Info, call *ast.CallExpr) string {
	// Methods first: WaitGroup.Wait blocks; Cond.Wait is exempt
	// (releases the mutex); Client.Do and Cmd.Run/Wait/Output block.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if obj := info.Uses[sel.Sel]; obj != nil {
			if fn, isFn := obj.(*types.Func); isFn {
				if sig, isSig := fn.Type().(*types.Signature); isSig && sig.Recv() != nil {
					rt := sig.Recv().Type()
					switch {
					case isNamedType(rt, "sync", "WaitGroup") && fn.Name() == "Wait":
						return "WaitGroup.Wait"
					case isNamedType(rt, "net/http", "Client") && fn.Name() == "Do":
						return "http.Client.Do"
					case isNamedType(rt, "os/exec", "Cmd") &&
						(fn.Name() == "Run" || fn.Name() == "Wait" ||
							fn.Name() == "Output" || fn.Name() == "CombinedOutput"):
						return "exec.Cmd." + fn.Name()
					}
				}
			}
		}
	}
	callee := calleeOf(info, call)
	if callee == nil {
		return ""
	}
	name := calleeName(callee)
	if label, ok := blockingCalls[name]; ok {
		return label
	}
	// Module-relative match so a moved module path keeps working.
	for _, sl := range blockingSuffixes {
		if strings.HasSuffix(name, sl.suffix) {
			return sl.label
		}
	}
	return ""
}

// blockingSuffixes is the module-relative view of blockingCalls,
// sorted so lookup order never depends on map iteration.
var blockingSuffixes = func() []struct{ suffix, label string } {
	var out []struct{ suffix, label string }
	for full, label := range blockingCalls {
		if i := strings.Index(full, "internal/"); i > 0 {
			out = append(out, struct{ suffix, label string }{full[i:], label})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].suffix < out[j].suffix })
	return out
}()

// heldNames renders the held lock set deterministically.
func heldNames(held lockSet) string {
	names := make([]string, 0, len(held))
	for k := range held {
		names = append(names, k)
	}
	// Iteration order of a map is random; sort for stable reports.
	sort.Strings(names)
	return strings.Join(names, ", ")
}
