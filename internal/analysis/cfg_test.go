package analysis

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

// packageFromSource type-checks a single-file package for unit tests.
func packageFromSource(t *testing.T, src string) *Package {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "src.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := newInfo()
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	tpkg, err := conf.Check("p", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatalf("type-check: %v", err)
	}
	return &Package{Path: "p", Dir: ".", Fset: fset, Files: []*ast.File{f}, Types: tpkg, Info: info}
}

func funcBody(t *testing.T, pkg *Package, name string) *ast.BlockStmt {
	t.Helper()
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == name {
				return fd.Body
			}
		}
	}
	t.Fatalf("no function %s", name)
	return nil
}

// reachable returns the blocks reachable from b (inclusive).
func reachable(b *Block) map[*Block]bool {
	seen := map[*Block]bool{}
	var walk func(*Block)
	walk = func(blk *Block) {
		if seen[blk] {
			return
		}
		seen[blk] = true
		for _, s := range blk.Succs {
			walk(s)
		}
	}
	walk(b)
	return seen
}

func TestCFGShapes(t *testing.T) {
	pkg := packageFromSource(t, `package p

func branches(c bool) int {
	if c {
		return 1
	}
	return 2
}

func panics(c bool) int {
	if c {
		panic("boom")
	}
	return 0
}

func loops(n int) int {
	s := 0
	for i := 0; i < n; i++ {
		if i == 7 {
			break
		}
		s += i
	}
	return s
}

func selects(ch chan int) int {
	select {
	case v := <-ch:
		return v
	default:
		return -1
	}
}
`)
	for _, name := range []string{"branches", "panics", "loops", "selects"} {
		cfg := pkg.CFG(funcBody(t, pkg, name))
		r := reachable(cfg.Entry)
		if !r[cfg.Exit] {
			t.Errorf("%s: Exit not reachable from Entry", name)
		}
		if name == "panics" && !r[cfg.Panic] {
			t.Errorf("panics: Panic sink not reachable despite explicit panic")
		}
		if name != "panics" && r[cfg.Panic] {
			t.Errorf("%s: Panic sink reachable without a panic statement", name)
		}
	}

	// The loop must have a back edge: some reachable block has a
	// reachable predecessor later in the walk — cheap proxy: the body
	// block count exceeds the straight-line count and Exit is still
	// reachable (an infinite loop would disconnect it).
	cfg := pkg.CFG(funcBody(t, pkg, "loops"))
	if len(cfg.Blocks) < 6 {
		t.Errorf("loops: suspiciously few blocks (%d) for init/head/body/post/after", len(cfg.Blocks))
	}
}

func TestLockWalkFacts(t *testing.T) {
	pkg := packageFromSource(t, `package p

import "sync"

type T struct {
	mu sync.Mutex
	ch chan int
}

func f(t *T, c bool) {
	t.mu.Lock()
	x := 1
	t.mu.Unlock()
	_ = x
	if c {
		t.mu.Lock()
	}
	x = 2
	_ = x
}
`)
	heldAtLine := map[int]int{}
	lockWalk(pkg, funcBody(t, pkg, "f"), func(s ast.Stmt, held lockSet) {
		heldAtLine[pkg.Fset.Position(s.Pos()).Line] = len(held)
	})
	// x := 1 (line 12) runs under the lock; _ = x (line 14) after the
	// unlock; x = 2 (line 18) joins a locked and an unlocked path, and
	// the may-analysis must keep it "held".
	for line, want := range map[int]int{12: 1, 14: 0, 18: 1} {
		if got := heldAtLine[line]; got != want {
			t.Errorf("line %d: %d locks held, want %d", line, got, want)
		}
	}
}
