package analysis

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/build"
	"go/parser"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestTreeClean is the self-hosting gate: the entire module — the
// analysis packages included — must produce zero findings under every
// analyzer.
func TestTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	findings, err := Run([]string{"../../..."}, All())
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	for _, f := range findings {
		t.Errorf("tree not finding-clean: %s", f)
	}
}

// TestRealTreeFixRegression re-creates the pre-fix shape of the map
// iterations this PR repaired in obs.ValidateChromeTrace and
// cluster.Run — an error return inside a map range — and demands the
// determinism analyzer still catches it. Reverting any of those fixes
// reintroduces exactly this shape.
func TestRealTreeFixRegression(t *testing.T) {
	src := `package p

import "fmt"

func validate(workers map[int]bool, threads map[int]bool) error {
	for tk := range workers {
		if !threads[tk] {
			return fmt.Errorf("span track %d has no thread_name metadata", tk)
		}
	}
	return nil
}
`
	pkg := packageFromSource(t, src)
	findings := RunPackages([]*Package{pkg}, []*Analyzer{DeterminismAnalyzer})
	if len(findings) != 1 {
		t.Fatalf("got %d findings, want 1 (the pre-fix chrome.go/cluster.go shape): %v", len(findings), findings)
	}
	if !strings.Contains(findings[0].Message, "which element is returned varies") {
		t.Errorf("wrong finding for the pre-fix shape: %s", findings[0])
	}
}

// mutant type-checks the real package in dir (relative to the module
// root) with edits applied to one of its files: each pair is an old
// text that must occur exactly once and its replacement.
func mutant(t *testing.T, dir, file string, edits ...string) *Package {
	t.Helper()
	abs := filepath.Join("..", "..", dir)
	bp, err := build.ImportDir(abs, 0)
	if err != nil {
		t.Fatal(err)
	}
	l := sharedLoader()
	var files []*ast.File
	for _, name := range bp.GoFiles {
		src, err := os.ReadFile(filepath.Join(abs, name))
		if err != nil {
			t.Fatal(err)
		}
		if name == file {
			for i := 0; i < len(edits); i += 2 {
				if n := bytes.Count(src, []byte(edits[i])); n != 1 {
					t.Fatalf("%s/%s: mutation site found %d times, want once: %q", dir, file, n, edits[i])
				}
				src = bytes.Replace(src, []byte(edits[i]), []byte(edits[i+1]), 1)
			}
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(abs, name), src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	info := newInfo()
	path := "tlrchol/" + dir
	tpkg, err := (&types.Config{Importer: l.imp}).Check(path, l.Fset, files, info)
	if err != nil {
		t.Fatalf("type-check %s: %v", dir, err)
	}
	return &Package{Path: path, Dir: abs, Fset: l.Fset, Files: files, Types: tpkg, Info: info}
}

// TestRealSiteMutations puts each analyzer's bug class into the real
// site where nothing else catches it — go vet, the race detector, the
// test suite and the scripts/check.sh gates all pass on these mutants —
// and demands the analyzer flags it.
func TestRealSiteMutations(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks real packages")
	}
	cases := []struct {
		analyzer   *Analyzer
		dir, file  string
		edits      []string
		wantSubstr string
	}{
		// The executor's worker workspace goes back to the pool on the
		// normal exit only: a cancelled or failed task leaks it.
		{PairingAnalyzer, "internal/runtime", "runtime.go", []string{
			"\tws := dense.GetWorkspace()\n\tdefer ws.Release()\n",
			"\tws := dense.GetWorkspace()\n",
			"\t\tif r.err != nil || len(r.ready) == 0 {\n\t\t\tr.mu.Unlock()\n",
			"\t\tif r.err != nil || len(r.ready) == 0 {\n\t\t\tr.mu.Unlock()\n\t\t\tws.Release()\n",
		}, "not released on every path"},
		// The joiner that fills a batch wakes the leader with a send
		// under b.mu: a leader whose window just expired waits for b.mu,
		// and both block for good.
		{LockScopeAnalyzer, "internal/serve", "batch.go", []string{
			"close(pb.full) // wake the leader early",
			"pb.full <- struct{}{} // wake the leader early",
		}, "channel send while holding b.mu"},
		// Broadcast destinations in map order: the binomial tree, and so
		// every node's sent volume, changes from run to run.
		{DeterminismAnalyzer, "internal/cluster", "cluster.go", []string{
			"\t\t\tsort.Slice(dests, func(i, j int) bool { return dests[i].node < dests[j].node })\n",
			"",
		}, "dests accumulates map iteration order"},
		// Refinement's planned solve detached from the request context:
		// a cancelled refined solve runs to the end.
		{CtxFlowAnalyzer, "internal/core", "refine.go", []string{
			"return p.SolveCtx(ctx, f, m, workers)",
			"return p.SolveCtx(context.Background(), f, m, workers)",
		}, "callee is detached from the caller's cancellation"},
		// Unbuffered node inboxes: every send waits for the receiving
		// comm engine, and only the broadcast tree's low-to-high order
		// keeps the engines out of a wait cycle.
		{ChanProtocolAnalyzer, "internal/cluster", "cluster.go", []string{
			"\tcapMsgs := g.Edges() + 2*len(seed) + 8\n", "",
			"inbox: make(chan msg, capMsgs)", "inbox: make(chan msg)",
		}, "initialized with an unbuffered channel"},
		// The load generator's request goroutine accounts itself: the
		// report can be read before the last requests have finished.
		{AddInGoroutineAnalyzer, "cmd/tlrserve", "main.go", []string{
			"\t\twg.Add(1)\n\t\tgo func(seed int64, prob int, factorize bool) {\n\t\t\tdefer wg.Done()\n",
			"\t\tgo func(seed int64, prob int, factorize bool) {\n\t\t\twg.Add(1)\n\t\t\tdefer wg.Done()\n",
		}, "wg.Add inside the goroutine"},
	}
	for _, tc := range cases {
		t.Run(tc.analyzer.Name, func(t *testing.T) {
			pkg := mutant(t, tc.dir, tc.file, tc.edits...)
			findings := RunPackages([]*Package{pkg}, []*Analyzer{tc.analyzer})
			if len(findings) != 1 || !strings.Contains(findings[0].Message, tc.wantSubstr) {
				t.Fatalf("got %v, want one finding containing %q", findings, tc.wantSubstr)
			}
		})
	}
}

func TestWriteJSON(t *testing.T) {
	pkg := loadFixture(t, "pairing")
	findings := RunPackages([]*Package{pkg}, []*Analyzer{PairingAnalyzer})
	if len(findings) == 0 {
		t.Fatal("pairing fixture produced no findings")
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, findings); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var decoded []struct {
		File     string `json:"file"`
		Line     int    `json:"line"`
		Analyzer string `json:"analyzer"`
		Message  string `json:"message"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("decoding -json output: %v", err)
	}
	if len(decoded) != len(findings) {
		t.Fatalf("JSON has %d findings, want %d", len(decoded), len(findings))
	}
	for i, d := range decoded {
		if d.Analyzer != "pairing" || d.Line != findings[i].Pos.Line {
			t.Errorf("JSON finding %d mismatches: %+v vs %s", i, d, findings[i])
		}
	}
}
