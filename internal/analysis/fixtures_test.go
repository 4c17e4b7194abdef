package analysis

import (
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// One loader for every fixture test: the source importer caches the
// dependency graph (sync, context, the repo's own packages), so the
// first load pays and the rest ride.
var (
	fixLoaderOnce sync.Once
	fixLoader     *Loader
)

func sharedLoader() *Loader {
	fixLoaderOnce.Do(func() { fixLoader = NewLoader() })
	return fixLoader
}

func loadFixture(t *testing.T, dir string) *Package {
	t.Helper()
	pkgs, err := sharedLoader().Load([]string{filepath.Join("testdata", "src", dir)})
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("fixture %s: got %d packages, want 1", dir, len(pkgs))
	}
	return pkgs[0]
}

// expectation is one "// want <substring>" marker: a finding must land
// on its line and contain the substring.
type expectation struct {
	line   int
	substr string
	seen   bool
}

func wantsOf(pkg *Package) []*expectation {
	var wants []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if rest, ok := strings.CutPrefix(text, "want "); ok {
					wants = append(wants, &expectation{
						line:   pkg.Fset.Position(c.Pos()).Line,
						substr: strings.TrimSpace(rest),
					})
				}
			}
		}
	}
	return wants
}

// TestFixtures runs each analyzer over its fixture package and demands
// every seeded defect is flagged — and nothing else is.
func TestFixtures(t *testing.T) {
	cases := []struct {
		dir      string
		analyzer *Analyzer
	}{
		{"pairing", PairingAnalyzer},
		{"lockscope", LockScopeAnalyzer},
		{"chanprotocol", ChanProtocolAnalyzer},
		{"determinism", DeterminismAnalyzer},
		{"ctxflow", CtxFlowAnalyzer},
		{"addgo", AddInGoroutineAnalyzer},
	}
	for _, tc := range cases {
		t.Run(tc.dir, func(t *testing.T) {
			pkg := loadFixture(t, tc.dir)
			wants := wantsOf(pkg)
			if len(wants) == 0 {
				t.Fatalf("fixture %s has no // want markers", tc.dir)
			}
			findings := RunPackages([]*Package{pkg}, []*Analyzer{tc.analyzer})
			for _, f := range findings {
				if f.Analyzer != tc.analyzer.Name {
					t.Errorf("finding from wrong analyzer: %s", f)
					continue
				}
				matched := false
				for _, w := range wants {
					if w.line == f.Pos.Line && strings.Contains(f.Message, w.substr) {
						w.seen = true
						matched = true
						break
					}
				}
				if !matched {
					t.Errorf("unexpected finding: %s", f)
				}
			}
			for _, w := range wants {
				if !w.seen {
					t.Errorf("seeded defect not flagged: line %d, want %q", w.line, w.substr)
				}
			}
		})
	}
}
