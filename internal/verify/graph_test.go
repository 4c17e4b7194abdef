package verify

import (
	"strings"
	"testing"

	"tlrchol/internal/runtime"
)

func errorsContaining(fs Findings, substr string) int {
	n := 0
	for _, f := range fs.Errors() {
		if strings.Contains(f.Msg, substr) {
			n++
		}
	}
	return n
}

// handGraph is a graph wired by hand: named tasks with declared
// accesses.
type handGraph struct {
	runtime.Graph
	labels []string
	acc    [][]runtime.Access
}

func newHandGraph() *handGraph {
	g := &handGraph{}
	g.LabelFunc = func(id int) string { return g.labels[id] }
	g.AccessFunc = func(id int) []runtime.Access { return g.acc[id] }
	return g
}

func (g *handGraph) task(label string, acc ...runtime.Access) int32 {
	g.labels = append(g.labels, label)
	g.acc = append(g.acc, acc)
	return g.Add(0)
}

// TestGraphCleanDTD: the graph dynamic task discovery infers for a
// write, two reads and a write of one datum — RAW edges into the
// readers, WAR edges out of them and the WAW edge — is clean.
func TestGraphCleanDTD(t *testing.T) {
	g := newHandGraph()
	w := g.task("w", runtime.W("x"))
	r1 := g.task("r1", runtime.R("x"))
	r2 := g.task("r2", runtime.R("x"))
	w2 := g.task("w2", runtime.W("x"))
	g.Dep(w, r1)
	g.Dep(w, r2)
	g.Dep(w, w2)
	g.Dep(r1, w2)
	g.Dep(r2, w2)
	fs := CheckGraph(&g.Graph)
	if err := fs.Err(); err != nil {
		t.Fatalf("clean DTD graph rejected: %v", err)
	}
	if len(fs) != 0 {
		t.Fatalf("unexpected warnings: %v", fs)
	}
}

func TestGraphInjectedCycle(t *testing.T) {
	g := newHandGraph()
	a := g.task("a")
	b := g.task("b")
	c := g.task("c")
	g.Dep(a, b)
	g.Dep(b, c)
	g.Dep(c, a) // the injected fault
	fs := CheckGraph(&g.Graph)
	if errorsContaining(fs, "cycle") == 0 {
		t.Fatalf("cycle not detected: %v", fs)
	}
}

func TestGraphSelfDependency(t *testing.T) {
	g := newHandGraph()
	a := g.task("a")
	g.Dep(a, a)
	fs := CheckGraph(&g.Graph)
	if errorsContaining(fs, "depends on itself") == 0 {
		t.Fatalf("self-dependency not detected: %v", fs)
	}
}

func TestGraphDroppedRAWEdge(t *testing.T) {
	// A hand-wired producer/consumer graph that "forgot" the RAW edge:
	// the accesses say consume reads what produce writes, the edges say
	// nothing — the verifier must catch the hole.
	g := newHandGraph()
	g.task("produce", runtime.W("x"))
	g.task("consume", runtime.R("x"))
	fs := CheckGraph(&g.Graph)
	if errorsContaining(fs, "missing RAW") == 0 {
		t.Fatalf("dropped RAW edge not detected: %v", fs)
	}

	// Adding the edge back heals the graph.
	g2 := newHandGraph()
	w2 := g2.task("produce", runtime.W("x"))
	r2 := g2.task("consume", runtime.R("x"))
	g2.Dep(w2, r2)
	if err := CheckGraph(&g2.Graph).Err(); err != nil {
		t.Fatalf("healed graph still rejected: %v", err)
	}
}

func TestGraphDroppedWARAndWAW(t *testing.T) {
	// w0 -> r (RAW present) but the later writer w1 is ordered against
	// neither: both the WAR (r -> w1) and WAW (w0 -> w1) paths are
	// missing.
	g := newHandGraph()
	w0 := g.task("w0", runtime.W("x"))
	r := g.task("r", runtime.R("x"))
	g.Dep(w0, r)
	g.task("w1", runtime.W("x"))
	fs := CheckGraph(&g.Graph)
	if errorsContaining(fs, "missing WAW") == 0 {
		t.Fatalf("dropped WAW not detected: %v", fs)
	}
	if errorsContaining(fs, "missing WAR") == 0 {
		t.Fatalf("dropped WAR not detected: %v", fs)
	}
}

func TestGraphTransitiveOrderingAccepted(t *testing.T) {
	// The hazard check demands a path, not a direct edge: w0 -> r -> w1
	// orders the WAW w0 -> w1 transitively.
	g := newHandGraph()
	w0 := g.task("w0", runtime.W("x"))
	r := g.task("r", runtime.R("x"))
	w1 := g.task("w1", runtime.W("x"))
	g.Dep(w0, r)
	g.Dep(r, w1)
	if err := CheckGraph(&g.Graph).Err(); err != nil {
		t.Fatalf("transitively ordered graph rejected: %v", err)
	}
}

func TestGraphDuplicateEdgeWarning(t *testing.T) {
	g := newHandGraph()
	a := g.task("a")
	b := g.task("b")
	g.Dep(a, b)
	g.Dep(a, b)
	fs := CheckGraph(&g.Graph)
	if err := fs.Err(); err != nil {
		t.Fatalf("duplicate edge must not be fatal: %v", err)
	}
	found := false
	for _, f := range fs {
		if f.Severity == Warning && strings.Contains(f.Msg, "duplicate edge") {
			found = true
		}
	}
	if !found {
		t.Fatalf("duplicate edge not reported: %v", fs)
	}
}

func TestGraphIsolatedTaskWarning(t *testing.T) {
	g := newHandGraph()
	a := g.task("a")
	b := g.task("b")
	g.task("orphan")
	g.Dep(a, b)
	fs := CheckGraph(&g.Graph)
	if err := fs.Err(); err != nil {
		t.Fatalf("isolated task must not be fatal: %v", err)
	}
	found := false
	for _, f := range fs {
		if f.Severity == Warning && strings.Contains(f.Msg, "isolated") {
			found = true
		}
	}
	if !found {
		t.Fatalf("isolated task not reported: %v", fs)
	}
}

func TestGraphEdgelessGraphNotFlagged(t *testing.T) {
	// A pure fan-out graph (tile-by-tile compression) has no edges and
	// must not be drowned in isolated-task warnings.
	g := newHandGraph()
	for i := 0; i < 5; i++ {
		g.task("compress")
	}
	if fs := CheckGraph(&g.Graph); len(fs) != 0 {
		t.Fatalf("edgeless graph flagged: %v", fs)
	}
}
