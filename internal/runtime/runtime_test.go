package runtime

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tlrchol/internal/dense"
	"tlrchol/internal/obs"
)

// testGraph is a Graph whose tasks carry a label and a closure body,
// run through one Exec that dispatches on the task id.
type testGraph struct {
	Graph
	labels []string
	bodies []func() error
	// fn is exec bound once, so a warm run allocates no method value.
	fn Exec
}

func newTestGraph() *testGraph {
	g := &testGraph{}
	g.LabelFunc = func(id int) string { return g.labels[id] }
	g.fn = g.exec
	return g
}

// task adds a task; a nil body does nothing.
func (g *testGraph) task(label string, prio int64, body func() error) int32 {
	g.labels = append(g.labels, label)
	g.bodies = append(g.bodies, body)
	return g.Add(prio)
}

func (g *testGraph) exec(id, _ int, _ *dense.Workspace) error {
	if b := g.bodies[id]; b != nil {
		return b()
	}
	return nil
}

func (g *testGraph) run(workers int) (Stats, error) {
	return g.Run(context.Background(), workers, g.fn)
}

func TestLinearChainOrder(t *testing.T) {
	g := newTestGraph()
	var mu sync.Mutex
	var order []int
	prev := int32(-1)
	for i := 0; i < 20; i++ {
		i := i
		task := g.task("t", 0, func() error {
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			return nil
		})
		if prev >= 0 {
			g.Dep(prev, task)
		}
		prev = task
	}
	st, err := g.run(4)
	if err != nil {
		t.Fatal(err)
	}
	if st.Executed != 20 {
		t.Fatalf("executed %d", st.Executed)
	}
	if st.CriticalPathTasks != 20 {
		t.Fatalf("critical path %d, want 20", st.CriticalPathTasks)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("chain executed out of order: %v", order)
		}
	}
}

func TestDiamondDependency(t *testing.T) {
	// a -> {b, c} -> d: d must run after both b and c.
	g := newTestGraph()
	var seq []string
	var mu sync.Mutex
	mk := func(name string) int32 {
		return g.task(name, 0, func() error {
			mu.Lock()
			seq = append(seq, name)
			mu.Unlock()
			return nil
		})
	}
	a, b, c, d := mk("a"), mk("b"), mk("c"), mk("d")
	g.Dep(a, b)
	g.Dep(a, c)
	g.Dep(b, d)
	g.Dep(c, d)
	if g.Tasks() != 4 || g.Edges() != 4 {
		t.Fatalf("graph accounting wrong")
	}
	if _, err := g.run(3); err != nil {
		t.Fatal(err)
	}
	pos := map[string]int{}
	for i, s := range seq {
		pos[s] = i
	}
	if pos["a"] != 0 || pos["d"] != 3 {
		t.Fatalf("diamond order wrong: %v", seq)
	}
}

func TestRandomDAGRespectsDependencies(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 5; trial++ {
		g := newTestGraph()
		n := 200
		done := make([]atomic.Bool, n)
		tasks := make([]int32, n)
		type edge struct{ from, to int }
		var edges []edge
		for i := 0; i < n; i++ {
			i := i
			var preds []int
			// Random edges from earlier tasks keep the graph acyclic.
			for j := 0; j < 3; j++ {
				if i > 0 && rng.Float64() < 0.7 {
					preds = append(preds, rng.Intn(i))
				}
			}
			tasks[i] = g.task("t", int64(rng.Intn(10)), func() error {
				for _, p := range preds {
					if !done[p].Load() {
						return errors.New("dependency violated")
					}
				}
				done[i].Store(true)
				return nil
			})
			for _, p := range preds {
				edges = append(edges, edge{p, i})
			}
		}
		for _, e := range edges {
			g.Dep(tasks[e.from], tasks[e.to])
		}
		st, err := g.run(8)
		if err != nil {
			t.Fatal(err)
		}
		if st.Executed != n {
			t.Fatalf("executed %d of %d", st.Executed, n)
		}
	}
}

func TestPriorityOrderSingleWorker(t *testing.T) {
	g := newTestGraph()
	var order []int
	for _, p := range []int64{1, 5, 3, 9, 2} {
		p := p
		g.task("t", p, func() error {
			order = append(order, int(p))
			return nil
		})
	}
	if _, err := g.run(1); err != nil {
		t.Fatal(err)
	}
	want := []int{9, 5, 3, 2, 1}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("priority order wrong: %v", order)
		}
	}
}

// TestEqualPrioritiesRunInReleaseOrder: ready tasks of equal priority
// run first-released first, the roots in id order.
func TestEqualPrioritiesRunInReleaseOrder(t *testing.T) {
	g := newTestGraph()
	var order []string
	mk := func(name string) int32 {
		return g.task(name, 0, func() error { order = append(order, name); return nil })
	}
	a, b := mk("a"), mk("b")
	c, d := mk("c"), mk("d")
	g.Dep(a, d)
	g.Dep(b, c)
	if _, err := g.run(1); err != nil {
		t.Fatal(err)
	}
	// a releases d before b releases c, so d runs first despite its
	// higher id.
	if got := strings.Join(order, ""); got != "abdc" {
		t.Fatalf("equal-priority tasks ran as %s, want abdc", got)
	}
}

func TestErrorAbortsPendingTasks(t *testing.T) {
	g := newTestGraph()
	boom := errors.New("boom")
	first := g.task("first", 0, func() error { return boom })
	ran := false
	second := g.task("second", 0, func() error { ran = true; return nil })
	g.Dep(first, second)
	st, err := g.run(2)
	if !errors.Is(err, boom) {
		t.Fatalf("expected boom, got %v", err)
	}
	if ran {
		t.Fatalf("successor of failed task must not run")
	}
	if st.Executed != 1 {
		t.Fatalf("executed %d", st.Executed)
	}
}

func TestErrorMessageIncludesLabel(t *testing.T) {
	g := newTestGraph()
	g.task("potrf(3)", 0, func() error { return errors.New("not spd") })
	_, err := g.run(1)
	if err == nil || err.Error() != "task potrf(3): not spd" {
		t.Fatalf("error label missing: %v", err)
	}
}

func TestEmptyGraph(t *testing.T) {
	g := newTestGraph()
	st, err := g.run(4)
	if err != nil || st.Executed != 0 {
		t.Fatalf("empty graph should run trivially: %v %+v", err, st)
	}
}

func TestWideGraphManyWorkers(t *testing.T) {
	g := newTestGraph()
	var count atomic.Int64
	for i := 0; i < 1000; i++ {
		g.task("w", 0, func() error {
			count.Add(1)
			return nil
		})
	}
	st, err := g.run(16)
	if err != nil {
		t.Fatal(err)
	}
	if count.Load() != 1000 || st.Executed != 1000 {
		t.Fatalf("lost tasks: %d", count.Load())
	}
	if st.CriticalPathTasks != 1 {
		t.Fatalf("independent tasks have critical path 1, got %d", st.CriticalPathTasks)
	}
}

func TestBusyTimeAccumulates(t *testing.T) {
	g := newTestGraph()
	for i := 0; i < 4; i++ {
		g.task("sleep", 0, func() error {
			time.Sleep(2 * time.Millisecond)
			return nil
		})
	}
	g.Observe() // busy time needs the per-task clock
	st, err := g.run(2)
	if err != nil {
		t.Fatal(err)
	}
	if st.BusyTime < 8*time.Millisecond {
		t.Fatalf("busy time %v too small", st.BusyTime)
	}
}

func TestStressRandomDelays(t *testing.T) {
	// Fault-injection style stress: random sleeps shake out ordering
	// races between dependency release and worker wakeup.
	rng := rand.New(rand.NewSource(11))
	g := newTestGraph()
	n := 100
	var finished atomic.Int64
	tasks := make([]int32, n)
	for i := 0; i < n; i++ {
		d := time.Duration(rng.Intn(300)) * time.Microsecond
		tasks[i] = g.task("t", int64(rng.Intn(5)), func() error {
			time.Sleep(d)
			finished.Add(1)
			return nil
		})
	}
	for i := 1; i < n; i++ {
		if rng.Float64() < 0.5 {
			g.Dep(tasks[rng.Intn(i)], tasks[i])
		}
	}
	if _, err := g.run(8); err != nil {
		t.Fatal(err)
	}
	if finished.Load() != int64(n) {
		t.Fatalf("finished %d of %d", finished.Load(), n)
	}
}

func TestPanicIsContained(t *testing.T) {
	g := newTestGraph()
	kernel := g.task("kernel", 0, func() error { panic("segfault-like crash") })
	ran := false
	after := g.task("after", 0, func() error { ran = true; return nil })
	g.Dep(kernel, after)
	_, err := g.run(2)
	if err == nil || !strings.Contains(err.Error(), "task kernel: panic: segfault-like crash") {
		t.Fatalf("panic must surface as an error naming the task, got %v", err)
	}
	if ran {
		t.Fatalf("successor of a panicked task must not run")
	}
}

// obsTestGraph builds a small diamond DAG with sleeping bodies, runs it
// observed and returns the graph and stats.
func obsTestGraph(t *testing.T, workers int) (*testGraph, Stats) {
	t.Helper()
	g := newTestGraph()
	work := func() error { time.Sleep(time.Millisecond); return nil }
	a := g.task("potrf(0)", 3, work)
	b := g.task("trsm(0,1)", 2, work)
	c := g.task("trsm(0,2)", 2, work)
	d := g.task("syrk(0,1)", 1, work)
	g.Dep(a, b)
	g.Dep(a, c)
	g.Dep(b, d)
	g.Dep(c, d)
	g.Observe()
	st, err := g.run(workers)
	if err != nil {
		t.Fatal(err)
	}
	return g, st
}

// TestObserveEmitsSpans: an observed run's records convert to exactly
// one span per executed task, with the ready-queue counter track
// alongside.
func TestObserveEmitsSpans(t *testing.T) {
	g, st := obsTestGraph(t, 2)
	spans, counters := 0, 0
	labels := map[string]bool{}
	for _, e := range Events(g.Trace()) {
		switch e.Kind {
		case obs.KindSpan:
			spans++
			labels[e.Name] = true
			if e.Dur <= 0 {
				t.Fatalf("span %q has no duration", e.Name)
			}
		case obs.KindCounter:
			counters++
		}
	}
	if spans != st.Executed {
		t.Fatalf("spans %d != executed %d", spans, st.Executed)
	}
	if !labels["potrf(0)"] || !labels["syrk(0,1)"] {
		t.Fatalf("span labels missing: %v", labels)
	}
	// Every task samples the queue depth when it is popped and after it
	// released its successors.
	if counters < 2*st.Executed {
		t.Fatalf("too few ready-queue samples: %d", counters)
	}
}

// TestMaxReadyHighWater: a graph whose source releases two tasks at
// once must report a ready-queue high-water mark of at least 2.
func TestMaxReadyHighWater(t *testing.T) {
	g, st := obsTestGraph(t, 1)
	if st.MaxReady < 2 {
		t.Fatalf("diamond fan-out should reach MaxReady >= 2, got %d", st.MaxReady)
	}
	if st.MaxReady > 4 {
		t.Fatalf("MaxReady %d exceeds task count", st.MaxReady)
	}
	// On one worker the source pops an empty queue and leaves both
	// panels ready behind it.
	if r := g.Trace()[0]; r.Label != "potrf(0)" || r.ReadyPop != 0 || r.ReadyEnd != 2 {
		t.Fatalf("source record depths wrong: %+v", r)
	}
}

// TestPathNodes: the exported executed DAG carries the realized
// schedule and the full predecessor structure.
func TestPathNodes(t *testing.T) {
	g, st := obsTestGraph(t, 2)
	nodes := g.PathNodes()
	if len(nodes) != st.Executed {
		t.Fatalf("%d nodes for %d executed tasks", len(nodes), st.Executed)
	}
	byLabel := map[string]obs.PathNode{}
	for _, n := range nodes {
		if n.Finish < n.Start {
			t.Fatalf("node %q finishes before it starts", n.Label)
		}
		byLabel[n.Label] = n
	}
	if len(byLabel["syrk(0,1)"].Preds) != 2 {
		t.Fatalf("join node should have 2 preds: %+v", byLabel["syrk(0,1)"])
	}
	if len(byLabel["potrf(0)"].Preds) != 0 {
		t.Fatalf("source node should have no preds")
	}
	// Dependencies must be realized in time: every pred finished before
	// its successor started.
	for _, n := range nodes {
		for _, p := range n.Preds {
			if nodes[p].Finish > n.Start {
				t.Fatalf("pred %q finished after %q started", nodes[p].Label, n.Label)
			}
		}
	}
	// And the critical-path analysis runs on the export.
	cp := obs.CriticalPath(nodes)
	if len(cp.Steps) != 3 {
		t.Fatalf("diamond critical path should have 3 steps, got %d", len(cp.Steps))
	}
}

// TestPathNodesDropsAborted: tasks that never ran (aborted execution)
// are absent from the export, and edges into them are dropped.
func TestPathNodesDropsAborted(t *testing.T) {
	g := newTestGraph()
	a := g.task("a", 0, func() error { return errors.New("boom") })
	b := g.task("b", 0, nil)
	g.Dep(a, b)
	g.Observe()
	if _, err := g.run(1); err == nil {
		t.Fatal("expected error")
	}
	nodes := g.PathNodes()
	if len(nodes) != 1 || nodes[0].Label != "a" {
		t.Fatalf("only the ran task should be exported: %+v", nodes)
	}
}

// TestTaskInfoReachesSpan: a task's Info annotation, filled in by the
// body during execution, reaches its record and its span event.
func TestTaskInfoReachesSpan(t *testing.T) {
	g := newTestGraph()
	info := &obs.SpanInfo{K: 0, M: 2, N: 1}
	g.task("gemm(0,2,1)", 0, func() error {
		info.RankOut = 17
		info.Flops = 12345
		return nil
	})
	g.Info = []*obs.SpanInfo{info}
	g.Observe()
	if _, err := g.run(1); err != nil {
		t.Fatal(err)
	}
	if recs := g.Trace(); len(recs) != 1 || recs[0].Info != info {
		t.Fatalf("record lost its info: %+v", recs)
	}
	evs := Events(g.Trace())
	var span *obs.Event
	for i := range evs {
		if evs[i].Kind == obs.KindSpan {
			span = &evs[i]
		}
	}
	if span == nil || !span.HasInfo {
		t.Fatalf("span missing info: %+v", evs)
	}
	if span.Info.M != 2 || span.Info.RankOut != 17 || span.Info.Flops != 12345 {
		t.Fatalf("info not propagated: %+v", span.Info)
	}
}

// TestUnobservedRunKeepsNoTimes: an unobserved run reads no clock per
// task, so it reports no busy time and leaves no trace behind.
func TestUnobservedRunKeepsNoTimes(t *testing.T) {
	g := newTestGraph()
	g.Dep(g.task("a", 0, nil), g.task("b", 0, nil))
	st, err := g.run(2)
	if err != nil {
		t.Fatal(err)
	}
	if st.Executed != 2 || st.CriticalPathTasks != 2 || st.BusyTime != 0 {
		t.Fatalf("unobserved stats wrong: %+v", st)
	}
	if len(g.Trace()) != 0 || len(g.PathNodes()) != 0 {
		t.Fatalf("unobserved run recorded a trace")
	}
}

// TestSealedCSR pins the CSR invariants: successors in declaration
// order, in-degrees counting duplicate edges, roots ascending.
func TestSealedCSR(t *testing.T) {
	g := newTestGraph()
	a, b, c, d := g.task("a", 0, nil), g.task("b", 0, nil), g.task("c", 0, nil), g.task("d", 0, nil)
	g.Dep(a, c)
	g.Dep(a, b)
	g.Dep(b, d)
	g.Dep(b, d)
	if g.Edges() != 4 {
		t.Fatalf("edges %d before sealing", g.Edges())
	}
	if s := g.Successors(int(a)); len(s) != 2 || s[0] != c || s[1] != b {
		t.Fatalf("successors of a: %v", s)
	}
	if g.Edges() != 4 || len(g.roots) != 1 || g.roots[0] != a || g.ndeps[d] != 2 {
		t.Fatalf("sealed graph wrong: edges %d roots %v ndeps %v", g.Edges(), g.roots, g.ndeps)
	}
	if _, err := g.run(2); err != nil {
		t.Fatal(err)
	}
}

// TestRunRejectsBackwardEdge: an edge that does not point to a higher
// id (here a cycle) is inspectable but must not reach the scheduler,
// where it would hang the run.
func TestRunRejectsBackwardEdge(t *testing.T) {
	g := newTestGraph()
	a, b := g.task("a", 0, nil), g.task("b", 0, nil)
	g.Dep(a, b)
	g.Dep(b, a)
	defer func() {
		if recover() == nil {
			t.Fatal("Run accepted a cyclic graph")
		}
	}()
	_, _ = g.run(2)
}

// TestCancelledContextStopsRun: the context is checked before each
// task, and its error comes back unwrapped.
func TestCancelledContextStopsRun(t *testing.T) {
	g := newTestGraph()
	ctx, cancel := context.WithCancel(context.Background())
	a := g.task("a", 0, func() error { cancel(); return nil })
	ran := false
	g.Dep(a, g.task("b", 0, func() error { ran = true; return nil }))
	st, err := g.Run(ctx, 2, g.exec)
	if !errors.Is(err, context.Canceled) || ran || st.Executed != 1 {
		t.Fatalf("want a cancelled run after one task, got %v (ran=%v, %+v)", err, ran, st)
	}
}

// TestWarmRunAllocatesNothing: re-running a sealed graph reuses the
// pooled run state, so an unobserved warm run allocates nothing.
func TestWarmRunAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on otherwise allocation-free paths")
	}
	g := newTestGraph()
	prev := int32(-1)
	for i := 0; i < 64; i++ {
		id := g.task("t", int64(i%5), nil)
		if prev >= 0 && i%3 != 0 {
			g.Dep(prev, id)
		}
		prev = id
	}
	run := func() {
		if _, err := g.run(2); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		run()
	}
	if allocs := testing.AllocsPerRun(20, run); allocs > 0 {
		t.Fatalf("warm run allocates %.1f times, want 0", allocs)
	}
}

// TestEndToEndWithRuntime: an observed run's records render through the
// obs timeline views.
func TestEndToEndWithRuntime(t *testing.T) {
	labels := []string{"potrf(0)", "trsm(0,1)"}
	g := &Graph{LabelFunc: func(id int) string { return labels[id] }}
	g.Dep(g.Add(2), g.Add(1))
	g.Observe()
	sleep := func(int, int, *dense.Workspace) error { time.Sleep(time.Millisecond); return nil }
	if _, err := g.Run(context.Background(), 2, sleep); err != nil {
		t.Fatal(err)
	}
	recs := g.Trace()
	if len(recs) != 2 {
		t.Fatalf("expected 2 records, got %d", len(recs))
	}
	evs := Events(recs)
	if s := obs.Summarize(evs); s.Makespan < 2*time.Millisecond {
		t.Fatalf("makespan too small: %v", s.Makespan)
	}
	if obs.Gantt(evs, 30) == "" {
		t.Fatalf("gantt should render")
	}
}
