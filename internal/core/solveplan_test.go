package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"tlrchol/internal/dense"
	"tlrchol/internal/obs"
	"tlrchol/internal/tilemat"
)

// plannedFactor builds and factorizes an RBF problem with a chosen trim
// setting, returning the factor and its solve plan.
func plannedFactor(t *testing.T, n, b int, trim bool) (*tilemat.Matrix, *SolvePlan) {
	t.Helper()
	m, _ := rbfMatrix(t, n, b, 4, 1e-8)
	if _, err := Factorize(m, Options{Tol: 1e-8, Trim: trim, Sequential: true}); err != nil {
		t.Fatal(err)
	}
	return m, BuildSolvePlan(m)
}

// TestSolvePlannedBitwise is the keystone of the solve scheduler: the
// planned parallel substitution must reproduce the sequential reference
// bit for bit — across ragged tile grids, trimmed and untrimmed
// factors, right-hand-side widths from 1 to 32 and several worker
// counts. Run under -race by scripts/check.sh, this also exercises the
// executor's synchronization: any missed happens-before edge between a
// segment's producer and its readers shows up as a race or a bit flip.
func TestSolvePlannedBitwise(t *testing.T) {
	cases := []struct {
		n, b int
		trim bool
	}{
		{512, 64, true},  // even grid, NT=8
		{520, 64, true},  // ragged last tile (8 rows), NT=9
		{289, 32, true},  // ragged last tile (1 row), NT=10
		{512, 64, false}, // untrimmed: denser DAG
		{448, 32, true},  // NT=14, deeper DAG
	}
	for _, tc := range cases {
		f, p := plannedFactor(t, tc.n, tc.b, tc.trim)
		rng := rand.New(rand.NewSource(int64(tc.n) + 7))
		for _, w := range []int{1, 3, 8, 32} {
			rhs := dense.Random(rng, tc.n, w)
			want := rhs.Clone()
			if err := SolveSequentialCtx(context.Background(), f, want); err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 4, 8} {
				got := rhs.Clone()
				if err := p.SolveCtx(context.Background(), f, got, workers); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < tc.n; i++ {
					for j := 0; j < w; j++ {
						g, x := got.At(i, j), want.At(i, j)
						if math.Float64bits(g) != math.Float64bits(x) {
							t.Fatalf("n=%d b=%d trim=%v w=%d workers=%d: planned solve differs bitwise at (%d,%d): %x vs %x",
								tc.n, tc.b, tc.trim, w, workers, i, j, math.Float64bits(g), math.Float64bits(x))
						}
					}
				}
			}
		}
	}
}

// TestSolvePlanStructure pins the DAG invariants the executor's
// correctness argument rests on: task ids are topological (every edge
// goes forward), levels respect edges, each sweep carries exactly one
// diagonal solve per tile row, and the reported sizes are sane.
func TestSolvePlanStructure(t *testing.T) {
	f, p := plannedFactor(t, 520, 64, true)
	nt := f.NT
	for _, sp := range []*sweepPlan{&p.fwd, &p.bwd} {
		n := len(sp.tasks)
		if sp.g.Tasks() != n {
			t.Fatalf("graph has %d tasks, plan %d", sp.g.Tasks(), n)
		}
		trsms := 0
		for id, task := range sp.tasks {
			if task.src == task.dst {
				trsms++
			}
			for _, succ := range sp.g.Successors(id) {
				if int(succ) <= id {
					t.Fatalf("edge %d -> %d is not forward: ids must be topological", id, succ)
				}
				if sp.level[succ] <= sp.level[id] {
					t.Fatalf("edge %d -> %d does not increase level (%d -> %d)",
						id, succ, sp.level[id], sp.level[succ])
				}
				// A task outranks its successors: priorities are
				// critical-path lengths to the sink.
				if sp.g.Priority(int(succ)) >= sp.g.Priority(id) {
					t.Fatalf("edge %d -> %d does not decrease priority", id, succ)
				}
			}
		}
		if trsms != nt {
			t.Fatalf("sweep has %d diagonal solves, want %d", trsms, nt)
		}
		// Depth is bounded by the task count; it can drop below NT when
		// whole tile rows have no non-zero partners (their trsm is a
		// root), but never below 1.
		if sp.levels < 1 || sp.levels > n {
			t.Fatalf("sweep depth %d out of range (tasks=%d)", sp.levels, n)
		}
		if sp.maxWidth < 1 || sp.maxWidth > n {
			t.Fatalf("maxWidth %d out of range", sp.maxWidth)
		}
	}
	if p.Bytes() <= 0 || p.Tasks() <= 0 || p.MaxWidth() < 1 {
		t.Fatalf("plan size accessors broken: bytes=%d tasks=%d width=%d", p.Bytes(), p.Tasks(), p.MaxWidth())
	}
	fl, bl := p.Levels()
	if fl < 1 || bl < 1 {
		t.Fatalf("levels (%d,%d) must be positive", fl, bl)
	}
}

// TestSolvePlannedCancel exercises cancellation while workers are
// mid-sweep: the executor must return the context error, join every
// spawned goroutine before returning (no leak), and leave its pooled
// state clean enough that the next solve on the same plan is correct.
func TestSolvePlannedCancel(t *testing.T) {
	f, p := plannedFactor(t, 520, 64, true)
	rng := rand.New(rand.NewSource(3))
	rhs := dense.Random(rng, 520, 4)
	want := rhs.Clone()
	if err := SolveSequentialCtx(context.Background(), f, want); err != nil {
		t.Fatal(err)
	}

	before := runtime.NumGoroutine()
	// An already-cancelled context must fail fast.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := p.SolveCtx(ctx, f, rhs.Clone(), 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	// Cancel mid-flight, racing the sweep from another goroutine. Vary
	// the delay so cancellation lands in different levels of the DAG.
	for it := 0; it < 20; it++ {
		ctx, cancel := context.WithCancel(context.Background())
		var wg sync.WaitGroup
		wg.Add(1)
		go func(d time.Duration) {
			defer wg.Done()
			time.Sleep(d)
			cancel()
		}(time.Duration(it*20) * time.Microsecond)
		err := p.SolveCtx(ctx, f, rhs.Clone(), 4)
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("iteration %d: unexpected error %v", it, err)
		}
		wg.Wait()
	}
	// Workers are joined before SolveCtx returns, so the goroutine count
	// settles back to the baseline (small slack for runtime background
	// goroutines).
	deadline := time.Now().Add(2 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after cancellations", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The pooled run state and workspace pool must be reusable: a fresh
	// solve on the same plan still matches the sequential bits.
	got := rhs.Clone()
	if err := p.SolveCtx(context.Background(), f, got, 4); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 520; i++ {
		for j := 0; j < 4; j++ {
			if math.Float64bits(got.At(i, j)) != math.Float64bits(want.At(i, j)) {
				t.Fatalf("post-cancel solve differs bitwise at (%d,%d)", i, j)
			}
		}
	}
}

// TestSolvePlannedAllocs pins the warm-path allocation story: after
// warm-up (workspace pool primed, run state at high-water capacity,
// goroutine stacks recycled), a planned solve performs zero heap
// allocations per run.
func TestSolvePlannedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on otherwise allocation-free paths")
	}
	f, p := plannedFactor(t, 512, 64, true)
	rng := rand.New(rand.NewSource(11))
	rhs := dense.Random(rng, 512, 1)
	x := rhs.Clone()
	solveOnce := func() {
		x.CopyFrom(rhs)
		if err := p.SolveCtx(context.Background(), f, x, 4); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		solveOnce() // prime pools and high-water marks
	}
	if allocs := testing.AllocsPerRun(10, solveOnce); allocs > 0 {
		t.Fatalf("warm planned solve allocates %.1f times per run, want 0", allocs)
	}

	// A request trace without span detail (the tracing-disabled serving
	// configuration) must not cost anything either: TraceFrom is an
	// allocation-free context lookup and a detail-off trace is never
	// attached to the run.
	ctx := obs.ContextWithTrace(context.Background(), obs.NewReqTrace("t-0", "/v1/solve", 0))
	tracedOnce := func() {
		x.CopyFrom(rhs)
		if err := p.SolveCtx(ctx, f, x, 4); err != nil {
			t.Fatal(err)
		}
	}
	tracedOnce()
	if allocs := testing.AllocsPerRun(10, tracedOnce); allocs > 0 {
		t.Fatalf("warm planned solve with a detail-off trace allocates %.1f times per run, want 0", allocs)
	}
}

// TestSolvePlannedRequestSpans checks the request-scoped span hook: a
// detailed trace in the context collects one span per executed task,
// named by task type and annotated with the task id, rows, level and
// flop weight.
func TestSolvePlannedRequestSpans(t *testing.T) {
	f, p := plannedFactor(t, 512, 64, true)
	rng := rand.New(rand.NewSource(7))
	rhs := dense.Random(rng, 512, 1)
	rt := obs.NewReqTrace("t-spans", "/v1/solve", 4096)
	ctx := obs.ContextWithTrace(context.Background(), rt)
	if err := p.SolveCtx(ctx, f, rhs, 4); err != nil {
		t.Fatal(err)
	}
	rt.Finish(200, "")
	want := p.Tasks()
	if rt.SpanCount() != want {
		t.Fatalf("got %d spans for %d plan tasks (dropped %d)", rt.SpanCount(), want, rt.Dropped())
	}
	trsm, apply := 0, 0
	for _, e := range rt.Events() {
		switch e.Name {
		case "solve.trsm":
			trsm++
		case "solve.apply":
			apply++
		default:
			t.Fatalf("unexpected span %q", e.Name)
		}
		if !e.HasInfo || e.Info.Flops <= 0 {
			t.Fatalf("span %q lacks task annotations: %+v", e.Name, e.Info)
		}
	}
	// Both sweeps run one diagonal solve per tile row.
	if trsm != 2*f.NT {
		t.Fatalf("got %d trsm spans, want %d (2 sweeps × %d rows)", trsm, 2*f.NT, f.NT)
	}
	if apply != want-trsm {
		t.Fatalf("got %d apply spans, want %d", apply, want-trsm)
	}
}

// TestSolveCtxAutoDispatch checks the package-level SolveCtx routing:
// large factors on multi-CPU processes go through a plan, small ones
// stay sequential, and both produce the sequential bits.
func TestSolveCtxAutoDispatch(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("single-CPU process never auto-plans")
	}
	f, _ := plannedFactor(t, 520, 64, true) // NT=9 ≥ autoPlanMinRows
	if autoPlan(f) == nil {
		t.Fatalf("NT=%d factor should auto-plan", f.NT)
	}
	small, _ := rbfMatrix(t, 192, 64, 4, 1e-8)
	if _, err := Factorize(small, Options{Tol: 1e-8, Trim: true, Sequential: true}); err != nil {
		t.Fatal(err)
	}
	if autoPlan(small) != nil {
		t.Fatalf("NT=%d factor should stay sequential", small.NT)
	}
	rng := rand.New(rand.NewSource(17))
	rhs := dense.Random(rng, 520, 2)
	want := rhs.Clone()
	if err := SolveSequentialCtx(context.Background(), f, want); err != nil {
		t.Fatal(err)
	}
	got := rhs.Clone()
	if err := SolveCtx(context.Background(), f, got); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 520; i++ {
		for j := 0; j < 2; j++ {
			if math.Float64bits(got.At(i, j)) != math.Float64bits(want.At(i, j)) {
				t.Fatalf("auto-dispatched solve differs bitwise at (%d,%d)", i, j)
			}
		}
	}
}

// TestRefinePlannedBitwise checks that refinement through a plan's
// executor reproduces the package-level RefineCtx exactly — same sweep
// counts, same bits.
func TestRefinePlannedBitwise(t *testing.T) {
	m, _ := rbfMatrix(t, 520, 64, 4, 1e-8)
	op := m.Clone()
	if _, err := Factorize(m, Options{Tol: 1e-8, Trim: true, Sequential: true}); err != nil {
		t.Fatal(err)
	}
	p := BuildSolvePlan(m)
	tlrOp := TLROperator{M: op}
	rng := rand.New(rand.NewSource(29))
	rhs := dense.Random(rng, 520, 3)
	want := rhs.Clone()
	resSeq, err := RefineCtx(context.Background(), m, tlrOp, want, 6, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	got := rhs.Clone()
	resPlan, err := p.RefineCtx(context.Background(), m, tlrOp, got, 6, 1e-12, 4)
	if err != nil {
		t.Fatal(err)
	}
	if resSeq.Iterations != resPlan.Iterations {
		t.Fatalf("planned refine ran %d sweeps, sequential %d", resPlan.Iterations, resSeq.Iterations)
	}
	for i := 0; i < 520; i++ {
		for j := 0; j < 3; j++ {
			if math.Float64bits(got.At(i, j)) != math.Float64bits(want.At(i, j)) {
				t.Fatalf("planned refine differs bitwise at (%d,%d)", i, j)
			}
		}
	}
}
