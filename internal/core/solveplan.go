package core

import (
	"context"
	"fmt"
	goruntime "runtime"
	"sync"
	"time"

	"tlrchol/internal/dense"
	"tlrchol/internal/flops"
	"tlrchol/internal/obs"
	"tlrchol/internal/runtime"
	"tlrchol/internal/tilemat"
	"tlrchol/internal/tlr"
)

// The solve-plan layer: a per-factor precomputed schedule for the two
// triangular substitutions, amortizing dependency analysis across every
// solve against a cached factor — the same analyze-once-execute-many
// economics the factorization's task graph already exploits, applied to
// the latency path.
//
// Granularity is the key design decision. At tile-row granularity a
// banded factor's forward sweep is a chain (row i cannot start until
// row i−1 solved), so the plan schedules *tile operations*: one task
// per non-zero off-diagonal apply (dst row i accumulates −T·seg(src))
// plus one per diagonal triangular solve. Parallelism then comes from
// overlapping different rows' update chains: as soon as y_j is solved,
// every row below can fold in its L(i,j)·y_j product while the
// diagonal spine advances.
//
// Bitwise determinism: right-hand-side segment i is written only by
// row i's tasks, and those are chained in the plan — each apply
// depends on the previous apply of the same row, partners in ascending
// order, the diagonal solve last. Row i therefore performs exactly the
// operation sequence of the sequential loop in solve.go (whose
// Zero-tile iterations are no-ops), through the same width-oblivious
// kernels, so the parallel result is bit-identical to SolveSequentialCtx
// for any worker count (pinned by TestSolvePlannedBitwise).

// Solve-path metrics, registered once in the process-wide registry.
var (
	solvePlanBuilds  = obs.Default.Counter("solve.plan.build")
	solvePlannedRuns = obs.Default.Counter("solve.run.planned")
	solveSeqRuns     = obs.Default.Counter("solve.run.sequential")
	solveLevelWidth  = obs.Default.Histogram("solve.plan.level_width", 1, 2, 4, 8, 16, 32, 64)
)

// solveTask is one node of a sweep DAG. src == dst marks the diagonal
// triangular solve of tile row dst; otherwise the task accumulates the
// off-diagonal product of partner row src into segment dst.
type solveTask struct {
	dst, src int32
}

// sweepPlan is the precomputed DAG of one substitution direction: the
// runtime graph (int32 CSR, cheap to build, compact to cache, free of
// per-task allocation during execution) plus what the task bodies and
// the observability hooks need per task.
type sweepPlan struct {
	g     *runtime.Graph
	tasks []solveTask
	// cost is each task's own per-column flop weight (from
	// internal/flops). The graph's priorities are the rank-weighted
	// critical-path-to-sink lengths built from it: the ready heap pops
	// the task with the longest remaining chain first, keeping the
	// diagonal spine — the latency bottleneck — moving. cost also feeds
	// the per-task span annotations of request-scoped tracing.
	cost []float64
	// level is each task's depth in the DAG; levels/maxWidth summarize
	// the level sets for sizing and observability.
	level    []int32
	levels   int
	maxWidth int
}

// buildSweep scans the factor's tile kinds and assembles one sweep DAG.
// Task ids are assigned in the sequential loop's execution order, which
// is a topological order of the dependence relation by construction.
func buildSweep(f *tilemat.Matrix, backward bool) sweepPlan {
	nt := f.NT
	p := sweepPlan{g: &runtime.Graph{}}

	// Pass 1: count tasks to size the flat arrays. Each sweep runs one
	// apply per non-zero strictly-lower tile plus one diagonal solve
	// per row, regardless of direction.
	total := nt
	for i := 0; i < nt; i++ {
		for j := 0; j < i; j++ {
			if f.At(i, j).Kind != tlr.Zero {
				total++
			}
		}
	}
	p.tasks = make([]solveTask, 0, total)
	p.cost = make([]float64, 0, total)

	// Pass 2: emit tasks in sequential order and wire their
	// dependencies (≤ 2 per task): the reader dependency on the
	// partner's diagonal solve, and the same-row in-order chain.
	g := p.g
	add := func(t solveTask, cost float64) int32 {
		p.tasks = append(p.tasks, t)
		p.cost = append(p.cost, cost)
		return g.Add(0)
	}
	trsmID := make([]int32, nt)
	partners := make([]int32, 0, nt)
	for r := 0; r < nt; r++ {
		i := r
		if backward {
			i = nt - 1 - r
		}
		partners = sweepPartners(f, i, backward, partners[:0])
		prev := int32(-1)
		for _, pr := range partners {
			id := add(solveTask{dst: int32(i), src: pr}, applyCost(f, i, int(pr), backward))
			g.Dep(trsmID[pr], id)
			if prev >= 0 {
				g.Dep(prev, id)
			}
			prev = id
		}
		id := add(solveTask{dst: int32(i), src: int32(i)}, flops.SolveTrsm(f.TileRows(i)))
		if prev >= 0 {
			g.Dep(prev, id)
		}
		trsmID[i] = id
	}

	// Critical-path priorities, computed in reverse topological (= id)
	// order so every successor is already final.
	n := len(p.tasks)
	for t := n - 1; t >= 0; t-- {
		var best int64
		for _, s := range g.Successors(t) {
			best = max(best, g.Priority(int(s)))
		}
		g.SetPriority(t, best+int64(p.cost[t]))
	}

	// Level sets: depth propagates forward along ascending ids.
	p.level = make([]int32, n)
	for t := 0; t < n; t++ {
		for _, s := range g.Successors(t) {
			p.level[s] = max(p.level[s], p.level[t]+1)
		}
		p.levels = max(p.levels, int(p.level[t])+1)
	}
	width := make([]int32, p.levels)
	for t := 0; t < n; t++ {
		width[p.level[t]]++
	}
	for _, w := range width {
		p.maxWidth = max(p.maxWidth, int(w))
		solveLevelWidth.Observe(0, float64(w))
	}
	g.LabelFunc = func(id int) string {
		dir, t := "fwd", p.tasks[id]
		if backward {
			dir = "bwd"
		}
		if t.src == t.dst {
			return fmt.Sprintf("%s.trsm(%d)", dir, t.dst)
		}
		return fmt.Sprintf("%s.apply(%d,%d)", dir, t.dst, t.src)
	}
	return p
}

// sweepPartners appends to buf the non-zero partner rows of tile row i
// in the order the sequential loop visits them: ascending j < i for the
// forward sweep (tile (i,j)), ascending m > i for the backward sweep
// (tile (m,i) transposed).
func sweepPartners(f *tilemat.Matrix, i int, backward bool, buf []int32) []int32 {
	if backward {
		for m := i + 1; m < f.NT; m++ {
			if f.At(m, i).Kind != tlr.Zero {
				buf = append(buf, int32(m))
			}
		}
		return buf
	}
	for j := 0; j < i; j++ {
		if f.At(i, j).Kind != tlr.Zero {
			buf = append(buf, int32(j))
		}
	}
	return buf
}

// applyCost returns the per-column flop weight of one off-diagonal
// apply, used for critical-path priorities.
func applyCost(f *tilemat.Matrix, i, partner int, backward bool) float64 {
	var t *tlr.Tile
	if backward {
		t = f.At(partner, i)
	} else {
		t = f.At(i, partner)
	}
	if t.Kind == tlr.LowRank {
		return flops.SolveApplyLR(t.Rows, t.Cols, t.Rank())
	}
	return flops.SolveApplyDense(t.Rows, t.Cols)
}

// SolvePlan is a per-factor precomputed schedule for the forward (L)
// and backward (Lᵀ) substitutions. Build it once per factor with
// BuildSolvePlan and reuse it across every solve; the plan itself is
// immutable and safe for concurrent SolveCtx calls.
type SolvePlan struct {
	nt, n int
	// ldlt records the factor form the plan was built for. The sweep
	// DAGs are identical either way (the D⁻¹ phase runs at the barrier
	// between them — see ldltScale), but executing a plan against a
	// factor of the other form would silently solve the wrong system,
	// so SolveCtx checks.
	ldlt     bool
	fwd, bwd sweepPlan
}

// BuildSolvePlan analyzes the factor's sparsity structure and returns
// the substitution schedule. Cost is one O(NT²) tile-kind scan plus
// O(tasks) bookkeeping — microseconds against the milliseconds of the
// solves it accelerates.
func BuildSolvePlan(f *tilemat.Matrix) *SolvePlan {
	p := &SolvePlan{
		nt:   f.NT,
		n:    f.N,
		ldlt: f.Form == tilemat.FormLDLt,
		fwd:  buildSweep(f, false),
		bwd:  buildSweep(f, true),
	}
	solvePlanBuilds.Add(0, 1)
	return p
}

// Bytes returns the plan's approximate memory footprint, charged to the
// serve layer's factor-cache budget alongside the factor it schedules.
func (p *SolvePlan) Bytes() int64 {
	return p.fwd.bytes() + p.bwd.bytes() + 64
}

func (s *sweepPlan) bytes() int64 {
	return int64(8*len(s.tasks)+8*len(s.cost)+4*len(s.level)) + s.g.Bytes()
}

// Tasks returns the total task count across both sweeps.
func (p *SolvePlan) Tasks() int { return len(p.fwd.tasks) + len(p.bwd.tasks) }

// Levels returns the level-set depth of the forward and backward sweeps.
func (p *SolvePlan) Levels() (fwd, bwd int) { return p.fwd.levels, p.bwd.levels }

// MaxWidth returns the widest level set across both sweeps — the upper
// bound on useful executor parallelism.
func (p *SolvePlan) MaxWidth() int { return max(p.fwd.maxWidth, p.bwd.maxWidth) }

// SolveCtx overwrites b (N×nrhs) with the solution of A·x = b by
// running both substitution sweeps through the plan's worker-pool
// executor. workers ≤ 0 means GOMAXPROCS; the count is clamped to the
// plan's widest level, and a single worker falls back to the
// sequential reference path (identical bits, none of the scheduling
// overhead). The result is bitwise identical to SolveSequentialCtx for
// every worker count. On a context error b holds a partially
// substituted state and must be discarded.
func (p *SolvePlan) SolveCtx(ctx context.Context, f *tilemat.Matrix, b *dense.Matrix, workers int) error {
	if f.NT != p.nt || f.N != p.n {
		panic(fmt.Sprintf("core: SolvePlan built for NT=%d n=%d applied to NT=%d n=%d", p.nt, p.n, f.NT, f.N))
	}
	if (f.Form == tilemat.FormLDLt) != p.ldlt {
		panic("core: SolvePlan factorization form mismatch")
	}
	if b.Rows != p.n {
		panic("core: Solve right-hand side dimension mismatch")
	}
	if workers <= 0 {
		workers = goruntime.GOMAXPROCS(0)
	}
	if w := p.MaxWidth(); workers > w {
		workers = w
	}
	if workers <= 1 {
		return SolveSequentialCtx(ctx, f, b)
	}
	solvePlannedRuns.Add(0, 1)
	if err := runSweep(ctx, &p.fwd, f, b, false, workers); err != nil {
		return err
	}
	if p.ldlt {
		ldltScale(f, b)
	}
	return runSweep(ctx, &p.bwd, f, b, true, workers)
}

// sweepRun is what one sweep execution's task bodies read. It is
// pooled, and binds its exec method value once per pooled object, so a
// warm planned solve allocates nothing.
type sweepRun struct {
	plan  *sweepPlan
	f     *tilemat.Matrix
	rt    *obs.ReqTrace
	trans bool
	ldlt  bool
	// segs holds one view header per tile row of b. Segment i is
	// written only by tasks with dst == i, which the plan serializes.
	segs []dense.Matrix
	fn   runtime.Exec
}

var sweepRunPool = sync.Pool{New: func() any {
	r := &sweepRun{}
	r.fn = r.exec
	return r
}}

// runSweep executes one substitution direction on the task runtime.
// The calling goroutine works alongside workers−1 spawned ones; all of
// them drain on error or cancellation before the call returns (no
// goroutine outlives it).
func runSweep(ctx context.Context, sp *sweepPlan, f *tilemat.Matrix, b *dense.Matrix, trans bool, workers int) error {
	r := sweepRunPool.Get().(*sweepRun)
	// Drop references before pooling so the run state cannot retain the
	// factor or right-hand sides across requests.
	defer func() {
		clear(r.segs)
		r.plan, r.f, r.rt = nil, nil, nil
		sweepRunPool.Put(r)
	}()
	r.plan, r.f, r.trans = sp, f, trans
	r.ldlt = f.Form == tilemat.FormLDLt
	// Request-scoped span detail: only attach the trace when its span
	// ring exists, so the warm path with tracing off (or detail off)
	// keeps r.rt nil and exec skips even the clock reads.
	if rt := obs.TraceFrom(ctx); rt.Detailed() {
		r.rt = rt
	}
	nt := f.NT
	if cap(r.segs) < nt {
		r.segs = make([]dense.Matrix, nt)
	}
	r.segs = r.segs[:nt]
	for i := 0; i < nt; i++ {
		r.segs[i] = b.RowBlock(f.RowStart(i), f.TileRows(i))
	}
	_, err := sp.g.Run(ctx, workers, r.fn)
	return err
}

// exec runs one task through the same kernels, operand order and
// workspace discipline as the sequential loop.
func (r *sweepRun) exec(id, worker int, ws *dense.Workspace) error {
	task := r.plan.tasks[id]
	var tstart time.Duration
	if r.rt != nil {
		tstart = r.rt.Now()
	}
	i := int(task.dst)
	bi := &r.segs[i]
	if task.src == task.dst {
		solveDiag(r.f.At(i, i).D, bi, r.trans, r.ldlt)
	} else {
		p := int(task.src)
		if r.trans {
			tileMulAcc(r.f.At(p, i), true, -1, &r.segs[p], bi, ws)
		} else {
			tileMulAcc(r.f.At(i, p), false, -1, &r.segs[p], bi, ws)
		}
	}
	if r.rt != nil {
		// Per-task request span: static names keep this allocation-free;
		// task id, partner rows, DAG level and flop weight ride SpanInfo.
		name := "solve.apply"
		if task.src == task.dst {
			name = "solve.trsm"
		}
		r.rt.Span(name, int32(worker), tstart, r.rt.Now()-tstart, obs.SpanInfo{
			K:      int32(id),
			M:      task.dst,
			N:      task.src,
			RankIn: r.plan.level[id],
			Flops:  r.plan.cost[id],
		}, true)
	}
	return nil
}
