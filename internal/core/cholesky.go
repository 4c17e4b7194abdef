// Package core implements the paper's primary contribution: the tile
// low-rank (TLR) Cholesky factorization that exploits data sparsity via
// dynamic DAG trimming (Section VI), and its unpivoted LDLᵀ variant.
// Both run one task graph, trim.Walk over the (trimmed) execution
// space, with one task body; the form (tilemat.Form) only selects a
// table of four tile kernels. The walk executes sequentially, on the
// shared-memory task runtime, or on the virtual cluster
// (FactorizeDistributed); package sim times the same walk at scale.
// The package also provides the TLR triangular solves that turn the
// factor into mesh-deformation solutions, and accuracy verification
// helpers.
package core

import (
	"context"
	"fmt"
	"strings"
	"time"

	"tlrchol/internal/dense"
	"tlrchol/internal/obs"
	"tlrchol/internal/runtime"
	"tlrchol/internal/tilemat"
	"tlrchol/internal/trim"
)

// Options configures a factorization.
type Options struct {
	// Tol is the accuracy threshold used for low-rank accumulation
	// during the factorization (usually the compression threshold).
	Tol float64
	// MaxRank caps stored ranks (≤ 0: unlimited).
	MaxRank int
	// Trim enables the DAG trimming of Section VI: the matrix structure
	// is analyzed with Algorithm 1 and tasks touching null tiles are
	// never created. Without it the full dense DAG is unrolled (the
	// Lorapo behaviour) and null-tile tasks execute as no-ops.
	Trim bool
	// Workers sets the worker-thread count (≤ 0: GOMAXPROCS).
	Workers int
	// Sequential bypasses the runtime and factorizes in walk order
	// (reference implementation used for verification).
	Sequential bool
	// CollectTrace returns the execution's timeline in Report.Trace —
	// one record per executed task, annotated with its tile
	// coordinates, ranks and effective flops — and its realized
	// critical path in Report.CritPath (parallel path only). Off, the
	// graph carries no annotations.
	CollectTrace bool
	// Metrics selects the registry kernel counters record into; nil uses
	// the process-wide obs.Default. Report carries per-run flop deltas
	// either way, so sharing a registry across runs is fine.
	Metrics *obs.Registry
	// Context, if non-nil, cancels the factorization cooperatively: it
	// is checked before each panel (sequential path) or each task
	// (parallel path), and the first ctx error aborts the run through
	// the runtime's abort protocol. On cancellation the matrix is left
	// partially factorized and must be discarded. The long-lived solve
	// service (internal/serve) uses this to propagate request deadlines.
	Context context.Context
}

// summary is what every factorization reports, whatever its form and
// backend.
type summary struct {
	// Potrf, Trsm, Syrk, Gemm count the task instances handed to the
	// backend (after trimming, if enabled). Potrf counts diagonal
	// factorizations of either form; the class split lives in the
	// metrics registry (tasks.sytrf, …).
	Potrf, Trsm, Syrk, Gemm int
	// Elapsed is the factorization wall time; Analysis the Algorithm 1
	// overhead (zero when trimming is off).
	Elapsed, Analysis time.Duration
	// AnalysisBytes is the memory footprint of the trimming analysis.
	AnalysisBytes int
	// EffFlops is the effective flop count of the kernels this run
	// executed on their actual (compressed) representations; DenseFlops
	// is what the same update sequence would have cost on dense tiles.
	// Their ratio is the data-sparsity win the paper measures.
	EffFlops, DenseFlops float64
	// TasksTrimmed counts the task instances of the full dense DAG that
	// were never created thanks to trimming (zero when trimming is off).
	TasksTrimmed int
	// FinalDensity is the off-diagonal density of the factor.
	FinalDensity float64
}

func (s summary) tasks() int { return s.Potrf + s.Trsm + s.Syrk + s.Gemm }

// Report describes what a factorization did.
type Report struct {
	summary
	// Runtime carries the scheduler statistics (parallel path only).
	Runtime runtime.Stats
	// Trace holds the per-task execution records when
	// Options.CollectTrace was set.
	Trace []runtime.TaskRecord
	// TasksExecuted counts the tasks that ran.
	TasksExecuted int
	// Metrics is the registry this run recorded into (Options.Metrics,
	// or obs.Default when that was nil).
	Metrics *obs.Registry
	// CritPath is the realized critical-path attribution when
	// Options.CollectTrace was set.
	CritPath *obs.PathReport
}

// rankArray adapts a tilemat to the trimming analysis input.
type rankArray struct{ m *tilemat.Matrix }

func (r rankArray) NT() int { return r.m.NT }
func (r rankArray) Rank(m, n int) int {
	return r.m.At(m, n).Rank()
}

// Ranks exposes the matrix's post-compression rank structure — the
// input Algorithm 1 analyzes, and the ground truth the static trim
// verifier (package verify) checks an analysis against.
func Ranks(m *tilemat.Matrix) trim.RankArray { return rankArray{m} }

// Structure returns the execution-space description for the matrix
// under the given options: the trimmed Analysis or the implicit Full
// DAG.
func Structure(m *tilemat.Matrix, trimOn bool) trim.Structure {
	if trimOn {
		return trim.Analyze(rankArray{m}, trim.AllLocal)
	}
	return trim.Full{Nt: m.NT}
}

// Factorize computes the TLR Cholesky factorization A = L·Lᵀ in place:
// on return the lower triangle of m holds L (dense diagonal tiles hold
// their Cholesky factors; off-diagonal tiles the solved panels). The
// matrix must be SPD at the compression accuracy.
func Factorize(m *tilemat.Matrix, opts Options) (Report, error) {
	return factorizeShared(m, opts, tilemat.FormCholesky)
}

// FactorizeLDLt computes the TLR LDLᵀ factorization A = L·D·Lᵀ in
// place, the Bunch–Kaufman-free signed variant for symmetric indefinite
// operators: on return each diagonal tile packs its unit-lower L in the
// strict lower triangle and its block of the diagonal matrix D on the
// diagonal (dense.Ldlt layout), off-diagonal tiles hold the solved
// panels, and m.Form is FormLDLt so the solve paths dispatch to the
// forward-L / D-scale / backward-Lᵀ substitution.
//
// No pivoting is performed, so the factorization exists iff every
// leading principal minor is nonzero. That covers the workload this
// opens up — quasi-definite augmented RBF systems [K P; Pᵀ 0] with the
// definite block ordered first — as well as everything Cholesky
// handles (on an SPD operator D comes out positive and L·√D is the
// Cholesky factor). The task graph (and its trimming — the analysis is
// rank-structural, identical for both factorizations) and the
// priorities match Factorize; only the kernels differ by the diagonal
// weight, which the updates read from the factored diagonal tile.
func FactorizeLDLt(m *tilemat.Matrix, opts Options) (Report, error) {
	return factorizeShared(m, opts, tilemat.FormLDLt)
}

// factorizeShared runs a factorization of the given form in shared
// memory: in walk order on the calling goroutine (Options.Sequential)
// or on the task runtime.
func factorizeShared(m *tilemat.Matrix, opts Options, form tilemat.Form) (Report, error) {
	if opts.Tol <= 0 {
		return Report{}, fmt.Errorf("core: Options.Tol must be positive, got %g", opts.Tol)
	}
	if opts.Metrics == nil {
		opts.Metrics = obs.Default
	}
	rep := Report{Metrics: opts.Metrics}
	var g *runtime.Graph
	sum, err := factorize(obs.TraceFrom(opts.Context), m, form, opts.Trim, opts.Metrics, func(s trim.Structure) error {
		if opts.Sequential {
			return sequential(opts.Context, m, s, newFactorization(form, opts.Tol, opts.MaxRank, opts.Metrics))
		}
		var exec runtime.Exec
		g, exec = BuildGraph(m, s, opts, form)
		st, err := g.Run(opts.Context, opts.Workers, exec)
		rep.Runtime, rep.TasksExecuted = st, st.Executed
		return err
	})
	rep.summary = sum
	if opts.Sequential {
		rep.TasksExecuted = sum.tasks()
	}
	if g != nil && opts.CollectTrace {
		rep.Trace = g.Trace()
		if nodes := g.PathNodes(); len(nodes) > 0 {
			pr := obs.CriticalPath(nodes)
			rep.CritPath = &pr
		}
	}
	return rep, err
}

// factorize is the prologue and epilogue every factorization shares,
// whatever its form and backend: the trim analysis and task counts
// before exec runs the walk over the structure, the flop deltas, the
// request spans (rt may be nil) and the final density after. On
// success m holds a factor of the given form.
func factorize(rt *obs.ReqTrace, m *tilemat.Matrix, form tilemat.Form, trimOn bool, reg *obs.Registry,
	exec func(trim.Structure) error) (summary, error) {
	var sum summary
	var s trim.Structure = trim.Full{Nt: m.NT}
	if trimOn {
		// Request-scoped spans: a cache-miss factorization inside the
		// solve service lands its analyze/run intervals on the request's
		// trace, so /v1/trace/<id> explains rebuild latency.
		t0 := rt.Now()
		a := trim.Analyze(rankArray{m}, trim.AllLocal)
		rt.Span("factor.analyze", -1, t0, rt.Now()-t0, obs.SpanInfo{}, false)
		sum.Analysis, sum.AnalysisBytes = a.AnalysisTime, a.AnalysisBytes
		s = a
	}
	sum.Potrf, sum.Trsm, sum.Syrk, sum.Gemm = trim.TaskCounts(s)
	fp, ft, fs, fg := trim.TaskCounts(trim.Full{Nt: m.NT})
	sum.TasksTrimmed = (fp + ft + fs + fg) - sum.tasks()

	in := newInstr(reg)
	effBefore, dnsBefore := in.flopTotals()
	start := time.Now()
	runStart := rt.Now()
	err := exec(s)
	sum.Elapsed = time.Since(start)
	effAfter, dnsAfter := in.flopTotals()
	sum.EffFlops, sum.DenseFlops = effAfter-effBefore, dnsAfter-dnsBefore
	rt.Span("factor.run", -1, runStart, rt.Now()-runStart, obs.SpanInfo{Flops: sum.EffFlops}, sum.EffFlops > 0)
	if err != nil {
		return sum, err
	}
	m.Form = form
	sum.FinalDensity = m.Stats().Density
	return sum, nil
}

// sequential is the reference execution: the walk in order on the
// calling goroutine, recording on shard 0, with ctx (may be nil)
// checked before each panel.
func sequential(ctx context.Context, m *tilemat.Matrix, s trim.Structure, f factorization) error {
	var err error
	trim.Walk(s, func(t trim.Task) {
		if err != nil {
			return
		}
		if t.Class == trim.Diag && ctx != nil {
			if err = ctx.Err(); err != nil {
				return
			}
		}
		if err = f.run(t, m, 0, nil); err != nil {
			err = fmt.Errorf("core: %s(%d): %w", strings.ToUpper(classes[f.class[trim.Diag]].name), t.K, err)
		}
	})
	return err
}

// BuildGraph unrolls the factorization of the given form into the task
// runtime without running it: one task per walk task, with graph id
// equal to walk index, wired to the walk's predecessors, at its
// critical-path-first priority, and the Exec that runs them on m.
// Besides the wired edges every task declares its tile accesses, so the
// static verifier (package verify) can independently replay the access
// stream and prove the edges cover every RAW/WAR/WAW hazard.
func BuildGraph(m *tilemat.Matrix, s trim.Structure, opts Options, form tilemat.Form) (*runtime.Graph, runtime.Exec) {
	g, tasks, f := buildGraph(s, opts, form)
	return g, func(id, worker int, _ *dense.Workspace) error {
		return f.run(tasks[id], m, worker, g.TaskInfo(id))
	}
}

// buildGraph is BuildGraph without the Exec: the graph, its walk tasks
// by id and the factorization their bodies run. FactorizeDistributed
// runs the same graph on the virtual cluster.
func buildGraph(s trim.Structure, opts Options, form tilemat.Form) (*runtime.Graph, []trim.Task, factorization) {
	g := &runtime.Graph{}
	g.Observe()
	f := newFactorization(form, opts.Tol, opts.MaxRank, opts.Metrics)
	var tasks []trim.Task
	trim.Walk(s, func(t trim.Task) {
		id := g.Add(t.Prio)
		tasks = append(tasks, t)
		for _, p := range t.Preds {
			if p >= 0 {
				g.Dep(p, id)
			}
		}
	})
	// Span annotations, pre-filled with the tile coordinates, exist only
	// when the run collects its trace: the untraced graph keeps Info nil
	// and allocation-free.
	if opts.CollectTrace {
		g.Info = make([]*obs.SpanInfo, len(tasks))
		infos := make([]obs.SpanInfo, len(tasks))
		for id, t := range tasks {
			infos[id] = obs.SpanInfo{K: int32(t.K), M: int32(t.M), N: int32(t.N)}
			g.Info[id] = &infos[id]
		}
	}
	g.LabelFunc = func(id int) string { return f.label(tasks[id]) }
	g.AccessFunc = func(id int) []runtime.Access { return f.accesses(tasks[id]) }
	return g, tasks, f
}
