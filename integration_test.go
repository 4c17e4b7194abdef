package tlrchol

// End-to-end integration tests: the whole pipeline wired together the
// way a downstream user would run it, asserting numerical outcomes
// rather than unit behaviour.

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"tlrchol/internal/core"
	"tlrchol/internal/dense"
	"tlrchol/internal/dist"
	"tlrchol/internal/obs"
	"tlrchol/internal/ranks"
	"tlrchol/internal/rbf"
	"tlrchol/internal/runtime"
	"tlrchol/internal/sim"
	"tlrchol/internal/tilemat"
)

// TestFullPipeline runs geometry → parallel tile assembly and
// compression → trimmed parallel factorization → iterative
// refinement → RBF interpolation, checking accuracy at every stage.
func TestFullPipeline(t *testing.T) {
	const (
		n   = 1200
		b   = 150
		tol = 1e-6
	)
	// 1. Geometry + kernel.
	pts := rbf.VirusPopulation(rbf.DefaultVirusConfig(n))[:n]
	kernel := rbf.Gaussian{Delta: 2.5 * rbf.DefaultShape(pts), Nugget: 100 * tol}
	prob, perm := rbf.NewProblem(pts, kernel)
	if len(perm) != n {
		t.Fatalf("KD permutation missing")
	}

	// 2. Parallel tile assembly and compression.
	m, st, err := tilemat.FromAssemblerParallel(n, b, prob.Block, tol, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if st.CompressedBytes >= st.DenseBytes {
		t.Fatalf("compression saved no memory: %d >= %d", st.CompressedBytes, st.DenseBytes)
	}

	// 3. Trimmed parallel factorization with tracing: one executed task
	// and one trace record per walk task.
	rep, err := core.Factorize(m, core.Options{
		Tol: tol, Trim: true, Workers: 2, CollectTrace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if walk := rep.Potrf + rep.Trsm + rep.Syrk + rep.Gemm; rep.TasksExecuted != walk || len(rep.Trace) != walk {
		t.Fatalf("%d walk tasks, %d executed, %d traced", walk, rep.TasksExecuted, len(rep.Trace))
	}
	sum := obs.Summarize(runtime.Events(rep.Trace))
	if sum.Makespan <= 0 || len(sum.Classes) < 3 {
		t.Fatalf("trace analysis incomplete: %+v", sum)
	}

	// 4. Solve + iterative refinement against the accurate operator.
	ref := prob.Dense()
	d := dense.NewMatrix(n, 3)
	for i, p := range prob.Points {
		d.Set(i, 0, 0.05*math.Sin(4*p.Y))
		d.Set(i, 1, -0.02)
		d.Set(i, 2, 0.03*p.X)
	}
	want := d.Clone()
	res, err := core.Refine(m, core.DenseOperator{A: ref}, d, 15, 1e-11)
	if err != nil {
		t.Fatal(err)
	}
	if final := res.Residuals[len(res.Residuals)-1]; final > 1e-10 {
		t.Fatalf("refined residual %g", final)
	}

	// 5. Interpolation conditions hold at the boundary.
	ip := &rbf.Interpolant{Problem: prob, Alpha: d}
	for i := 0; i < n; i += 131 {
		got := ip.Eval(prob.Points[i])
		if math.Abs(got.X-want.At(i, 0)) > 1e-5 ||
			math.Abs(got.Y-want.At(i, 1)) > 1e-5 ||
			math.Abs(got.Z-want.At(i, 2)) > 1e-5 {
			t.Fatalf("interpolation conditions violated at %d", i)
		}
	}
}

// TestTLRBeatsDenseBaseline compares the TLR factorization against the
// ScaLAPACK-style dense tile baseline on the same operator: same
// solution, less memory, fewer flops (observable as less busy time).
func TestTLRBeatsDenseBaseline(t *testing.T) {
	const (
		n   = 1024
		b   = 128
		tol = 1e-7
	)
	pts := rbf.VirusPopulation(rbf.DefaultVirusConfig(n))[:n]
	kernel := rbf.Gaussian{Delta: 1.5 * rbf.DefaultShape(pts), Nugget: 100 * tol}
	prob, _ := rbf.NewProblem(pts, kernel)
	ref := prob.Dense()

	mTLR, st := tilemat.FromAssembler(n, b, prob.Block, tol, 0)
	mDense := tilemat.DenseTiles(ref, b)
	repT, err := core.Factorize(mTLR, core.Options{Tol: tol, Trim: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	repD, err := core.Factorize(mDense, core.Options{Tol: tol, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st.CompressedBytes >= st.DenseBytes {
		t.Fatalf("compression saved no memory")
	}
	if repT.Runtime.BusyTime >= repD.Runtime.BusyTime {
		t.Fatalf("TLR should do less work than dense: %v vs %v",
			repT.Runtime.BusyTime, repD.Runtime.BusyTime)
	}
	// Both solve the system to their respective accuracy.
	rng := rand.New(rand.NewSource(9))
	xTrue := dense.Random(rng, n, 1)
	rhs := dense.NewMatrix(n, 1)
	dense.Gemm(dense.NoTrans, dense.NoTrans, 1, ref, xTrue, 0, rhs)
	xT, xD := rhs.Clone(), rhs.Clone()
	core.Solve(mTLR, xT)
	core.Solve(mDense, xD)
	if r := core.ResidualNorm(ref, xD, rhs); r > 1e-10 {
		t.Fatalf("dense baseline residual %g", r)
	}
	if r := core.ResidualNorm(ref, xT, rhs); r > 1e-4 {
		t.Fatalf("TLR residual %g", r)
	}
}

// TestObsSmoke runs a traced, metered factorization end to end and
// checks the observability contract: every executed task has exactly
// one span on a worker track, the Chrome export validates and covers all spans, the
// per-class counters agree with the report's task counts, the
// effective-flop accounting shows the data-sparsity win, and the
// critical-path attribution is internally consistent.
func TestObsSmoke(t *testing.T) {
	const (
		n   = 1024
		b   = 128
		tol = 1e-4
	)
	pts := rbf.VirusPopulation(rbf.DefaultVirusConfig(n))[:n]
	kernel := rbf.Gaussian{Delta: 2.5 * rbf.DefaultShape(pts), Nugget: 100 * tol}
	prob, _ := rbf.NewProblem(pts, kernel)
	m, st := tilemat.FromAssembler(n, b, prob.Block, tol, 0)

	reg := obs.NewRegistry(0)
	rep, err := core.Factorize(m, core.Options{
		Tol: tol, Trim: true, Workers: 2,
		CollectTrace: true, Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}

	// One span per executed task, each on a worker track.
	events := runtime.Events(rep.Trace)
	spans := 0
	for _, e := range events {
		if e.Kind == obs.KindSpan {
			spans++
			if e.Worker < 0 || int(e.Worker) >= rep.Runtime.Workers {
				t.Fatalf("span %s on track %d of %d workers", e.Name, e.Worker, rep.Runtime.Workers)
			}
		}
	}
	if spans != rep.TasksExecuted {
		t.Fatalf("span count %d != executed tasks %d", spans, rep.TasksExecuted)
	}

	// The Chrome export must validate and cover every span.
	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, events, map[string]any{"n": n, "b": b}); err != nil {
		t.Fatal(err)
	}
	tc, err := obs.ValidateChromeTrace(buf.Bytes())
	if err != nil {
		t.Fatalf("chrome trace invalid: %v", err)
	}
	if tc.Spans != spans {
		t.Fatalf("exported %d spans, traced %d", tc.Spans, spans)
	}

	// Per-class task counters agree with the report (fresh registry, so
	// counts match the created task instances exactly).
	counts := map[string]int{}
	for _, c := range reg.Snapshot().Counters {
		counts[c.Name] = int(c.Value)
	}
	if counts["tasks.potrf"] != rep.Potrf || counts["tasks.trsm"] != rep.Trsm ||
		counts["tasks.syrk"] != rep.Syrk || counts["tasks.gemm"] != rep.Gemm {
		t.Fatalf("counter/report mismatch: %v vs %d/%d/%d/%d",
			counts, rep.Potrf, rep.Trsm, rep.Syrk, rep.Gemm)
	}

	// Data-sparsity accounting: compression saved memory, trimming
	// removed tasks, and the effective flops undercut the dense count.
	if st.CompressedBytes >= st.DenseBytes {
		t.Fatalf("no compression: %d >= %d", st.CompressedBytes, st.DenseBytes)
	}
	if rep.TasksTrimmed <= 0 {
		t.Fatalf("trimming removed no tasks")
	}
	if rep.EffFlops <= 0 || rep.EffFlops >= rep.DenseFlops {
		t.Fatalf("effective flops %g should undercut dense %g", rep.EffFlops, rep.DenseFlops)
	}

	// Critical path: non-empty, consistent with the makespan, and its
	// work + bubbles reach the path's end.
	cp := rep.CritPath
	if cp == nil || len(cp.Steps) == 0 {
		t.Fatalf("critical path missing")
	}
	last := cp.Steps[len(cp.Steps)-1]
	if last.Finish != cp.Makespan {
		t.Fatalf("path should end at the makespan: %v vs %v", last.Finish, cp.Makespan)
	}
	if cp.Work+cp.Bubble != last.Finish {
		t.Fatalf("work %v + bubble %v != path end %v", cp.Work, cp.Bubble, last.Finish)
	}
	for i := 1; i < len(cp.Steps); i++ {
		if cp.Steps[i].Start < cp.Steps[i-1].Finish {
			t.Fatalf("path steps overlap: %+v -> %+v", cp.Steps[i-1], cp.Steps[i])
		}
	}
}

// TestSimulatorEndToEnd drives the full simulated stack the way
// examples/scalability does, asserting the paper's headline ordering.
func TestSimulatorEndToEnd(t *testing.T) {
	model := ranks.FromShape(ranks.PaperGeometry(1_490_000, 4880, 3.7e-4, 1e-4))
	p, q := dist.Grid(64)
	cfg := sim.Config{
		Machine: sim.ShaheenII, Nodes: 64,
		Remap: dist.Remap{Data: dist.TwoDBC{P: p, Q: q}, Exec: dist.BandDiamond(p, q)},
	}
	w := sim.NewWorkload(model, &model, true)
	r, err := sim.Run(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Makespan <= 0 || r.Efficiency() <= 0.2 {
		t.Fatalf("implausible simulation: %+v", r)
	}
	est := sim.Estimate(model, cfg, sim.EstOptions{Trimmed: true})
	ratio := est.Makespan / r.Makespan
	if ratio < 0.4 || ratio > 1.5 {
		t.Fatalf("estimator diverged from simulator: %.2f", ratio)
	}
}
