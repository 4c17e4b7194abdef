package core

import (
	"bytes"
	"encoding/json"
	"maps"
	"math"
	"strings"
	"testing"

	"math/rand"
	"tlrchol/internal/dense"
	"tlrchol/internal/obs"
	"tlrchol/internal/rbf"
	"tlrchol/internal/runtime"
	"tlrchol/internal/tilemat"
	"tlrchol/internal/trim"
)

// rbfMatrix builds a compressed RBF kernel matrix plus its dense
// reference, the paper's target operator. deltaFactor scales the
// physical default shape parameter δ = ½·min distance; larger factors
// strengthen correlations (denser compressed matrix) at the cost of
// conditioning, so a nugget proportional to the compression threshold
// keeps the operator SPD through the truncation perturbations.
func rbfMatrix(t *testing.T, n, b int, deltaFactor, tol float64) (*tilemat.Matrix, *dense.Matrix) {
	t.Helper()
	pts := rbf.VirusPopulation(rbf.DefaultVirusConfig(n))[:n]
	delta := deltaFactor * rbf.DefaultShape(pts)
	prob, _ := rbf.NewProblem(pts, rbf.Gaussian{Delta: delta, Nugget: 100 * tol})
	m, _ := tilemat.FromAssembler(n, b, prob.Block, tol, 0)
	return m, prob.Dense()
}

func TestSequentialFactorizeDenseTiles(t *testing.T) {
	// Tight tolerance keeps everything effectively exact: TLR Cholesky
	// must match the dense factorization.
	rng := rand.New(rand.NewSource(1))
	a := dense.RandomSPD(rng, 96)
	m, _ := tilemat.FromDense(a, 32, 1e-12, 0)
	rep, err := Factorize(m, Options{Tol: 1e-12, Sequential: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Potrf != 3 {
		t.Fatalf("potrf count %d", rep.Potrf)
	}
	if e := FactorError(m, a); e > 1e-9 {
		t.Fatalf("factor error %g", e)
	}
}

func TestFactorizeRBFAccuracy(t *testing.T) {
	for _, tol := range []float64{1e-4, 1e-6, 1e-8} {
		m, a := rbfMatrix(t, 512, 64, 4, tol)
		if _, err := Factorize(m, Options{Tol: tol, Trim: true, Workers: 2}); err != nil {
			t.Fatalf("tol=%g: %v", tol, err)
		}
		e := FactorError(m, a)
		// Error accumulates over NT panels; allow a generous constant.
		if e > 500*tol {
			t.Fatalf("tol=%g: factor error %g too large", tol, e)
		}
	}
}

// TestParallelMatchesSequential is the bitwise keystone of the task
// runtime: every tile's write chain is serialized in the same order at
// any worker count and the kernels are deterministic, so the parallel
// factor equals the sequential one tile for tile — same kind, same
// rank, same bits — for both factorizations, trimmed or not.
func TestParallelMatchesSequential(t *testing.T) {
	const tol = 1e-6
	base, _ := rbfMatrix(t, 640, 64, 2, tol)
	for _, fc := range []struct {
		name string
		run  func(*tilemat.Matrix, Options) (Report, error)
	}{{"cholesky", Factorize}, {"ldlt", FactorizeLDLt}} {
		for _, trimOn := range []bool{true, false} {
			want := base.Clone()
			if _, err := fc.run(want, Options{Tol: tol, Trim: trimOn, Sequential: true}); err != nil {
				t.Fatalf("%s trim=%v sequential: %v", fc.name, trimOn, err)
			}
			for _, workers := range []int{1, 2, 4} {
				got := base.Clone()
				if _, err := fc.run(got, Options{Tol: tol, Trim: trimOn, Workers: workers}); err != nil {
					t.Fatalf("%s trim=%v workers=%d: %v", fc.name, trimOn, workers, err)
				}
				for i := 0; i < base.NT; i++ {
					for j := 0; j <= i; j++ {
						w, g := want.At(i, j), got.At(i, j)
						if w.Kind != g.Kind || w.Rank() != g.Rank() || !bitsEqual(w.ToDense(), g.ToDense()) {
							t.Fatalf("%s trim=%v workers=%d: tile (%d,%d) differs from the sequential factor (kind %v vs %v, rank %d vs %d)",
								fc.name, trimOn, workers, i, j, g.Kind, w.Kind, g.Rank(), w.Rank())
						}
					}
				}
			}
		}
	}
}

// bitsEqual reports whether a and b hold the same float64 bit patterns.
func bitsEqual(a, b *dense.Matrix) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			if math.Float64bits(a.At(i, j)) != math.Float64bits(b.At(i, j)) {
				return false
			}
		}
	}
	return true
}

func TestTrimmingPreservesNumerics(t *testing.T) {
	// Trimmed and untrimmed factorizations must produce the same factor:
	// trimming only removes no-op tasks.
	mTrim, a := rbfMatrix(t, 512, 64, 1.5, 1e-4)
	mFull := mTrim.Clone()
	repT, err := Factorize(mTrim, Options{Tol: 1e-4, Trim: true, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	repF, err := Factorize(mFull, Options{Tol: 1e-4, Trim: false, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	eT, eF := FactorError(mTrim, a), FactorError(mFull, a)
	if eT > 2*eF+1e-8 && eF > 2*eT+1e-8 {
		t.Fatalf("trimmed %g vs untrimmed %g diverge", eT, eF)
	}
	// Trimming must reduce the task count on a sparse operator.
	if repT.Gemm >= repF.Gemm || repT.Trsm >= repF.Trsm {
		t.Fatalf("trimming removed nothing: gemm %d vs %d", repT.Gemm, repF.Gemm)
	}
	if repT.Analysis <= 0 || repT.AnalysisBytes <= 0 {
		t.Fatalf("analysis overhead not recorded")
	}
	if repF.Analysis != 0 {
		t.Fatalf("untrimmed run should not pay analysis time")
	}
}

func TestTrimmingPredictionMatchesFactorization(t *testing.T) {
	// Every tile that is non-zero after factorization must have been
	// predicted non-zero by Algorithm 1 (the converse may not hold:
	// numerical cancellation can zero a predicted fill-in).
	m, _ := rbfMatrix(t, 512, 64, 1.5, 1e-4)
	pred := Structure(m, true)
	if _, err := Factorize(m, Options{Tol: 1e-4, Trim: true, Sequential: true}); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < m.NT; i++ {
		for j := 0; j < i; j++ {
			if m.At(i, j).Rank() > 0 && !pred.NonZero(i, j) {
				t.Fatalf("tile (%d,%d) non-zero but not predicted", i, j)
			}
		}
	}
}

func TestFactorizeRejectsNonSPD(t *testing.T) {
	m := tilemat.New(64, 32) // zero matrix is not SPD
	if _, err := Factorize(m, Options{Tol: 1e-8, Sequential: true}); err == nil {
		t.Fatalf("expected POTRF failure on zero matrix")
	}
	// Parallel path must surface the error too.
	m2 := tilemat.New(64, 32)
	if _, err := Factorize(m2, Options{Tol: 1e-8, Workers: 2}); err == nil {
		t.Fatalf("expected POTRF failure on parallel path")
	}
}

func TestFactorizeRejectsBadTol(t *testing.T) {
	m := tilemat.New(64, 32)
	if _, err := Factorize(m, Options{}); err == nil {
		t.Fatalf("expected error for missing Tol")
	}
}

func TestSolveAgainstDense(t *testing.T) {
	m, a := rbfMatrix(t, 384, 64, 4, 1e-8)
	rng := rand.New(rand.NewSource(5))
	xTrue := dense.Random(rng, 384, 3)
	b := dense.NewMatrix(384, 3)
	dense.Gemm(dense.NoTrans, dense.NoTrans, 1, a, xTrue, 0, b)
	if _, err := Factorize(m, Options{Tol: 1e-8, Trim: true, Workers: 2}); err != nil {
		t.Fatal(err)
	}
	x := b.Clone()
	Solve(m, x)
	if r := ResidualNorm(a, x, b); r > 1e-5 {
		t.Fatalf("solve residual %g", r)
	}
}

func TestSolveUnevenTiles(t *testing.T) {
	// N not divisible by B exercises the edge-tile paths end to end.
	n, b := 300, 64
	pts := rbf.VirusPopulation(rbf.DefaultVirusConfig(n))
	prob, _ := rbf.NewProblem(pts[:n], rbf.Gaussian{Delta: 0.02})
	m, _ := tilemat.FromAssembler(n, b, prob.Block, 1e-9, 0)
	a := prob.Dense()
	rng := rand.New(rand.NewSource(6))
	xTrue := dense.Random(rng, n, 2)
	rhs := dense.NewMatrix(n, 2)
	dense.Gemm(dense.NoTrans, dense.NoTrans, 1, a, xTrue, 0, rhs)
	if _, err := Factorize(m, Options{Tol: 1e-9, Trim: true, Sequential: true}); err != nil {
		t.Fatal(err)
	}
	x := rhs.Clone()
	Solve(m, x)
	if r := ResidualNorm(a, x, rhs); r > 1e-6 {
		t.Fatalf("uneven-tile solve residual %g", r)
	}
}

func TestReportTaskCountsMatchStructure(t *testing.T) {
	m, _ := rbfMatrix(t, 512, 64, 1.5, 1e-4)
	s := Structure(m, true)
	p, tr, sy, ge := trim.TaskCounts(s)
	rep, err := Factorize(m, Options{Tol: 1e-4, Trim: true, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Potrf != p || rep.Trsm != tr || rep.Syrk != sy || rep.Gemm != ge {
		t.Fatalf("report counts (%d,%d,%d,%d) != structure (%d,%d,%d,%d)",
			rep.Potrf, rep.Trsm, rep.Syrk, rep.Gemm, p, tr, sy, ge)
	}
	if rep.Runtime.Executed != p+tr+sy+ge {
		t.Fatalf("runtime executed %d != %d tasks", rep.Runtime.Executed, p+tr+sy+ge)
	}
}

func TestFinalDensityReported(t *testing.T) {
	m, _ := rbfMatrix(t, 512, 64, 1.5, 1e-4)
	rep, err := Factorize(m, Options{Tol: 1e-4, Trim: true, Sequential: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.FinalDensity <= 0 || rep.FinalDensity > 1 {
		t.Fatalf("final density %g out of range", rep.FinalDensity)
	}
}

func TestDenseBaselineFactorization(t *testing.T) {
	// The ScaLAPACK-style all-dense tile layout must factor exactly
	// through the kernels' dense paths, and TLR at a tight tolerance
	// must agree with it.
	mTLR, a := rbfMatrix(t, 384, 64, 4, 1e-10)
	mDense := tilemat.DenseTiles(a, 64)
	if _, err := Factorize(mDense, Options{Tol: 1e-10, Workers: 2}); err != nil {
		t.Fatal(err)
	}
	if e := FactorError(mDense, a); e > 1e-10 {
		t.Fatalf("dense baseline factor error %g", e)
	}
	if _, err := Factorize(mTLR, Options{Tol: 1e-10, Trim: true, Workers: 2}); err != nil {
		t.Fatal(err)
	}
	if e := FactorError(mTLR, a); e > 1e-6 {
		t.Fatalf("TLR factor error %g", e)
	}
	// And the TLR factor stores far fewer bytes.
	if mTLR.Bytes() >= mDense.Bytes() {
		t.Fatalf("TLR must save memory: %d vs %d", mTLR.Bytes(), mDense.Bytes())
	}
}

// TestInstrumentationSequentialMatchesParallel: the sequential and
// parallel paths record identical task counters, identical
// dense-equivalent flops and identical effective flops into their
// registries.
func TestInstrumentationSequentialMatchesParallel(t *testing.T) {
	const tol = 1e-6
	m1, _ := rbfMatrix(t, 640, 80, 2, tol)
	m2 := m1.Clone()
	r1, err := Factorize(m1, Options{Tol: tol, Trim: true, Sequential: true,
		Metrics: obs.NewRegistry(1)})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Factorize(m2, Options{Tol: tol, Trim: true, Workers: 2,
		Metrics: obs.NewRegistry(2)})
	if err != nil {
		t.Fatal(err)
	}
	if r1.DenseFlops != r2.DenseFlops {
		t.Fatalf("dense-equivalent flops diverge: %g vs %g", r1.DenseFlops, r2.DenseFlops)
	}
	if r1.EffFlops <= 0 || r1.EffFlops != r2.EffFlops {
		t.Fatalf("effective flops diverge or are missing: %g vs %g", r1.EffFlops, r2.EffFlops)
	}
	c1, c2 := map[string]uint64{}, map[string]uint64{}
	for _, c := range r1.Metrics.Snapshot().Counters {
		if strings.HasPrefix(c.Name, "tasks.") {
			c1[c.Name] = c.Value
		}
	}
	for _, c := range r2.Metrics.Snapshot().Counters {
		if strings.HasPrefix(c.Name, "tasks.") {
			c2[c.Name] = c.Value
		}
	}
	if len(c1) != nClass || !maps.Equal(c1, c2) {
		t.Fatalf("task counters diverge: %v vs %v", c1, c2)
	}
	if r1.TasksExecuted != r2.TasksExecuted {
		t.Fatalf("executed counts diverge: %d vs %d", r1.TasksExecuted, r2.TasksExecuted)
	}
	if r1.TasksTrimmed != r2.TasksTrimmed || r1.TasksTrimmed <= 0 {
		t.Fatalf("trimmed counts wrong: %d vs %d", r1.TasksTrimmed, r2.TasksTrimmed)
	}
}

// TestUntracedTasksCarryNoInfo: without CollectTrace the graph builder
// must not allocate span annotations (the zero-cost-off contract).
func TestUntracedTasksCarryNoInfo(t *testing.T) {
	const tol = 1e-6
	m, _ := rbfMatrix(t, 512, 64, 2, tol)
	g, _ := BuildGraph(m, Structure(m, true), Options{Tol: tol}, tilemat.FormCholesky)
	if g.Info != nil {
		t.Fatalf("untraced graph carries span annotations")
	}
	g2, _ := BuildGraph(m, Structure(m, true), Options{Tol: tol, CollectTrace: true}, tilemat.FormCholesky)
	withInfo := 0
	for _, info := range g2.Info {
		if info != nil {
			withInfo++
		}
	}
	if withInfo != g2.Tasks() {
		t.Fatalf("traced graph should annotate every task: %d/%d", withInfo, g2.Tasks())
	}
}

// TestCollectedTraceCarriesSpanArgs: the Chrome export of a collected
// factorization annotates every task span with its tile coordinates,
// ranks and effective flops, and samples the ready queue.
func TestCollectedTraceCarriesSpanArgs(t *testing.T) {
	const tol = 1e-6
	m, _ := rbfMatrix(t, 512, 64, 2, tol)
	rep, err := Factorize(m, Options{Tol: tol, Trim: true, Workers: 2, CollectTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, runtime.Events(rep.Trace), nil); err != nil {
		t.Fatal(err)
	}
	tc, err := obs.ValidateChromeTrace(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if tc.Spans != rep.TasksExecuted || tc.Counters != 2*rep.TasksExecuted {
		t.Fatalf("exported %d spans and %d counters for %d tasks", tc.Spans, tc.Counters, rep.TasksExecuted)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		for _, k := range []string{"k", "m", "n", "rank_in", "rank_out", "flops"} {
			if _, ok := e.Args[k]; !ok {
				t.Fatalf("span %s lacks arg %q: %v", e.Name, k, e.Args)
			}
		}
		if e.Args["flops"].(float64) <= 0 {
			t.Fatalf("span %s carries no flops: %v", e.Name, e.Args)
		}
	}
	if rep.CritPath == nil || len(rep.CritPath.Steps) == 0 {
		t.Fatalf("collected run carries no critical path")
	}
}
