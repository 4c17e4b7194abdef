package main

import (
	"math"
	"math/rand"
	"sync"

	"tlrchol/internal/dense"
	"tlrchol/internal/obs"
	"tlrchol/internal/rbf"
	"tlrchol/internal/serve"
)

// spec describes a problem the way the service's wire format does, so the
// library workloads and the service workloads name their datasets alike.
// Every field the service would default is written out here: the
// benchmark's datasets must not move when a default does.
type spec = serve.ProblemSpec

// gaussian returns the spec of a Gaussian-kernel problem at the library's
// defaults: nugget 100·tol, trimming on, SVD compressor, Cholesky.
func gaussian(n, tile int, deltaFactor float64, geometrySeed int64) spec {
	const tol = 1e-6
	return spec{N: n, Tile: tile, Tol: tol, Kernel: "gaussian", DeltaFactor: deltaFactor,
		Nugget: 100 * tol, Seed: geometrySeed}
}

// geometry builds the kernel problem of a spec exactly as the service
// does: the synthetic virus population of the spec's seed, the shape
// parameter as a multiple of the default, Hilbert ordering.
func geometry(sp spec) *rbf.Problem {
	cfg := rbf.DefaultVirusConfig(sp.N)
	cfg.Seed = sp.Seed
	pts := rbf.VirusPopulation(cfg)[:sp.N]
	kernel := rbf.Gaussian{Delta: sp.DeltaFactor * rbf.DefaultShape(pts), Nugget: sp.Nugget}
	prob, _ := rbf.NewProblem(pts, kernel)
	return prob
}

// rhsSeed derives the seed of the i-th right-hand-side block of a run
// from --seed. It is never 0, which the service would read as "default".
func rhsSeed(seed int64, i int) int64 {
	return 1 + (seed&0xffffffff)<<20 + int64(i)
}

// randomRHS draws the block the service draws for the same rhs_seed.
func randomRHS(seed int64, n, cols int) *dense.Matrix {
	return dense.Random(rand.New(rand.NewSource(seed)), n, cols)
}

// exactDefect returns K·x − b with K the exact kernel operator, applied in
// row panels through prob.Block so no N×N array ever exists. It is the
// benchmark's ground truth: the compressed operator the service checks
// against is itself an approximation.
func exactDefect(prob *rbf.Problem, x, b *dense.Matrix) *dense.Matrix {
	n := x.Rows
	const panel = 128
	d := dense.NewMatrix(n, x.Cols)
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r0 := range next {
				r1 := min(r0+panel, n)
				dense.Gemm(dense.NoTrans, dense.NoTrans, 1, prob.Block(r0, r1, 0, n), x, 0, d.View(r0, 0, r1-r0, x.Cols))
			}
		}()
	}
	for r0 := 0; r0 < n; r0 += panel {
		next <- r0
	}
	close(next)
	wg.Wait()
	d.Add(-1, b)
	return d
}

// columnNorms returns the Euclidean norm of every column.
func columnNorms(m *dense.Matrix) []float64 {
	out := make([]float64, m.Cols)
	for i := 0; i < m.Rows; i++ {
		for j, v := range m.Row(i) {
			out[j] += v * v
		}
	}
	for j := range out {
		out[j] = math.Sqrt(out[j])
	}
	return out
}

// exactResiduals returns, per column, the relative residual of x as a
// solution for b against the exact operator: ‖K·x − b‖₂/‖b‖₂.
//
// For an augmented spec the service solves [K P; Pᵀ 0]·[x; λ] = [b; 0] and
// returns x without the four polynomial coefficients λ. The defect K·x − b
// must then equal −P·λ for some λ, and Pᵀ·x must vanish: the residual is
// that of the whole system at the λ that fits best in the least-squares
// sense.
func exactResiduals(prob *rbf.Problem, x, b *dense.Matrix, augmented bool) []float64 {
	d := exactDefect(prob, x, b)
	var constraint []float64
	if augmented {
		p := rbf.PolyMatrix(prob.Points)
		gram, lambda := dense.NewMatrix(4, 4), dense.NewMatrix(4, x.Cols)
		dense.Gemm(dense.Trans, dense.NoTrans, 1, p, p, 0, gram)
		dense.Gemm(dense.Trans, dense.NoTrans, 1, p, d, 0, lambda)
		if err := dense.Potrf(gram); err != nil {
			return []float64{math.NaN()}
		}
		dense.CholSolve(gram, lambda)
		dense.Gemm(dense.NoTrans, dense.NoTrans, -1, p, lambda, 1, d)
		ptx := dense.NewMatrix(4, x.Cols)
		dense.Gemm(dense.Trans, dense.NoTrans, 1, p, x, 0, ptx)
		constraint = columnNorms(ptx)
	}
	res, norm := columnNorms(d), columnNorms(b)
	for j := range res {
		if augmented {
			res[j] = math.Hypot(res[j], constraint[j])
		}
		res[j] /= norm[j]
	}
	return res
}

// worst returns the largest of the residuals, NaN if any is NaN.
func worst(res []float64) float64 {
	w := 0.0
	for _, v := range res {
		w = math.Max(w, v)
	}
	return w
}

// accepted reports whether a residual meets the workload's accuracy.
func accepted(res, tol float64) bool { return res <= tolFactor*tol }

// sameBits reports whether two solutions agree bit for bit.
func sameBits(a, b *dense.Matrix) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := 0; i < a.Rows; i++ {
		ra, rb := a.Row(i), b.Row(i)
		for j := range ra {
			if math.Float64bits(ra[j]) != math.Float64bits(rb[j]) {
				return false
			}
		}
	}
	return true
}

// plannedRuns and sequentialRuns read the counters core keeps of the path
// each SolvePlan.SolveCtx call took.
func plannedRuns() uint64    { return obs.Default.Counter("solve.run.planned").Value() }
func sequentialRuns() uint64 { return obs.Default.Counter("solve.run.sequential").Value() }
