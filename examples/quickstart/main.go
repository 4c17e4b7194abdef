// Quickstart: compress an RBF kernel matrix into tile low-rank form,
// factorize it with the trimmed task-parallel Cholesky, and solve a
// linear system — the minimal end-to-end use of the framework.
package main

import (
	"fmt"
	"log"

	"tlrchol/internal/core"
	"tlrchol/internal/dense"
	"tlrchol/internal/rbf"
	"tlrchol/internal/tilemat"
)

func main() {
	const (
		n   = 1500 // boundary mesh points
		b   = 125  // tile size
		tol = 1e-6 // accuracy threshold
	)

	// 1. Geometry: a synthetic population of spiked spheres ("viruses")
	//    in a cube, KD-ordered so each tile row is a compact cluster.
	pts := rbf.VirusPopulation(rbf.DefaultVirusConfig(n))[:n]
	kernel := rbf.Gaussian{Delta: 2 * rbf.DefaultShape(pts), Nugget: 100 * tol}
	prob, _ := rbf.NewProblem(pts, kernel)

	// 2. Assemble + compress tile by tile: the dense operator never
	//    exists in memory at once.
	m, st := tilemat.FromAssembler(n, b, prob.Block, tol, 0)
	stats := m.Stats()
	fmt.Printf("compressed %d x %d operator: %.1f MB -> %.1f MB, density %.2f, max rank %d\n",
		n, n, float64(st.DenseBytes)/1e6, float64(st.CompressedBytes)/1e6,
		stats.Density, stats.Max)

	// 3. TLR Cholesky with DAG trimming on the task runtime.
	rep, err := core.Factorize(m, core.Options{Tol: tol, Trim: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("factorized in %v with %d tasks (%d trimmed-away GEMM chains never created)\n",
		rep.Elapsed.Round(1e6), rep.Potrf+rep.Trsm+rep.Syrk+rep.Gemm, rep.Gemm)

	// 4. Solve A·x = rhs and verify.
	a := prob.Dense()
	xTrue := dense.NewMatrix(n, 1)
	for i := 0; i < n; i++ {
		xTrue.Set(i, 0, float64(i%7)-3)
	}
	rhs := dense.NewMatrix(n, 1)
	dense.Gemm(dense.NoTrans, dense.NoTrans, 1, a, xTrue, 0, rhs)
	x := rhs.Clone()
	core.Solve(m, x)
	fmt.Printf("solve residual: %.2e (threshold was %.0e)\n",
		core.ResidualNorm(a, x, rhs), tol)
}
