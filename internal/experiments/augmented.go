package experiments

import (
	"fmt"
	"math"

	"tlrchol/internal/core"
	"tlrchol/internal/dense"
	"tlrchol/internal/rbf"
	"tlrchol/internal/tilemat"
)

// AugmentedResult is the end-to-end augmented-interpolation experiment:
// the full RBF interpolant of the mesh-deformation application (kernel
// block plus linear polynomial tail), factored with TLR-LDLᵀ: the
// compression shape, the pivot signature, and the three accuracy
// numbers that certify the indefinite pipeline end to end. Cholesky
// must refuse the operator — that refusal message is part of the
// result, as the evidence this workload class genuinely needed the
// signed factorization.
type AugmentedResult struct {
	N, Dim, B  int
	Tol        float64
	CholReject string
	Density    float64
	MaxRank    int
	// NegPivots counts negative diagonal entries of D. Quasi-definite
	// ordering (the SPD kernel block first) puts exactly the 4
	// constraint rows in the negative part of the signature.
	NegPivots int
	// FactorErr is ‖L·D·Lᵀ − A‖_F/‖A‖_F against the dense augmented
	// operator.
	FactorErr float64
	// Residual is the interpolation-solve residual ‖A·x − b‖_F/‖b‖_F.
	Residual float64
	// PolyErr is the linear-reproduction error: interpolating samples of
	// p(x,y,z) = 1 + 2x − y + 3z must return the polynomial coefficients
	// exactly and zero RBF weights — the property the augmentation
	// exists to provide, which the unaugmented system only approximates.
	PolyErr float64
}

// Augmented runs the experiment with real numerics. scale ∈ (0,1]
// shrinks the problem (1.0 → N=1500 points).
func Augmented(scale float64) (*AugmentedResult, error) {
	n := int(1500 * scale)
	if n < 400 {
		n = 400
	}
	pts := rbf.VirusPopulation(rbf.DefaultVirusConfig(n))
	if len(pts) < n {
		n = len(pts)
	}
	pts = pts[:n]
	tol := 1e-8
	delta := 4 * rbf.DefaultShape(pts)
	kernel := rbf.Gaussian{Delta: delta, Nugget: 1e-2}
	prob, _ := rbf.NewProblem(pts, kernel)
	dim := prob.AugmentedDim()
	b := dim / 8
	res := &AugmentedResult{N: n, Dim: dim, B: b, Tol: tol}

	ref := prob.AugmentedBlock(0, dim, 0, dim)

	// Right-hand sides: column 0 samples the linear polynomial
	// p = 1 + 2x − y + 3z, column 1 a smooth deformation field. The 4
	// constraint rows are zero by definition of the interpolation system.
	want := [4]float64{1, 2, -1, 3}
	rhs := dense.NewMatrix(dim, 2)
	for i, p := range prob.Points {
		basis := rbf.PolyBasis(p)
		var pv float64
		for c, w := range want {
			pv += w * basis[c]
		}
		rhs.Set(i, 0, pv)
		rhs.Set(i, 1, math.Sin(3*p.X)+math.Cos(2*p.Y)*p.Z)
	}

	m, _ := tilemat.FromAssembler(dim, b, prob.AugmentedBlock, tol, 0)
	st := m.Stats()
	res.Density, res.MaxRank = st.Density, st.Max

	_, err := core.Factorize(m.Clone(), core.Options{Tol: tol, Sequential: true})
	if err == nil {
		return nil, fmt.Errorf("augmented: Cholesky unexpectedly accepted the indefinite operator")
	}
	res.CholReject = err.Error()

	if _, err := core.FactorizeLDLt(m, core.Options{Tol: tol, Trim: true}); err != nil {
		return nil, fmt.Errorf("augmented: %w", err)
	}
	for k := 0; k < m.NT; k++ {
		d := m.At(k, k).D
		for r := 0; r < d.Rows; r++ {
			if d.At(r, r) < 0 {
				res.NegPivots++
			}
		}
	}

	x := rhs.Clone()
	core.Solve(m, x)

	// Linear reproduction: the first n rows of column 0 are the RBF
	// weights (want 0), the last 4 the polynomial coefficients.
	for i := 0; i < n; i++ {
		res.PolyErr = max(res.PolyErr, math.Abs(x.At(i, 0)))
	}
	for c, w := range want {
		res.PolyErr = max(res.PolyErr, math.Abs(x.At(n+c, 0)-w))
	}
	res.FactorErr = core.FactorErrorLDLt(m, ref)
	res.Residual = core.ResidualNorm(ref, x, rhs)
	return res, nil
}

// Tables renders the experiment.
func (r *AugmentedResult) Tables() []Table {
	t := Table{
		Title: fmt.Sprintf("Augmented RBF interpolation — TLR-LDLᵀ on the saddle-point system [K P; Pᵀ 0] (n=%d, dim=%d, b=%d, tol=%.0e)",
			r.N, r.Dim, r.B, r.Tol),
		Header: []string{"density", "max rank", "neg pivots", "factor err", "solve resid", "poly repro err"},
	}
	t.Add(fmt.Sprintf("%.3f", r.Density),
		fmt.Sprintf("%d", r.MaxRank),
		fmt.Sprintf("%d", r.NegPivots),
		fmt.Sprintf("%.2e", r.FactorErr),
		fmt.Sprintf("%.2e", r.Residual),
		fmt.Sprintf("%.2e", r.PolyErr))
	t.Note("Cholesky refuses this operator: %s", r.CholReject)
	t.Note("neg pivots = 4 is the quasi-definite signature: one per polynomial constraint row")
	return []Table{t}
}
