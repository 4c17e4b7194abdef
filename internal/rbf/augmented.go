package rbf

import (
	"fmt"

	"tlrchol/internal/dense"
)

// PolyBasis evaluates the linear polynomial basis {1, x, y, z} at a
// point — the p(x) term of Section IV-C, admissible because the
// Gaussian kernel is conditionally positive definite of order ≤ 2.
func PolyBasis(p Point) [4]float64 { return [4]float64{1, p.X, p.Y, p.Z} }

// PolyMatrix returns the n×4 matrix P with rows {1, x_i, y_i, z_i}.
func PolyMatrix(pts []Point) *dense.Matrix {
	p := dense.NewMatrix(len(pts), 4)
	for i, pt := range pts {
		b := PolyBasis(pt)
		copy(p.Row(i), b[:])
	}
	return p
}

// AugmentedInterpolant is the full RBF interpolant of Section IV-C:
// d(x) = Σ α_i φ_δ(‖x−x_i‖) + p(x) with a linear polynomial p and the
// orthogonality constraint Σ α_i p(x_i) = 0.
type AugmentedInterpolant struct {
	Problem *Problem
	// Alpha is N×c (kernel coefficients), Beta 4×c (polynomial
	// coefficients), for c displacement components.
	Alpha, Beta *dense.Matrix
}

// Eval returns the interpolated value at x (first component returned
// for convenience when c == 1; use EvalVec for all components).
func (ip *AugmentedInterpolant) Eval(x Point) []float64 {
	c := ip.Alpha.Cols
	out := make([]float64, c)
	for i, xb := range ip.Problem.Points {
		w := ip.Problem.Kernel.Eval(Dist(x, xb))
		for j := 0; j < c; j++ {
			out[j] += ip.Alpha.At(i, j) * w
		}
	}
	pb := PolyBasis(x)
	for k := 0; k < 4; k++ {
		for j := 0; j < c; j++ {
			out[j] += ip.Beta.At(k, j) * pb[k]
		}
	}
	return out
}

// AugmentedDim returns the order of the augmented saddle-point system
// [K P; Pᵀ 0]: the N kernel rows plus the 4 polynomial constraint rows.
func (p *Problem) AugmentedDim() int { return p.N() + 4 }

// AugmentedBlock is the tilemat.Assembler for the symmetric augmented
// operator, producing the dense sub-block [r0:r1) × [c0:c1): the kernel
// block (Block's entries) for i, j < N, the polynomial coupling
// P(i, j−N) on the borders, and the zero corner for i, j ≥ N. The
// kernel block comes first so every leading principal minor through
// order N is a minor of SPD K — the ordering that makes the unpivoted
// TLR LDLᵀ factorization well defined on this quasi-definite system
// (the trailing Schur complement −Pᵀ·K⁻¹·P is negative definite
// whenever the points are not coplanar). A block inside the kernel
// block is Block's, read-only zero views included.
func (p *Problem) AugmentedBlock(r0, r1, c0, c1 int) *dense.Matrix {
	n := p.N()
	if r1 <= n && c1 <= n {
		return p.Block(r0, r1, c0, c1)
	}
	out := dense.NewMatrix(r1-r0, c1-c0)
	if kr, kc := min(r1, n)-r0, min(c1, n)-c0; kr > 0 && kc > 0 {
		if r2, zero := p.provenZero(r0, r0+kr, c0, c0+kc); !zero {
			p.blockInto(out.View(0, 0, kr, kc), r0, r0+kr, c0, c0+kc, r2)
		}
	}
	for i := r0; i < min(r1, n); i++ {
		for j := max(c0, n); j < c1; j++ {
			out.Set(i-r0, j-c0, PolyBasis(p.Points[i])[j-n])
		}
	}
	for i := max(r0, n); i < r1; i++ {
		for j := c0; j < min(c1, n); j++ {
			out.Set(i-r0, j-c0, PolyBasis(p.Points[j])[i-n])
		}
	}
	return out
}

// KernelSolver solves K·X = B for the problem's kernel matrix,
// overwriting B with X — typically core.Solve with a TLR factor, or a
// refinement wrapper. The indirection keeps this package free of a
// dependency on the factorization layer.
type KernelSolver func(b *dense.Matrix)

// SolveAugmented solves the saddle-point system of Section IV-C,
//
//	[ K  P ] [α]   [d_b]
//	[ Pᵀ 0 ] [β] = [ 0 ],
//
// via the Schur complement on the polynomial block: with K factored
// once (the expensive TLR Cholesky this framework accelerates), only
// 4+c extra kernel solves are needed:
//
//	S = Pᵀ·K⁻¹·P (4×4),  β = S⁻¹·Pᵀ·K⁻¹·d_b,  α = K⁻¹·(d_b − P·β).
func SolveAugmented(p *Problem, solve KernelSolver, db *dense.Matrix) (*AugmentedInterpolant, error) {
	n, c := db.Rows, db.Cols
	if n != p.N() {
		return nil, fmt.Errorf("rbf: SolveAugmented dimension mismatch")
	}
	pm := PolyMatrix(p.Points)
	// K⁻¹·P and K⁻¹·d_b.
	kip := pm.Clone()
	solve(kip)
	kid := db.Clone()
	solve(kid)
	// Schur complement S = Pᵀ·K⁻¹·P and right-hand side Pᵀ·K⁻¹·d_b.
	s := dense.NewMatrix(4, 4)
	dense.Gemm(dense.Trans, dense.NoTrans, 1, pm, kip, 0, s)
	rhs := dense.NewMatrix(4, c)
	dense.Gemm(dense.Trans, dense.NoTrans, 1, pm, kid, 0, rhs)
	// S is SPD when the points are not coplanar (P has full column rank).
	if err := dense.Potrf(s); err != nil {
		return nil, fmt.Errorf("rbf: degenerate geometry (coplanar points?): %w", err)
	}
	dense.CholSolve(s, rhs) // rhs now holds β
	// α = K⁻¹·d_b − (K⁻¹·P)·β.
	alpha := kid
	dense.Gemm(dense.NoTrans, dense.NoTrans, -1, kip, rhs, 1, alpha)
	return &AugmentedInterpolant{Problem: p, Alpha: alpha, Beta: rhs}, nil
}
