package core

import (
	"context"
	"math"
	"testing"

	"math/rand"
	"tlrchol/internal/dense"
	"tlrchol/internal/obs"
	"tlrchol/internal/rbf"
	"tlrchol/internal/tilemat"
)

// augMatrix builds the compressed augmented RBF saddle-point system
// [K P; Pᵀ 0] of Section IV-C plus its dense reference — symmetric
// indefinite by construction (the trailing Schur complement is negative
// definite), so Cholesky must reject it and LDLᵀ must factor it. The
// fixed nugget keeps K well-conditioned independently of the tile
// tolerance so the end-to-end residual tracks the compression error.
func augMatrix(t *testing.T, n, b int, tol float64) (*tilemat.Matrix, *dense.Matrix) {
	t.Helper()
	pts := rbf.VirusPopulation(rbf.DefaultVirusConfig(n))[:n]
	delta := 4 * rbf.DefaultShape(pts)
	prob, _ := rbf.NewProblem(pts, rbf.Gaussian{Delta: delta, Nugget: 1e-2})
	dim := prob.AugmentedDim()
	m, _ := tilemat.FromAssembler(dim, b, prob.AugmentedBlock, tol, 0)
	return m, prob.AugmentedBlock(0, dim, 0, dim)
}

// TestLDLtMatchesDense is the keystone of the indefinite path: on an
// augmented system that Factorize rejects, FactorizeLDLt must succeed
// across the sequential/parallel and trimmed/untrimmed variants, the
// factor must carry genuinely negative D pivots, and the solved
// solution must agree with the dense LDLᵀ reference to the tile
// tolerance (residual ≤ 10·tol, the acceptance bar). Run under -race
// by scripts/check.sh.
func TestLDLtMatchesDense(t *testing.T) {
	const tol = 1e-8
	m0, a := augMatrix(t, 252, 64, tol)

	// The zero corner makes the operator indefinite: Cholesky rejects.
	if _, err := Factorize(m0.Clone(), Options{Tol: tol, Sequential: true}); err == nil {
		t.Fatal("Factorize accepted the indefinite augmented system")
	}

	// Dense LDLᵀ reference solution.
	rng := rand.New(rand.NewSource(7))
	rhs := dense.Random(rng, a.Rows, 2)
	ld := a.Clone()
	if err := dense.Ldlt(ld); err != nil {
		t.Fatalf("dense reference LDLt: %v", err)
	}
	ref := rhs.Clone()
	dense.LdltSolve(ld, ref)

	variants := []struct {
		name string
		opts Options
	}{
		{"sequential", Options{Tol: tol, Sequential: true}},
		{"parallel", Options{Tol: tol, Workers: 4}},
		{"parallel-trim", Options{Tol: tol, Workers: 4, Trim: true}},
	}
	for _, v := range variants {
		m := m0.Clone()
		rep, err := FactorizeLDLt(m, v.opts)
		if err != nil {
			t.Fatalf("%s: FactorizeLDLt: %v", v.name, err)
		}
		if m.Form != tilemat.FormLDLt {
			t.Fatalf("%s: factor form not FormLDLt", v.name)
		}
		if rep.TasksExecuted == 0 {
			t.Fatalf("%s: no tasks recorded", v.name)
		}
		neg := 0
		for k := 0; k < m.NT; k++ {
			d := m.At(k, k).D
			for i := 0; i < d.Rows; i++ {
				if d.At(i, i) < 0 {
					neg++
				}
			}
		}
		if neg == 0 {
			t.Fatalf("%s: no negative pivots — system was not indefinite", v.name)
		}
		if e := FactorErrorLDLt(m, a); e > 100*tol {
			t.Fatalf("%s: factor error %g", v.name, e)
		}
		x := rhs.Clone()
		Solve(m, x)
		if r := ResidualNorm(a, x, rhs); r > 10*tol {
			t.Fatalf("%s: solve residual %g > %g", v.name, r, 10*tol)
		}
		if d := dense.FrobDiff(x, ref); d/ref.FrobNorm() > 1e-4 {
			t.Fatalf("%s: TLR solution diverges from dense reference: %g", v.name, d/ref.FrobNorm())
		}
	}
}

// TestLDLtPlannedSolveBitwise pins the determinism contract on the
// indefinite path: the planned parallel substitution — with the D⁻¹
// scale fused into the forward diagonal tasks — reproduces the
// sequential LDLᵀ solve bit for bit at every worker count.
func TestLDLtPlannedSolveBitwise(t *testing.T) {
	const tol = 1e-8
	m, _ := augMatrix(t, 508, 64, tol) // dim 512, NT=8: plan-eligible
	if _, err := FactorizeLDLt(m, Options{Tol: tol, Workers: 4, Trim: true}); err != nil {
		t.Fatal(err)
	}
	p := BuildSolvePlan(m)
	rng := rand.New(rand.NewSource(11))
	for _, w := range []int{1, 4, 17} {
		rhs := dense.Random(rng, m.N, w)
		want := rhs.Clone()
		if err := SolveSequentialCtx(context.Background(), m, want); err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 3, 8} {
			got := rhs.Clone()
			if err := p.SolveCtx(context.Background(), m, got, workers); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < m.N; i++ {
				for j := 0; j < w; j++ {
					if math.Float64bits(got.At(i, j)) != math.Float64bits(want.At(i, j)) {
						t.Fatalf("w=%d workers=%d: LDLt planned solve differs bitwise at (%d,%d)",
							w, workers, i, j)
					}
				}
			}
		}
	}
}

// TestLDLtOnSPDMatchesCholesky: on an SPD operator the signed
// factorization is just as valid (D comes out positive) and solves to
// the same accuracy as the Cholesky path.
func TestLDLtOnSPDMatchesCholesky(t *testing.T) {
	const tol = 1e-8
	mc, a := rbfMatrix(t, 256, 64, 4, tol)
	ml := mc.Clone()
	if _, err := Factorize(mc, Options{Tol: tol, Sequential: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := FactorizeLDLt(ml, Options{Tol: tol, Sequential: true}); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < ml.NT; k++ {
		d := ml.At(k, k).D
		for i := 0; i < d.Rows; i++ {
			if d.At(i, i) <= 0 {
				t.Fatalf("SPD operator produced non-positive pivot %g", d.At(i, i))
			}
		}
	}
	rng := rand.New(rand.NewSource(3))
	rhs := dense.Random(rng, a.Rows, 3)
	xc, xl := rhs.Clone(), rhs.Clone()
	Solve(mc, xc)
	Solve(ml, xl)
	rc, rl := ResidualNorm(a, xc, rhs), ResidualNorm(a, xl, rhs)
	if rl > 10*rc+10*tol {
		t.Fatalf("LDLt residual %g much worse than Cholesky %g", rl, rc)
	}
}

// TestFactorizationSVDsConverge: every Jacobi SVD under a Cholesky
// factorization and under an LDLᵀ factorization of the augmented
// saddle-point operator must end on a sweep without rotation.
// dense.svd.capped counts the ones cut off by the sweep cap instead, as
// one recompression in five once was.
func TestFactorizationSVDsConverge(t *testing.T) {
	const tol = 1e-6
	calls, capped := obs.Default.Counter("dense.svd.calls"), obs.Default.Counter("dense.svd.capped")
	calls0, capped0 := calls.Value(), capped.Value()

	m, _ := rbfMatrix(t, 1024, 64, 4, tol)
	if _, err := Factorize(m, Options{Tol: tol, Workers: 2, Trim: true}); err != nil {
		t.Fatal(err)
	}
	n, b := 508, 64
	pts := rbf.VirusPopulation(rbf.DefaultVirusConfig(n))[:n]
	prob, _ := rbf.NewProblem(pts, rbf.Gaussian{Delta: 4 * rbf.DefaultShape(pts), Nugget: 1e-2})
	aug, _ := tilemat.FromAssembler(prob.AugmentedDim(), b, prob.AugmentedBlock, tol, 0)
	if _, err := FactorizeLDLt(aug, Options{Tol: tol, Workers: 2, Trim: true}); err != nil {
		t.Fatal(err)
	}
	if calls.Value() == calls0 {
		t.Fatal("the factorizations ran no SVD")
	}
	if n := capped.Value() - capped0; n != 0 {
		t.Fatalf("%d of %d SVDs ended on the sweep cap", n, calls.Value()-calls0)
	}
}

// TestSolvePlanFormMismatch: a plan built for one factorization form
// must refuse a factor of the other — executing it would silently
// solve the wrong system.
func TestSolvePlanFormMismatch(t *testing.T) {
	m, _ := rbfMatrix(t, 512, 64, 4, 1e-6)
	if _, err := Factorize(m, Options{Tol: 1e-6, Workers: 2}); err != nil {
		t.Fatal(err)
	}
	p := BuildSolvePlan(m)
	m.Form = tilemat.FormLDLt // simulate a stale plan against a refactored operator
	defer func() {
		if recover() == nil {
			t.Fatal("form-mismatched SolvePlan did not panic")
		}
	}()
	rhs := dense.NewMatrix(m.N, 1)
	_ = p.SolveCtx(context.Background(), m, rhs, 2)
}
