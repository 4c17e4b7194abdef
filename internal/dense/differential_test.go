package dense

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// kernelCase is one input of the differential tests.
type kernelCase struct {
	name   string
	a      *Matrix
	graded bool
}

// graded returns an m×n matrix with singular values 10⁻ⁱ.
func graded(rng *rand.Rand, m, n int) *Matrix {
	k := min(m, n)
	u, _ := QR(Random(rng, m, k))
	v, _ := QR(Random(rng, n, k))
	us := u.Clone()
	for i := 0; i < m; i++ {
		for j := 0; j < k; j++ {
			us.Set(i, j, us.At(i, j)*math.Pow(10, -float64(j)))
		}
	}
	a := NewMatrix(m, n)
	Gemm(NoTrans, Trans, 1, us, v, 0, a)
	return a
}

func differentialCases(rng *rand.Rand) []kernelCase {
	return []kernelCase{
		{name: "random 33x33", a: Random(rng, 33, 33)},
		{name: "graded 24x24", a: graded(rng, 24, 24), graded: true},
		{name: "tall 128x40", a: Random(rng, 128, 40)},
		{name: "wide 40x128", a: Random(rng, 40, 128)},
		{name: "1x1", a: FromSlice(1, 1, []float64{-2.5})},
		{name: "strided view 50x21", a: Random(rng, 64, 37).View(9, 5, 50, 21)},
		{name: "strided view 21x50", a: Random(rng, 37, 64).View(5, 9, 21, 50)},
	}
}

// orthoErr returns the largest entry of |MᵀM − I| over the leading cols
// columns of m.
func orthoErr(m *Matrix, cols int) float64 {
	var worst float64
	for p := 0; p < cols; p++ {
		for q := p; q < cols; q++ {
			var s float64
			for i := 0; i < m.Rows; i++ {
				s += m.At(i, p) * m.At(i, q)
			}
			if p == q {
				s--
			}
			worst = max(worst, math.Abs(s))
		}
	}
	return worst
}

// checkSVD runs SVDWS on a and holds it to the old kernel's singular
// values, to A = U·S·Vᵀ, to orthonormal factors and to half the sweep
// cap. The factor built from rotations alone is orthogonal throughout;
// the one holding the normalized columns is checked on the columns whose
// singular value is above the rounding noise k·ε·σ₁. It returns the
// number of sweeps the old kernel ran.
func checkSVD(t *testing.T, name string, a *Matrix) int {
	t.Helper()
	ws := GetWorkspace()
	defer ws.Release()
	sweeps0, capped0 := mSVDSweeps.Value(), mSVDCapped.Value()
	res := SVDWS(a, ws)
	sweeps, capped := mSVDSweeps.Value()-sweeps0, mSVDCapped.Value()-capped0
	ref, refSweeps := svdReference(a, ws)
	if capped != 0 || sweeps > svdMaxSweeps/2 {
		t.Errorf("%s: %d sweeps, capped %d; the old kernel ran %d", name, sweeps, capped, refSweeps)
	}
	k := min(a.Rows, a.Cols)
	if len(res.S) != k || res.U.Rows != a.Rows || res.U.Cols != k || res.V.Rows != a.Cols || res.V.Cols != k {
		t.Fatalf("%s: result shapes U %dx%d S %d V %dx%d", name, res.U.Rows, res.U.Cols, len(res.S), res.V.Rows, res.V.Cols)
	}
	if k == 0 {
		return refSweeps
	}
	s1 := ref.S[0]
	significant := 0
	for j := 0; j < k; j++ {
		if math.Abs(res.S[j]-ref.S[j]) > 1e-13*s1 {
			t.Errorf("%s: S[%d] = %g, reference %g", name, j, res.S[j], ref.S[j])
		}
		if j > 0 && res.S[j] > res.S[j-1] {
			t.Errorf("%s: S not descending at %d", name, j)
		}
		if res.S[j] > float64(k)*0x1p-52*s1 {
			significant++
		}
	}
	us := res.U.Clone()
	for i := 0; i < us.Rows; i++ {
		for j, s := range res.S {
			us.Set(i, j, us.At(i, j)*s)
		}
	}
	back := NewMatrix(a.Rows, a.Cols)
	Gemm(NoTrans, Trans, 1, us, res.V, 0, back)
	if d := FrobDiff(back, a); d > 1e-13*a.FrobNorm() {
		t.Errorf("%s: ‖A − U·S·Vᵀ‖ = %g·‖A‖", name, d/a.FrobNorm())
	}
	rotations, columns := res.V, res.U
	if a.Rows < a.Cols {
		rotations, columns = res.U, res.V
	}
	if e := orthoErr(rotations, k); e > 1e-13 {
		t.Errorf("%s: rotation factor off orthogonal by %g", name, e)
	}
	if e := orthoErr(columns, significant); e > 1e-13 {
		t.Errorf("%s: leading %d singular vectors off orthonormal by %g", name, significant, e)
	}
	return refSweeps
}

// TestSVDRankDeficientConverges is the regression test for the silent
// sweep cap. The core Ru·Rvᵀ of a recompression whose stacked factors
// have dependent columns has exactly zero rows, so its columns, and every
// rounding error made on them, stay in an r-dimensional subspace: the
// k−r null columns shrink sweep after sweep with no noise floor to stop
// at, the old kernel's relative test could not pass once their norm
// product underflowed, and it ran all 60 sweeps.
func TestSVDRankDeficientConverges(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	var cases []kernelCase
	for _, k := range []int{19, 40, 77} {
		for _, r := range []int{0, 1, k / 3} {
			product, zeroRows := NewMatrix(k, k), NewMatrix(k, k)
			if r > 0 {
				Gemm(NoTrans, NoTrans, 1, Random(rng, k, r), Random(rng, r, k), 0, product)
				zeroRows.View(0, 0, r, k).CopyFrom(Random(rng, r, k))
			}
			cases = append(cases,
				kernelCase{name: fmt.Sprintf("k=%d r=%d product", k, r), a: product},
				kernelCase{name: fmt.Sprintf("k=%d r=%d zero rows", k, r), a: zeroRows})
		}
	}
	dup := Random(rng, 40, 40)
	for i := 0; i < dup.Rows; i++ {
		dup.Set(i, 17, dup.At(i, 3))
		dup.Set(i, 31, dup.At(i, 8))
	}
	cases = append(cases, kernelCase{name: "duplicated columns", a: dup}, kernelCase{name: "zero 12x7", a: NewMatrix(12, 7)})
	oldCapped := 0
	for _, c := range cases {
		if checkSVD(t, c.name, c.a) == 60 {
			oldCapped++
		}
	}
	if oldCapped == 0 {
		t.Errorf("no input made the old kernel run its 60 sweeps: the cases no longer cover the cap")
	}
}

func TestSVDMatchesReference(t *testing.T) {
	for _, c := range differentialCases(rand.New(rand.NewSource(62))) {
		checkSVD(t, c.name, c.a)
	}
}

func TestQRMatchesReference(t *testing.T) {
	ws := GetWorkspace()
	defer ws.Release()
	for _, c := range differentialCases(rand.New(rand.NewSource(63))) {
		if c.a.Rows < c.a.Cols {
			continue
		}
		q, r := QRWS(c.a, ws)
		qRef, rRef := qrReference(c.a, ws)
		checkQR(t, c.name, c.a, q, r, qRef, rRef)
	}
}

func TestQRCPMatchesReference(t *testing.T) {
	ws := GetWorkspace()
	defer ws.Release()
	for _, c := range differentialCases(rand.New(rand.NewSource(64))) {
		for _, lim := range []struct {
			tol     float64
			maxRank int
		}{{0, 0}, {3e-7, 0}, {0, 5}} {
			if c.graded && lim.tol == 0 && lim.maxRank == 0 {
				// Past √ε·‖A‖ the downdated norms of a graded matrix are
				// rounding noise, and so is either kernel's pivot order.
				continue
			}
			name := fmt.Sprintf("%s tol=%g maxRank=%d", c.name, lim.tol, lim.maxRank)
			res := QRCPWS(c.a, lim.tol, lim.maxRank, ws)
			ref := qrcpReference(c.a, lim.tol, lim.maxRank, ws)
			if res.Rank != ref.Rank {
				t.Fatalf("%s: rank %d, reference %d", name, res.Rank, ref.Rank)
			}
			for j := range ref.Perm {
				if res.Perm[j] != ref.Perm[j] {
					t.Fatalf("%s: perm %v, reference %v", name, res.Perm, ref.Perm)
				}
			}
			checkQR(t, name, c.a, res.Q, res.R, ref.Q, ref.R)
		}
	}
}

// checkQR holds Q·R to the reference's product and Q to orthonormal
// columns, and R to upper trapezoidal form.
func checkQR(t *testing.T, name string, a, q, r, qRef, rRef *Matrix) {
	t.Helper()
	if q.Rows != qRef.Rows || q.Cols != qRef.Cols || r.Rows != rRef.Rows || r.Cols != rRef.Cols {
		t.Fatalf("%s: shapes Q %dx%d R %dx%d, reference Q %dx%d R %dx%d", name,
			q.Rows, q.Cols, r.Rows, r.Cols, qRef.Rows, qRef.Cols, rRef.Rows, rRef.Cols)
	}
	got, want := NewMatrix(q.Rows, r.Cols), NewMatrix(q.Rows, r.Cols)
	Gemm(NoTrans, NoTrans, 1, q, r, 0, got)
	Gemm(NoTrans, NoTrans, 1, qRef, rRef, 0, want)
	if d := FrobDiff(got, want); d > 1e-13*a.FrobNorm() {
		t.Errorf("%s: Q·R differs from the reference's by %g·‖A‖", name, d/a.FrobNorm())
	}
	if e := orthoErr(q, q.Cols); e > 1e-13 {
		t.Errorf("%s: Q off orthonormal by %g", name, e)
	}
	for i := 0; i < r.Rows; i++ {
		for j := 0; j < i && j < r.Cols; j++ {
			if r.At(i, j) != 0 {
				t.Fatalf("%s: R(%d,%d) = %g below the diagonal", name, i, j, r.At(i, j))
			}
		}
	}
}
