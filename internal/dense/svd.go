package dense

import (
	"math"

	"tlrchol/internal/obs"
)

// Jacobi SVD metrics. A call that ends on svdMaxSweeps instead of on a
// sweep without rotation returns factors that are not orthogonal to
// working precision; dense.svd.capped makes that visible. Increments
// shard on the workspace's goroutine-local shard.
var (
	mSVDCalls  = obs.Default.Counter("dense.svd.calls")
	mSVDSweeps = obs.Default.Counter("dense.svd.sweeps")
	mSVDCapped = obs.Default.Counter("dense.svd.capped")
)

const (
	svdMaxSweeps = 60
	// svdEps is the relative size of a column pair's inner product below
	// which the pair counts as orthogonal.
	svdEps = 1e-15
	// svdNullFloor deflates numerically null columns: a column whose
	// squared norm is at or below svdNullFloor times the sweep's largest
	// is left out of every pair. Anything at or below (ε·‖A‖)² is the
	// rounding noise of the large columns, so the floor only ever drops
	// directions no caller can tell from zero. Without it an exactly
	// rank-deficient input never converges: each sweep shrinks its null
	// columns further until their norm product underflows, and the
	// relative orthogonality test cannot pass on a zero product.
	svdNullFloor = 1e-40
)

// SVDResult holds a (thin) singular value decomposition A = U·diag(S)·Vᵀ
// with U m×k, S length k (descending), V n×k, for k = min(m,n).
type SVDResult struct {
	U *Matrix
	S []float64
	V *Matrix
}

// SVD computes the thin singular value decomposition of a using the
// one-sided Jacobi method: orthogonalize the columns of A by plane
// rotations; the resulting column norms are the singular values. The
// columns are contiguous in column-major scratch, so a pair costs one
// dot product and, when it rotates, two rotations; numerically null
// columns are deflated, so rank-deficient input converges like any
// other. In the TLR framework it is applied to the (rank+rank)² core
// matrices of recompression.
func SVD(a *Matrix) SVDResult {
	ws := GetWorkspace()
	defer ws.Release()
	res := SVDWS(a, ws)
	s := make([]float64, len(res.S))
	copy(s, res.S)
	return SVDResult{U: res.U.Clone(), S: s, V: res.V.Clone()}
}

// SVDWS is SVD with all storage — including the returned factors —
// taken from ws; the results are only valid until ws.Release.
func SVDWS(a *Matrix, ws *Workspace) SVDResult {
	// ut holds the columns being orthogonalized as n rows of length m. A
	// wide a is worked on through its transpose, whose columns are a's
	// rows, and U and V swap at the end.
	m, n := a.Rows, a.Cols
	wide := m < n
	var ut []float64
	if wide {
		m, n = n, m
		ut = ws.MatrixCopy(a).Data
	} else {
		ut = colMajor(a, ws)
	}
	vt := ws.Floats(n * n) // row j is column j of V
	for j := 0; j < n; j++ {
		vt[j*n+j] = 1
	}
	norm2 := ws.Floats(n)
	sweeps, rotated := 0, true
	for ; rotated && sweeps < svdMaxSweeps; sweeps++ {
		rotated = false
		// Squared norms are exact at the start of a sweep and follow each
		// rotation by its closed-form update.
		var largest float64
		for j := 0; j < n; j++ {
			c := ut[j*m : j*m+m]
			norm2[j] = dot(c, c)
			largest = max(largest, norm2[j])
		}
		floor := svdNullFloor * largest
		for p := 0; p < n-1; p++ {
			up := ut[p*m : p*m+m]
			for q := p + 1; q < n; q++ {
				app, aqq := norm2[p], norm2[q]
				if app <= floor || aqq <= floor {
					continue
				}
				uq := ut[q*m : q*m+m]
				apq := dot(up, uq)
				if math.Abs(apq) <= svdEps*math.Sqrt(app*aqq) {
					continue
				}
				rotated = true
				// Jacobi rotation zeroing the (p,q) entry of AᵀA.
				tau := (aqq - app) / (2 * apq)
				var t float64
				if tau >= 0 {
					t = 1 / (tau + math.Sqrt(1+tau*tau))
				} else {
					t = -1 / (-tau + math.Sqrt(1+tau*tau))
				}
				c := 1 / math.Sqrt(1+t*t)
				s := c * t
				rot(c, s, up, uq)
				rot(c, s, vt[p*n:p*n+n], vt[q*n:q*n+n])
				norm2[p] = max(0, app-t*apq)
				norm2[q] = max(0, aqq+t*apq)
			}
		}
	}
	shard := ws.Shard()
	mSVDCalls.Add(shard, 1)
	mSVDSweeps.Add(shard, uint64(sweeps))
	if rotated {
		mSVDCapped.Add(shard, 1)
	}
	// Column norms are singular values. Sort them descending, permuting U
	// and V columns alike. Insertion sort keeps this allocation-free; n is
	// a small core size.
	s := ws.Floats(n)
	for j := 0; j < n; j++ {
		c := ut[j*m : j*m+m]
		s[j] = math.Sqrt(dot(c, c))
	}
	idx := ws.Ints(n)
	for i := range idx {
		idx[i] = i
	}
	for i := 1; i < n; i++ {
		for j := i; j > 0 && s[idx[j]] > s[idx[j-1]]; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	us := ws.Matrix(m, n)
	vs := ws.Matrix(n, n)
	ss := ws.Floats(n)
	for jNew, jOld := range idx {
		ss[jNew] = s[jOld]
		inv := 1.0 // a zero column stays zero
		if s[jOld] > 0 {
			inv = 1 / s[jOld]
		}
		for i, v := range ut[jOld*m : jOld*m+m] {
			us.Data[i*n+jNew] = v * inv
		}
		for i, v := range vt[jOld*n : jOld*n+n] {
			vs.Data[i*n+jNew] = v
		}
	}
	if wide {
		us, vs = vs, us
	}
	return SVDResult{U: us, S: ss, V: vs}
}

// TruncationRank returns the smallest k such that the discarded tail of
// singular values satisfies sqrt(Σ_{i≥k} s_i²) ≤ tol. With tol treated as
// an absolute Frobenius-norm threshold this matches the HiCMA fixed-
// accuracy compression criterion.
func TruncationRank(s []float64, tol float64) int {
	var tail float64
	k := len(s)
	for i := len(s) - 1; i >= 0; i-- {
		tail += s[i] * s[i]
		if math.Sqrt(tail) > tol {
			break
		}
		k = i
	}
	return k
}
