package dense

import "math"

// QR computes the thin Householder QR factorization A = Q·R of an m×n
// matrix with m ≥ n. It returns Q (m×n with orthonormal columns) and R
// (n×n upper triangular). A is not modified.
func QR(a *Matrix) (q, r *Matrix) {
	ws := GetWorkspace()
	defer ws.Release()
	qw, rw := QRWS(a, ws)
	return qw.Clone(), rw.Clone()
}

// QRWS is QR with all storage — including the returned Q and R — taken
// from ws, so a warm workspace makes the factorization allocation-free.
// The results are only valid until ws.Release; callers keeping them must
// Clone.
func QRWS(a *Matrix, ws *Workspace) (q, r *Matrix) {
	m, n := a.Rows, a.Cols
	if m < n {
		panic("dense: QR requires rows >= cols")
	}
	wt := colMajor(a, ws) // column j is wt[j*m:][:m]
	taus := ws.Floats(n)
	// v_k = vslab[k*m:][:m-k]. house writes v_k whole, or returns tau 0
	// and nothing reads it, so the slab is taken without clearing.
	vslab := ws.floats(n * m)
	for k := 0; k < n; k++ {
		x := wt[k*m+k : k*m+m]
		v := vslab[k*m : k*m+m-k]
		beta, tau := house(x, v)
		taus[k] = tau
		if tau == 0 {
			continue
		}
		x[0] = beta
		for j := k + 1; j < n; j++ {
			reflect(tau, v, wt[j*m+k:j*m+m])
		}
	}
	r = ws.Matrix(n, n)
	for j := 0; j < n; j++ {
		for i, x := range wt[j*m : j*m+j+1] {
			r.Data[i*n+j] = x
		}
	}
	return formQ(m, n, vslab, taus, ws), r
}

// house builds the Householder reflector H = I − tau·v·vᵀ that maps the
// column tail x onto (beta, 0, …, 0)ᵀ, writing v (v[0] = 1) into
// v[:len(x)]. A zero x has no reflector: tau is 0 and v is untouched.
func house(x, v []float64) (beta, tau float64) {
	norm := math.Sqrt(dot(x, x))
	if norm == 0 {
		return 0, 0
	}
	beta = -math.Copysign(norm, x[0])
	denom := x[0] - beta
	v = v[:len(x)]
	v[0] = 1
	for i := 1; i < len(x); i++ {
		v[i] = x[i] / denom
	}
	return beta, 2 / dot(v, v)
}

// reflect applies I − tau·v·vᵀ to the column tail c.
func reflect(tau float64, v, c []float64) {
	axpy(-tau*dot(v, c), v, c)
}

// formQ returns the thin m×k Q of the k reflectors v_j =
// vslab[j*m:][:m-j]. Q is accumulated column-major and transposed out
// once; reflector j leaves the columns before j, still e_i, alone.
func formQ(m, k int, vslab, taus []float64, ws *Workspace) *Matrix {
	qt := ws.Floats(k * m)
	for j := 0; j < k; j++ {
		qt[j*m+j] = 1
	}
	for kk := k - 1; kk >= 0; kk-- {
		if taus[kk] == 0 {
			continue
		}
		v := vslab[kk*m : kk*m+m-kk]
		for j := kk; j < k; j++ {
			reflect(taus[kk], v, qt[j*m+kk:j*m+m])
		}
	}
	q := ws.Matrix(m, k)
	for j := 0; j < k; j++ {
		for i, x := range qt[j*m : j*m+m] {
			q.Data[i*k+j] = x
		}
	}
	return q
}

// QRCPResult is the outcome of a truncated column-pivoted QR: A·P ≈ Q·R
// with Q m×k orthonormal, R k×n upper trapezoidal, and Perm the column
// permutation (Perm[j] = original index of pivoted column j).
type QRCPResult struct {
	Q    *Matrix
	R    *Matrix
	Perm []int
	// Rank is the detected numerical rank k at the requested tolerance.
	Rank int
}

// QRCP computes a truncated column-pivoted Householder QR of a. The
// factorization stops when the largest remaining column norm drops below
// tol (an absolute threshold), or after maxRank steps (maxRank ≤ 0 means
// min(m,n)). This is the rank-revealing workhorse behind TLR tile
// compression: a ≈ Q·R·Pᵀ with rank columns.
func QRCP(a *Matrix, tol float64, maxRank int) QRCPResult {
	ws := GetWorkspace()
	defer ws.Release()
	res := QRCPWS(a, tol, maxRank, ws)
	perm := make([]int, len(res.Perm))
	copy(perm, res.Perm)
	return QRCPResult{Q: res.Q.Clone(), R: res.R.Clone(), Perm: perm, Rank: res.Rank}
}

// QRCPWS is QRCP with all storage — including the returned Q, R and Perm
// — taken from ws; the results are only valid until ws.Release.
func QRCPWS(a *Matrix, tol float64, maxRank int, ws *Workspace) QRCPResult {
	m, n := a.Rows, a.Cols
	kmax := min(m, n)
	if maxRank > 0 && maxRank < kmax {
		kmax = maxRank
	}
	// Columns never move: pivoting swaps entries of perm, and the column
	// in position j is the original column perm[j] of the scratch.
	wt := colMajor(a, ws)
	perm := ws.Ints(n)
	for j := range perm {
		perm[j] = j
	}
	tail := func(j, fromRow int) []float64 { return wt[perm[j]*m+fromRow : perm[j]*m+m] }
	exactNorm2 := func(j, fromRow int) float64 {
		c := tail(j, fromRow)
		return dot(c, c)
	}
	colNorm2 := ws.Floats(n)
	for j := range colNorm2 {
		colNorm2[j] = exactNorm2(j, 0)
	}
	taus := ws.Floats(kmax)
	vslab := ws.floats(kmax * m) // v_k = vslab[k*m:][:m-k], as in QRWS
	k := 0
	for ; k < kmax; k++ {
		// Pivot: bring the column with the largest remaining norm to front.
		best, bestNorm := pivot(colNorm2, k)
		// The running downdate colNorm2[j] -= R[k][j]² cancels badly once
		// the true residual is tiny; re-verify the chosen pivot exactly and
		// refresh every norm if it disagrees (LAPACK dgeqp3 strategy).
		if bestNorm <= tol*tol || exactNorm2(best, k) <= 0.5*bestNorm {
			for j := k; j < n; j++ {
				colNorm2[j] = exactNorm2(j, k)
			}
			best, bestNorm = pivot(colNorm2, k)
		}
		if bestNorm <= tol*tol {
			break
		}
		perm[k], perm[best] = perm[best], perm[k]
		colNorm2[k], colNorm2[best] = colNorm2[best], colNorm2[k]
		x := tail(k, k)
		v := vslab[k*m : k*m+m-k]
		beta, tau := house(x, v)
		if tau == 0 {
			break
		}
		taus[k] = tau
		x[0] = beta
		// Apply reflector to trailing columns and downdate column norms.
		for j := k + 1; j < n; j++ {
			c := tail(j, k)
			reflect(tau, v, c)
			colNorm2[j] = max(0, colNorm2[j]-c[0]*c[0])
		}
	}
	rank := k
	r := ws.Matrix(rank, n)
	for j := 0; j < n; j++ {
		for i, x := range tail(j, 0)[:min(j+1, rank)] {
			r.Data[i*n+j] = x
		}
	}
	return QRCPResult{Q: formQ(m, rank, vslab, taus, ws), R: r, Perm: perm, Rank: rank}
}

// pivot returns the position and value of the largest of norms[k:], the
// first on ties. A NaN norm wins, so a NaN entry reaches the factors
// instead of stopping the QR at its tolerance test as rank 0.
func pivot(norms []float64, k int) (best int, bestNorm float64) {
	best, bestNorm = k, norms[k]
	for j := k + 1; j < len(norms); j++ {
		if x := norms[j]; x > bestNorm || x != x && bestNorm == bestNorm {
			best, bestNorm = j, x
		}
	}
	return best, bestNorm
}

// UnpermuteColumns returns R·Pᵀ as a dense matrix: column perm[j] of the
// output is column j of r. Used to undo the pivoting from QRCP.
func UnpermuteColumns(r *Matrix, perm []int) *Matrix {
	out := NewMatrix(r.Rows, len(perm))
	for j, pj := range perm {
		for i := 0; i < r.Rows; i++ {
			out.Set(i, pj, r.At(i, j))
		}
	}
	return out
}
