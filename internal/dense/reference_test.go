package dense

import "math"

// The kernels this package shipped before the column-major rewrite, kept
// verbatim (row-major storage walked through At/Set) as the references
// the differential tests compare SVDWS, QRWS and QRCPWS against. The
// only edit is that svdReference also reports how many sweeps it ran.

func svdReference(a *Matrix, ws *Workspace) (SVDResult, int) {
	m, n := a.Rows, a.Cols
	if m < n {
		// Work on the transpose and swap U and V at the end.
		at := ws.Matrix(n, m)
		for i := 0; i < m; i++ {
			row := a.Row(i)
			for j, v := range row {
				at.Data[j*at.Stride+i] = v
			}
		}
		res, sweeps := svdReference(at, ws)
		return SVDResult{U: res.V, S: res.S, V: res.U}, sweeps
	}
	u := ws.MatrixCopy(a)
	v := ws.Matrix(n, n)
	for i := 0; i < n; i++ {
		v.Set(i, i, 1)
	}
	const maxSweeps = 60
	eps := 1e-15
	sweeps := 0
	for sweep := 0; sweep < maxSweeps; sweep++ {
		sweeps++
		off := 0.0
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				var app, aqq, apq float64
				for i := 0; i < m; i++ {
					up := u.At(i, p)
					uq := u.At(i, q)
					app += up * up
					aqq += uq * uq
					apq += up * uq
				}
				if math.Abs(apq) <= eps*math.Sqrt(app*aqq) || apq == 0 {
					continue
				}
				off += apq * apq
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
				for i := 0; i < m; i++ {
					up := u.At(i, p)
					uq := u.At(i, q)
					u.Set(i, p, c*up-s*uq)
					u.Set(i, q, s*up+c*uq)
				}
				for i := 0; i < n; i++ {
					vp := v.At(i, p)
					vq := v.At(i, q)
					v.Set(i, p, c*vp-s*vq)
					v.Set(i, q, s*vp+c*vq)
				}
			}
		}
		if off == 0 {
			break
		}
	}
	// Column norms are singular values; normalize U's columns.
	s := ws.Floats(n)
	for j := 0; j < n; j++ {
		var norm float64
		for i := 0; i < m; i++ {
			val := u.At(i, j)
			norm += val * val
		}
		norm = math.Sqrt(norm)
		s[j] = norm
		if norm > 0 {
			inv := 1 / norm
			for i := 0; i < m; i++ {
				u.Set(i, j, u.At(i, j)*inv)
			}
		}
	}
	// Sort singular values descending, permuting U and V columns alike.
	// Insertion sort keeps this allocation-free; n is a small core size.
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
		for i := 0; i < m; i++ {
			us.Set(i, jNew, u.At(i, jOld))
		}
		for i := 0; i < n; i++ {
			vs.Set(i, jNew, v.At(i, jOld))
		}
	}
	return SVDResult{U: us, S: ss, V: vs}, sweeps
}

func qrReference(a *Matrix, ws *Workspace) (q, r *Matrix) {
	m, n := a.Rows, a.Cols
	if m < n {
		panic("dense: QR requires rows >= cols")
	}
	work := ws.MatrixCopy(a)
	taus := ws.Floats(n)
	// All Householder vectors live in one slab: v_k = vslab[k*m:][:m-k]
	// with v_k[0] = 1 implicit in the stored 1.
	vslab := ws.Floats(n * m)
	for k := 0; k < n; k++ {
		// Compute Householder reflector for column k below the diagonal.
		var norm float64
		for i := k; i < m; i++ {
			v := work.At(i, k)
			norm += v * v
		}
		norm = math.Sqrt(norm)
		alpha := work.At(k, k)
		if norm == 0 {
			taus[k] = 0
			continue
		}
		beta := -math.Copysign(norm, alpha)
		v := vslab[k*m : k*m+m-k]
		v[0] = 1
		denom := alpha - beta
		for i := k + 1; i < m; i++ {
			v[i-k] = work.At(i, k) / denom
		}
		var vnorm2 float64
		for _, x := range v {
			vnorm2 += x * x
		}
		taus[k] = 2 / vnorm2
		// Apply (I - tau·v·vᵀ) to the trailing columns of work.
		for j := k; j < n; j++ {
			var s float64
			for i := k; i < m; i++ {
				s += v[i-k] * work.At(i, j)
			}
			s *= taus[k]
			for i := k; i < m; i++ {
				work.Set(i, j, work.At(i, j)-s*v[i-k])
			}
		}
	}
	r = ws.Matrix(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			r.Set(i, j, work.At(i, j))
		}
	}
	// Form thin Q by applying reflectors to the first n columns of I.
	q = ws.Matrix(m, n)
	for i := 0; i < n; i++ {
		q.Set(i, i, 1)
	}
	for k := n - 1; k >= 0; k-- {
		if taus[k] == 0 {
			continue
		}
		v := vslab[k*m : k*m+m-k]
		for j := 0; j < n; j++ {
			var s float64
			for i := k; i < m; i++ {
				s += v[i-k] * q.At(i, j)
			}
			s *= taus[k]
			for i := k; i < m; i++ {
				q.Set(i, j, q.At(i, j)-s*v[i-k])
			}
		}
	}
	return q, r
}

func qrcpReference(a *Matrix, tol float64, maxRank int, ws *Workspace) QRCPResult {
	m, n := a.Rows, a.Cols
	work := ws.MatrixCopy(a)
	kmax := m
	if n < kmax {
		kmax = n
	}
	if maxRank > 0 && maxRank < kmax {
		kmax = maxRank
	}
	perm := ws.Ints(n)
	for j := range perm {
		perm[j] = j
	}
	colNorm2 := ws.Floats(n)
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			v := work.At(i, j)
			colNorm2[j] += v * v
		}
	}
	taus := ws.Floats(kmax)
	vslab := ws.Floats(kmax * m) // v_k = vslab[k*m:][:m-k]
	exactNorm2 := func(j, fromRow int) float64 {
		var s float64
		for i := fromRow; i < m; i++ {
			v := work.At(i, j)
			s += v * v
		}
		return s
	}
	k := 0
	for ; k < kmax; k++ {
		// Pivot: bring the column with the largest remaining norm to front.
		best, bestNorm := k, colNorm2[k]
		for j := k + 1; j < n; j++ {
			if colNorm2[j] > bestNorm {
				best, bestNorm = j, colNorm2[j]
			}
		}
		// The running downdate colNorm2[j] -= R[k][j]² cancels badly once
		// the true residual is tiny; re-verify the chosen pivot exactly and
		// refresh every norm if it disagrees (LAPACK dgeqp3 strategy).
		if bestNorm <= tol*tol || exactNorm2(best, k) <= 0.5*bestNorm {
			for j := k; j < n; j++ {
				colNorm2[j] = exactNorm2(j, k)
			}
			best, bestNorm = k, colNorm2[k]
			for j := k + 1; j < n; j++ {
				if colNorm2[j] > bestNorm {
					best, bestNorm = j, colNorm2[j]
				}
			}
		}
		if bestNorm <= tol*tol {
			break
		}
		if best != k {
			perm[k], perm[best] = perm[best], perm[k]
			colNorm2[k], colNorm2[best] = colNorm2[best], colNorm2[k]
			for i := 0; i < m; i++ {
				wi := work.Data[i*work.Stride:]
				wi[k], wi[best] = wi[best], wi[k]
			}
		}
		// Householder reflector for column k.
		var norm float64
		for i := k; i < m; i++ {
			v := work.At(i, k)
			norm += v * v
		}
		norm = math.Sqrt(norm)
		alpha := work.At(k, k)
		if norm == 0 {
			break
		}
		beta := -math.Copysign(norm, alpha)
		v := vslab[k*m : k*m+m-k]
		v[0] = 1
		denom := alpha - beta
		for i := k + 1; i < m; i++ {
			v[i-k] = work.At(i, k) / denom
		}
		var vnorm2 float64
		for _, x := range v {
			vnorm2 += x * x
		}
		tau := 2 / vnorm2
		taus[k] = tau
		work.Set(k, k, beta)
		for i := k + 1; i < m; i++ {
			work.Set(i, k, 0)
		}
		// Apply reflector to trailing columns and downdate column norms.
		for j := k + 1; j < n; j++ {
			var s float64
			s += work.At(k, j) // v[0] == 1
			for i := k + 1; i < m; i++ {
				s += v[i-k] * work.At(i, j)
			}
			s *= tau
			work.Set(k, j, work.At(k, j)-s)
			for i := k + 1; i < m; i++ {
				work.Set(i, j, work.At(i, j)-s*v[i-k])
			}
			top := work.At(k, j)
			colNorm2[j] -= top * top
			if colNorm2[j] < 0 {
				colNorm2[j] = 0
			}
		}
	}
	rank := k
	r := ws.Matrix(rank, n)
	for i := 0; i < rank; i++ {
		for j := i; j < n; j++ {
			r.Set(i, j, work.At(i, j))
		}
	}
	q := ws.Matrix(m, rank)
	for i := 0; i < rank; i++ {
		q.Set(i, i, 1)
	}
	for kk := rank - 1; kk >= 0; kk-- {
		v := vslab[kk*m : kk*m+m-kk]
		tau := taus[kk]
		for j := 0; j < rank; j++ {
			var s float64
			for i := kk; i < m; i++ {
				s += v[i-kk] * q.At(i, j)
			}
			s *= tau
			for i := kk; i < m; i++ {
				q.Set(i, j, q.At(i, j)-s*v[i-kk])
			}
		}
	}
	return QRCPResult{Q: q, R: r, Perm: perm, Rank: rank}
}
