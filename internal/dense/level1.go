package dense

// The level-1 primitives every inner loop of QR, QRCP and the Jacobi SVD
// reduces to. Those kernels keep their working matrix column-major in
// workspace scratch, so each operand here is one contiguous column (or
// column tail); re-slicing y to len(x) lets the compiler drop the
// per-element bounds checks.

// dot returns Σ x[i]·y[i]. Four partial sums break the dependency chain
// of a single accumulator.
func dot(x, y []float64) float64 {
	y = y[:len(x)]
	var s0, s1, s2, s3 float64
	for len(x) >= 4 && len(y) >= 4 {
		s0 += x[0] * y[0]
		s1 += x[1] * y[1]
		s2 += x[2] * y[2]
		s3 += x[3] * y[3]
		x, y = x[4:], y[4:]
	}
	for i, xi := range x {
		s0 += xi * y[i]
	}
	return (s0 + s1) + (s2 + s3)
}

// axpy computes y += alpha·x.
func axpy(alpha float64, x, y []float64) {
	y = y[:len(x)]
	for i, xi := range x {
		y[i] += alpha * xi
	}
}

// rot applies the plane rotation (x, y) ← (c·x − s·y, s·x + c·y).
func rot(c, s float64, x, y []float64) {
	y = y[:len(x)]
	for i, xi := range x {
		yi := y[i]
		x[i] = c*xi - s*yi
		y[i] = s*xi + c*yi
	}
}

// colMajor returns a transposed into scratch: column j of a is the
// contiguous cm[j*a.Rows:][:a.Rows].
func colMajor(a *Matrix, ws *Workspace) []float64 {
	m := a.Rows
	cm := ws.Floats(m * a.Cols)
	for i := 0; i < m; i++ {
		for j, v := range a.Row(i) {
			cm[j*m+i] = v
		}
	}
	return cm
}
