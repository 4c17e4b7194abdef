package dense

// The level-1 primitives every inner loop of QR, QRCP, the Jacobi SVD,
// the small SYRK and the unblocked Cholesky reduces to. Those kernels
// keep each operand contiguous (a column of column-major workspace
// scratch, or a row of a row-major tile), so each primitive runs over
// two plain slices; re-slicing y to len(x) lets the compiler drop the
// per-element bounds checks.
//
// Behind useArchKernel, operands of level1ArchMin elements or more send
// their first len(x)&^3 elements through the AVX2 FMA bodies in
// kernel_amd64.s and the last len(x)&3 through the Go loops below. The
// split depends on the length alone, so a result never depends on where
// the slices sit in memory; it differs from the portable loops by FMA
// rounding, as the GEMM micro-kernel does.

// level1ArchMin is the shortest operand worth an assembly call: below it
// the call costs more than the Go loop it replaces (the rows of a small
// unblocked Cholesky are this short).
const level1ArchMin = 8

// dot returns Σ x[i]·y[i]. The portable loop keeps four partial sums to
// break the dependency chain of a single accumulator.
func dot(x, y []float64) float64 {
	y = y[:len(x)]
	if useArchKernel && len(x) >= level1ArchMin {
		n := len(x) &^ 3
		s := dotAsm(&x[0], &y[0], n)
		for i, xi := range x[n:] {
			s += xi * y[n+i]
		}
		return s
	}
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

// axpy computes y += alpha·x. x and y must not overlap.
func axpy(alpha float64, x, y []float64) {
	y = y[:len(x)]
	if useArchKernel && len(x) >= level1ArchMin {
		n := len(x) &^ 3
		axpyAsm(alpha, &x[0], &y[0], n)
		x, y = x[n:], y[n:]
	}
	for i, xi := range x {
		y[i] += alpha * xi
	}
}

// rot applies the plane rotation (x, y) ← (c·x − s·y, s·x + c·y). x and
// y must not overlap.
func rot(c, s float64, x, y []float64) {
	y = y[:len(x)]
	if useArchKernel && len(x) >= level1ArchMin {
		n := len(x) &^ 3
		rotAsm(c, s, &x[0], &y[0], n)
		x, y = x[n:], y[n:]
	}
	for i, xi := range x {
		yi := y[i]
		x[i] = c*xi - s*yi
		y[i] = s*xi + c*yi
	}
}

// colMajor returns a transposed into scratch: column j of a is the
// contiguous cm[j*a.Rows:][:a.Rows]. Every entry is written, so the
// scratch is taken without clearing.
func colMajor(a *Matrix, ws *Workspace) []float64 {
	m := a.Rows
	cm := ws.floats(m * a.Cols)
	for i := 0; i < m; i++ {
		for j, v := range a.Row(i) {
			cm[j*m+i] = v
		}
	}
	return cm
}
