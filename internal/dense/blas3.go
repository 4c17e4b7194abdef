package dense

import "fmt"

// TransFlag selects whether an operand is used as-is or transposed,
// mirroring the BLAS character arguments.
type TransFlag int

const (
	// NoTrans uses the operand as stored.
	NoTrans TransFlag = iota
	// Trans uses the transpose of the operand.
	Trans
)

// Side selects which side a triangular operand multiplies from.
type Side int

const (
	// Left means op(A)·X.
	Left Side = iota
	// Right means X·op(A).
	Right
)

// UpLo selects the referenced triangle of a symmetric/triangular matrix.
type UpLo int

const (
	// Lower references the lower triangle.
	Lower UpLo = iota
	// Upper references the upper triangle.
	Upper
)

// Diag indicates whether a triangular matrix has a unit diagonal.
type Diag int

const (
	// NonUnit uses the stored diagonal.
	NonUnit Diag = iota
	// Unit assumes an implicit unit diagonal.
	Unit
)

func opDims(t TransFlag, m *Matrix) (r, c int) {
	if t == NoTrans {
		return m.Rows, m.Cols
	}
	return m.Cols, m.Rows
}

// Gemm computes C = alpha·op(A)·op(B) + beta·C, the general matrix-matrix
// product (BLAS dgemm). Large products run through the cache-blocked
// packed micro-kernel (see kernel.go); tiny ones use direct loops, since
// packing overhead would dominate.
//
// IEEE semantics match reference dgemm: every product term is formed, so
// NaN and Inf in A or B propagate into C even when the partner entry is
// zero (0·Inf = NaN). The only shortcuts are the BLAS-sanctioned ones:
// alpha == 0 reduces to C = beta·C without reading A or B, and beta == 0
// overwrites C without reading it (clearing any NaN already there).
func Gemm(tA, tB TransFlag, alpha float64, a, b *Matrix, beta float64, c *Matrix) {
	ar, ac := opDims(tA, a)
	br, bc := opDims(tB, b)
	if ac != br || c.Rows != ar || c.Cols != bc {
		panic(fmt.Sprintf("dense: Gemm dims op(A)=%dx%d op(B)=%dx%d C=%dx%d", ar, ac, br, bc, c.Rows, c.Cols))
	}
	if beta != 1 {
		if beta == 0 {
			c.Zero()
		} else {
			c.Scale(beta)
		}
	}
	if alpha == 0 || ac == 0 {
		return
	}
	if ar*bc*ac >= gemmMinFlops {
		gemmPacked(tA, tB, alpha, a, b, c)
		return
	}
	gemmSmall(tA, tB, alpha, a, b, c)
}

// gemmSmall accumulates C += alpha·op(A)·op(B) with direct loops,
// arranged so the innermost traversal is contiguous where possible. It
// serves matrices too small to amortize packing (e.g. the k×k core
// products of TLR recompression).
func gemmSmall(tA, tB TransFlag, alpha float64, a, b, c *Matrix) {
	ar, ac := opDims(tA, a)
	_, bc := opDims(tB, b)
	switch {
	case tA == NoTrans && tB == NoTrans:
		for i := 0; i < ar; i++ {
			ci := c.Data[i*c.Stride : i*c.Stride+bc]
			ai := a.Row(i)
			for k := 0; k < ac; k++ {
				t := alpha * ai[k]
				bk := b.Data[k*b.Stride : k*b.Stride+bc]
				for j, bv := range bk {
					ci[j] += t * bv
				}
			}
		}
	case tA == NoTrans && tB == Trans:
		for i := 0; i < ar; i++ {
			ci := c.Data[i*c.Stride : i*c.Stride+bc]
			ai := a.Row(i)
			for j := 0; j < bc; j++ {
				bj := b.Row(j)
				var s float64
				for k, av := range ai {
					s += av * bj[k]
				}
				ci[j] += alpha * s
			}
		}
	case tA == Trans && tB == NoTrans:
		for k := 0; k < ac; k++ {
			akRow := a.Row(k) // row k of A holds column entries A[k][i] = op(A)[i][k]
			bk := b.Data[k*b.Stride : k*b.Stride+bc]
			for i := 0; i < ar; i++ {
				t := alpha * akRow[i]
				ci := c.Data[i*c.Stride : i*c.Stride+bc]
				for j, bv := range bk {
					ci[j] += t * bv
				}
			}
		}
	default: // Trans, Trans
		for i := 0; i < ar; i++ {
			ci := c.Data[i*c.Stride : i*c.Stride+bc]
			for j := 0; j < bc; j++ {
				bj := b.Row(j) // row j of B holds op(B)[k][j] over k
				var s float64
				for k := 0; k < ac; k++ {
					s += a.At(k, i) * bj[k]
				}
				ci[j] += alpha * s
			}
		}
	}
}

// GemmDet accumulates C += alpha·op(A)·op(B) with *column-oblivious*
// kernel dispatch: column j of the result is bitwise identical whether
// it rides in a 1-column or a 1000-column call. The blocked-vs-direct
// decision looks only at op(A)'s shape, never at op(B)'s column count;
// both kernels accumulate each output column from its own op(B) column
// alone, in the same k-order, and edge micro-tiles are computed
// full-size against zero padding (kernel.go). Above the blocked
// threshold a second, width-dependent dispatch picks between
// gemmPacked and gemmNarrow — legal because gemmNarrow replicates the
// packed kernel's per-element accumulation bit for bit, so the choice
// is invisible in the output; it only strips the packing overhead that
// dominates single-column applies on the solve latency path. The
// triangular-solve service depends on this property: a batched
// multi-RHS solve must reproduce each request's solo solve exactly.
// Gemm itself keeps the flop-product dispatch, which is faster for
// genuinely small products but rounds differently across widths.
func GemmDet(tA, tB TransFlag, alpha float64, a, b, c *Matrix) {
	ar, ac := opDims(tA, a)
	br, bc := opDims(tB, b)
	if ac != br || c.Rows != ar || c.Cols != bc {
		panic(fmt.Sprintf("dense: GemmDet dims op(A)=%dx%d op(B)=%dx%d C=%dx%d", ar, ac, br, bc, c.Rows, c.Cols))
	}
	if alpha == 0 || ac == 0 || bc == 0 {
		return
	}
	// Dispatch as if op(B) always carried one micro-tile of columns.
	if ar*ac*gemmNR >= gemmMinFlops {
		if bc <= gemmNarrowMaxCols {
			gemmNarrow(tA, tB, alpha, a, b, c)
			return
		}
		gemmPacked(tA, tB, alpha, a, b, c)
		return
	}
	gemmSmall(tA, tB, alpha, a, b, c)
}

// syrkBlock is the row-block size of the blocked SYRK and of the
// triangular GEMM (GemmLowerNT): off-diagonal blocks of this size go
// through the packed GEMM core, diagonal blocks through direct loops.
const syrkBlock = 64

// Syrk computes the symmetric rank-k update on the lower triangle of C:
// C = alpha·op(A)·op(A)ᵀ + beta·C with op(A) = A (tA==NoTrans, n×k) or Aᵀ.
// Only the lower triangle of C is referenced and updated (BLAS dsyrk,
// uplo='L'). Large updates are blocked: off-diagonal blocks of the
// triangle run through the packed GEMM core, diagonal blocks through the
// direct kernel. As in Gemm, no zero-operand shortcuts are taken, so
// NaN/Inf propagate exactly as in reference dsyrk; beta == 0 overwrites
// the lower triangle of C without reading it.
func Syrk(tA TransFlag, alpha float64, a *Matrix, beta float64, c *Matrix) {
	n, k := opDims(tA, a)
	if c.Rows != n || c.Cols != n {
		panic(fmt.Sprintf("dense: Syrk C=%dx%d want %dx%d", c.Rows, c.Cols, n, n))
	}
	if n*n*k < 2*gemmMinFlops || n < 2*syrkBlock {
		syrkSmall(tA, alpha, a, beta, c)
		return
	}
	scaleLower(c, beta)
	for i0 := 0; i0 < n; i0 += syrkBlock {
		ib := min(syrkBlock, n-i0)
		var ai Matrix
		if tA == NoTrans {
			ai = a.viewVal(i0, 0, ib, k)
		} else {
			ai = a.viewVal(0, i0, k, ib)
		}
		for j0 := 0; j0 < i0; j0 += syrkBlock {
			jb := min(syrkBlock, n-j0)
			cij := c.viewVal(i0, j0, ib, jb)
			if tA == NoTrans {
				aj := a.viewVal(j0, 0, jb, k)
				gemmPacked(NoTrans, Trans, alpha, &ai, &aj, &cij)
			} else {
				aj := a.viewVal(0, j0, k, jb)
				gemmPacked(Trans, NoTrans, alpha, &ai, &aj, &cij)
			}
		}
		cii := c.viewVal(i0, i0, ib, ib)
		syrkSmall(tA, alpha, &ai, 1, &cii)
	}
}

// syrkSmall is the direct-loop SYRK used for small updates and the
// diagonal blocks of the blocked path.
func syrkSmall(tA TransFlag, alpha float64, a *Matrix, beta float64, c *Matrix) {
	n, k := opDims(tA, a)
	for i := 0; i < n; i++ {
		ci := c.Data[i*c.Stride:]
		for j := 0; j <= i; j++ {
			var s float64
			if tA == NoTrans {
				s = dot(a.Row(i), a.Row(j))
			} else {
				for kk := 0; kk < k; kk++ {
					s += a.At(kk, i) * a.At(kk, j)
				}
			}
			if beta == 0 {
				ci[j] = alpha * s
			} else {
				ci[j] = alpha*s + beta*ci[j]
			}
		}
	}
}

// scaleLower applies C(lower) = beta·C(lower), with beta == 0 storing
// zeros without reading (BLAS beta semantics).
func scaleLower(c *Matrix, beta float64) {
	if beta == 1 {
		return
	}
	for i := 0; i < c.Rows; i++ {
		ci := c.Data[i*c.Stride : i*c.Stride+i+1]
		if beta == 0 {
			for j := range ci {
				ci[j] = 0
			}
		} else {
			for j := range ci {
				ci[j] *= beta
			}
		}
	}
}

// GemmLowerNT accumulates only the lower triangle of C:
// C(lower) += alpha·A·Bᵀ with A n×k, B n×k, C n×n. This is the
// triangular half-update at the heart of the TLR SYRK (C −= T·Uᵀ with
// T = U·(VᵀV) symmetric), computed at half the flops of a full GEMM.
// Off-diagonal blocks of the triangle run through the packed GEMM core;
// diagonal blocks use direct loops. The strictly-upper triangle of C is
// never read or written.
func GemmLowerNT(alpha float64, a, b, c *Matrix) {
	n, k := a.Rows, a.Cols
	if b.Rows != n || b.Cols != k || c.Rows != n || c.Cols != n {
		panic(fmt.Sprintf("dense: GemmLowerNT A=%dx%d B=%dx%d C=%dx%d", a.Rows, a.Cols, b.Rows, b.Cols, c.Rows, c.Cols))
	}
	if n*n*k < 2*gemmMinFlops || n < 2*syrkBlock {
		gemmLowerSmall(alpha, a, b, c, 0)
		return
	}
	for i0 := 0; i0 < n; i0 += syrkBlock {
		ib := min(syrkBlock, n-i0)
		ai := a.viewVal(i0, 0, ib, k)
		for j0 := 0; j0 < i0; j0 += syrkBlock {
			jb := min(syrkBlock, n-j0)
			bj := b.viewVal(j0, 0, jb, k)
			cij := c.viewVal(i0, j0, ib, jb)
			gemmPacked(NoTrans, Trans, alpha, &ai, &bj, &cij)
		}
		cii := c.viewVal(i0, i0, ib, ib)
		gemmLowerSmall(alpha, &ai, b, &cii, i0)
	}
}

// gemmLowerSmall accumulates the lower triangle of C += alpha·A·B'ᵀ
// with direct loops, where B' = b.View(rowOff, 0, c.Rows, k) — the
// diagonal-block case of GemmLowerNT reuses the full B with an offset.
func gemmLowerSmall(alpha float64, a, b, c *Matrix, rowOff int) {
	for i := 0; i < c.Rows; i++ {
		ai := a.Row(i)
		ci := c.Data[i*c.Stride:]
		for j := 0; j <= i; j++ {
			ci[j] += alpha * dot(ai, b.Row(rowOff+j))
		}
	}
}

// trsmBlock is the base-case order of the recursive blocked TRSM.
const trsmBlock = 32

// Trsm solves a triangular system with multiple right-hand sides in
// place (BLAS dtrsm): op(A)·X = alpha·B for side==Left, or
// X·op(A) = alpha·B for side==Right, overwriting B with X. A must be
// square with the referenced triangle given by uplo. Systems larger
// than the base-case order are split recursively so the off-diagonal
// update — the bulk of the flops — runs through the packed GEMM core.
func Trsm(side Side, uplo UpLo, tA TransFlag, diag Diag, alpha float64, a, b *Matrix) {
	if a.Rows != a.Cols {
		panic("dense: Trsm A not square")
	}
	n := a.Rows
	if (side == Left && b.Rows != n) || (side == Right && b.Cols != n) {
		panic(fmt.Sprintf("dense: Trsm dims A=%dx%d B=%dx%d side=%d", a.Rows, a.Cols, b.Rows, b.Cols, side))
	}
	if alpha != 1 {
		b.Scale(alpha)
	}
	trsmRec(side, uplo, tA, diag, a, b, false)
}

// TrsmDet solves op(A)·X = B in place like Trsm(Left, uplo, tA, diag,
// 1, a, b), but routes the recursion's off-diagonal updates through
// GemmDet so that column j of the solution is bitwise identical for any
// b.Cols. The recursion itself splits on A's order alone and the
// substitution base case processes each column independently, so with
// width-oblivious GEMM dispatch the whole solve is width-oblivious —
// the property the RHS-batching solve service relies on.
func TrsmDet(uplo UpLo, tA TransFlag, diag Diag, a, b *Matrix) {
	if a.Rows != a.Cols {
		panic("dense: TrsmDet A not square")
	}
	if b.Rows != a.Rows {
		panic(fmt.Sprintf("dense: TrsmDet dims A=%dx%d B=%dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	trsmRec(Left, uplo, tA, diag, a, b, true)
}

// recGemm is the off-diagonal update of the TRSM recursion: the
// width-oblivious path uses GemmDet, the standard path plain Gemm.
func recGemm(det bool, tA, tB TransFlag, alpha float64, a, b, c *Matrix) {
	if det {
		GemmDet(tA, tB, alpha, a, b, c)
		return
	}
	Gemm(tA, tB, alpha, a, b, 1, c)
}

// trsmRec recursively splits the triangular system: solve one half,
// eliminate its contribution from the other half with a GEMM, solve the
// remaining half. The traversal order depends on the effective
// orientation (a transposed Lower solve walks like an Upper one).
func trsmRec(side Side, uplo UpLo, tA TransFlag, diag Diag, a, b *Matrix, det bool) {
	n := a.Rows
	if n <= trsmBlock {
		trsmUnblocked(side, uplo, tA, diag, a, b)
		return
	}
	n1 := n / 2
	n2 := n - n1
	a11 := a.viewVal(0, 0, n1, n1)
	a21 := a.viewVal(n1, 0, n2, n1)
	a12 := a.viewVal(0, n1, n1, n2)
	a22 := a.viewVal(n1, n1, n2, n2)
	lower := (uplo == Lower) == (tA == NoTrans)
	if side == Left {
		b1 := b.viewVal(0, 0, n1, b.Cols)
		b2 := b.viewVal(n1, 0, n2, b.Cols)
		if lower {
			trsmRec(side, uplo, tA, diag, &a11, &b1, det)
			if uplo == Lower {
				recGemm(det, NoTrans, NoTrans, -1, &a21, &b1, &b2)
			} else { // Upper/Trans: op(A)₂₁ = A₁₂ᵀ
				recGemm(det, Trans, NoTrans, -1, &a12, &b1, &b2)
			}
			trsmRec(side, uplo, tA, diag, &a22, &b2, det)
		} else {
			trsmRec(side, uplo, tA, diag, &a22, &b2, det)
			if uplo == Upper {
				recGemm(det, NoTrans, NoTrans, -1, &a12, &b2, &b1)
			} else { // Lower/Trans: op(A)₁₂ = A₂₁ᵀ
				recGemm(det, Trans, NoTrans, -1, &a21, &b2, &b1)
			}
			trsmRec(side, uplo, tA, diag, &a11, &b1, det)
		}
		return
	}
	b1 := b.viewVal(0, 0, b.Rows, n1)
	b2 := b.viewVal(0, n1, b.Rows, n2)
	if lower {
		trsmRec(side, uplo, tA, diag, &a22, &b2, det)
		if uplo == Lower {
			recGemm(det, NoTrans, NoTrans, -1, &b2, &a21, &b1)
		} else { // Upper/Trans: op(A)₂₁ = A₁₂ᵀ
			recGemm(det, NoTrans, Trans, -1, &b2, &a12, &b1)
		}
		trsmRec(side, uplo, tA, diag, &a11, &b1, det)
	} else {
		trsmRec(side, uplo, tA, diag, &a11, &b1, det)
		if uplo == Upper {
			recGemm(det, NoTrans, NoTrans, -1, &b1, &a12, &b2)
		} else { // Lower/Trans: op(A)₁₂ = A₂₁ᵀ
			recGemm(det, NoTrans, Trans, -1, &b1, &a21, &b2)
		}
		trsmRec(side, uplo, tA, diag, &a22, &b2, det)
	}
}

// trsmUnblocked is the substitution base case. Its zero-skip guards
// mirror reference dtrsm exactly: the non-transposed Left solve guards
// on the solved entry B(K,J) (a zero right-hand side stays exactly zero,
// skipping even the diagonal division), the transposed Left solve is an
// unguarded dot form, and the Right solves guard on the triangular
// multiplier (the IF (A(K,J).NE.ZERO) guards). GEMM-style kernels take
// no such shortcuts — see Gemm — but triangular solves inherit them from
// the reference BLAS.
func trsmUnblocked(side Side, uplo UpLo, tA TransFlag, diag Diag, a, b *Matrix) {
	n := a.Rows
	at := func(i, j int) float64 {
		if tA == NoTrans {
			return a.At(i, j)
		}
		return a.At(j, i)
	}
	if side == Left {
		if tA == NoTrans {
			// Scatter substitution with the reference B(K,J) != 0 guard:
			// divide the solved row, then eliminate it from the pending rows.
			scatter := func(k, lo, hi int) {
				bk := b.Row(k)
				if diag == NonUnit {
					d := a.At(k, k)
					for j := range bk {
						if bk[j] != 0 {
							bk[j] /= d
						}
					}
				}
				for i := lo; i < hi; i++ {
					t := a.At(i, k)
					bi := b.Row(i)
					for j := range bi {
						if v := bk[j]; v != 0 {
							bi[j] -= t * v
						}
					}
				}
			}
			if uplo == Lower {
				for k := 0; k < n; k++ {
					scatter(k, k+1, n)
				}
			} else {
				for k := n - 1; k >= 0; k-- {
					scatter(k, 0, k)
				}
			}
			return
		}
		// Transposed solve: the reference uses an unguarded dot form, so no
		// zero shortcuts are taken here either (NaN/Inf propagate freely).
		lower := uplo == Upper // op(A) = Aᵀ flips the orientation
		if lower {
			for i := 0; i < n; i++ {
				bi := b.Row(i)
				for k := 0; k < i; k++ {
					t := at(i, k)
					bk := b.Row(k)
					for j := range bi {
						bi[j] -= t * bk[j]
					}
				}
				if diag == NonUnit {
					d := at(i, i)
					for j := range bi {
						bi[j] /= d
					}
				}
			}
		} else {
			for i := n - 1; i >= 0; i-- {
				bi := b.Row(i)
				for k := i + 1; k < n; k++ {
					t := at(i, k)
					bk := b.Row(k)
					for j := range bi {
						bi[j] -= t * bk[j]
					}
				}
				if diag == NonUnit {
					d := at(i, i)
					for j := range bi {
						bi[j] /= d
					}
				}
			}
		}
		return
	}
	// side == Right: X·op(A) = B. Process columns of X in dependency
	// order; terms are guarded on the triangular multiplier op(A)(k,j),
	// matching the reference A-entry guards of the right-side solves.
	lower := (uplo == Lower) == (tA == NoTrans)
	if lower {
		// op(A) lower: x_j depends on x_k for k > j → go j = n-1 … 0.
		for j := n - 1; j >= 0; j-- {
			for i := 0; i < b.Rows; i++ {
				bi := b.Row(i)
				s := bi[j]
				for k := j + 1; k < n; k++ {
					if t := at(k, j); t != 0 {
						s -= bi[k] * t
					}
				}
				if diag == NonUnit {
					s /= at(j, j)
				}
				bi[j] = s
			}
		}
	} else {
		for j := 0; j < n; j++ {
			for i := 0; i < b.Rows; i++ {
				bi := b.Row(i)
				s := bi[j]
				for k := 0; k < j; k++ {
					if t := at(k, j); t != 0 {
						s -= bi[k] * t
					}
				}
				if diag == NonUnit {
					s /= at(j, j)
				}
				bi[j] = s
			}
		}
	}
}

// Trmm computes B = alpha·op(A)·B (side==Left) or B = alpha·B·op(A)
// (side==Right) in place with triangular A (BLAS dtrmm).
func Trmm(side Side, uplo UpLo, tA TransFlag, diag Diag, alpha float64, a, b *Matrix) {
	if a.Rows != a.Cols {
		panic("dense: Trmm A not square")
	}
	n := a.Rows
	if (side == Left && b.Rows != n) || (side == Right && b.Cols != n) {
		panic("dense: Trmm dimension mismatch")
	}
	lower := (uplo == Lower) == (tA == NoTrans)
	at := func(i, j int) float64 {
		if tA == NoTrans {
			return a.At(i, j)
		}
		return a.At(j, i)
	}
	if side == Left {
		if lower {
			for i := n - 1; i >= 0; i-- {
				bi := b.Row(i)
				var d float64 = 1
				if diag == NonUnit {
					d = at(i, i)
				}
				for j := range bi {
					bi[j] *= d
				}
				for k := 0; k < i; k++ {
					t := at(i, k)
					if t == 0 {
						continue
					}
					bk := b.Row(k)
					for j := range bi {
						bi[j] += t * bk[j]
					}
				}
				if alpha != 1 {
					for j := range bi {
						bi[j] *= alpha
					}
				}
			}
		} else {
			for i := 0; i < n; i++ {
				bi := b.Row(i)
				var d float64 = 1
				if diag == NonUnit {
					d = at(i, i)
				}
				for j := range bi {
					bi[j] *= d
				}
				for k := i + 1; k < n; k++ {
					t := at(i, k)
					if t == 0 {
						continue
					}
					bk := b.Row(k)
					for j := range bi {
						bi[j] += t * bk[j]
					}
				}
				if alpha != 1 {
					for j := range bi {
						bi[j] *= alpha
					}
				}
			}
		}
		return
	}
	// side == Right: B = alpha·B·op(A).
	if lower {
		// (B·L)_{ij} = Σ_{k≥j} B_{ik} L_{kj} → build columns left to right.
		for i := 0; i < b.Rows; i++ {
			bi := b.Row(i)
			for j := 0; j < n; j++ {
				var s float64
				if diag == NonUnit {
					s = bi[j] * at(j, j)
				} else {
					s = bi[j]
				}
				for k := j + 1; k < n; k++ {
					s += bi[k] * at(k, j)
				}
				bi[j] = alpha * s
			}
		}
	} else {
		for i := 0; i < b.Rows; i++ {
			bi := b.Row(i)
			for j := n - 1; j >= 0; j-- {
				var s float64
				if diag == NonUnit {
					s = bi[j] * at(j, j)
				} else {
					s = bi[j]
				}
				for k := 0; k < j; k++ {
					s += bi[k] * at(k, j)
				}
				bi[j] = alpha * s
			}
		}
	}
}
