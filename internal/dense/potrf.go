package dense

import (
	"errors"
	"fmt"
	"math"
)

// ErrNotPositiveDefinite is returned by Potrf when a non-positive pivot
// is encountered, meaning the input is not (numerically) symmetric
// positive-definite.
var ErrNotPositiveDefinite = errors.New("dense: matrix is not positive definite")

// potrfBlockSize is the panel width above which Potrf switches to the
// blocked algorithm: the BLAS-3 trailing updates have far better cache
// locality than the unblocked column sweep.
const potrfBlockSize = 96

// Potrf computes the Cholesky factorization A = L·Lᵀ of a symmetric
// positive-definite matrix in place, referencing and overwriting only the
// lower triangle (LAPACK dpotrf, uplo='L'). The strictly-upper triangle
// is left untouched. Large matrices use the right-looking blocked
// algorithm (panel POTRF + TRSM + SYRK trailing update).
func Potrf(a *Matrix) error {
	if a.Rows >= 2*potrfBlockSize {
		return PotrfBlocked(a, potrfBlockSize)
	}
	return potrfUnblocked(a)
}

// PotrfBlocked is the right-looking blocked Cholesky with the given
// panel width: for each panel, factor the diagonal block, solve the
// sub-panel with TRSM, and update the trailing submatrix with SYRK and
// GEMM — the textbook LAPACK dpotrf structure.
func PotrfBlocked(a *Matrix, nb int) error {
	if a.Rows != a.Cols {
		panic("dense: PotrfBlocked A not square")
	}
	if nb < 1 {
		nb = potrfBlockSize
	}
	n := a.Rows
	for k := 0; k < n; k += nb {
		kb := nb
		if k+kb > n {
			kb = n - k
		}
		akk := a.View(k, k, kb, kb)
		if err := potrfUnblocked(akk); err != nil {
			return err
		}
		if k+kb >= n {
			break
		}
		rest := n - k - kb
		panel := a.View(k+kb, k, rest, kb)
		Trsm(Right, Lower, Trans, NonUnit, 1, akk, panel)
		// Trailing update on the lower triangle only: diagonal blocks via
		// SYRK, sub-diagonal blocks via GEMM.
		for i := k + kb; i < n; i += nb {
			ib := nb
			if i+ib > n {
				ib = n - i
			}
			pi := a.View(i, k, ib, kb)
			Syrk(NoTrans, -1, pi, 1, a.View(i, i, ib, ib))
			if rows := n - i - ib; rows > 0 {
				Gemm(NoTrans, Trans, -1, a.View(i+ib, k, rows, kb), pi, 1, a.View(i+ib, i, rows, ib))
			}
		}
	}
	return nil
}

func potrfUnblocked(a *Matrix) error {
	if a.Rows != a.Cols {
		panic("dense: Potrf A not square")
	}
	n := a.Rows
	for j := 0; j < n; j++ {
		rowJ := a.Data[j*a.Stride:]
		d := rowJ[j] - dot(rowJ[:j], rowJ[:j])
		if d <= 0 || math.IsNaN(d) {
			return fmt.Errorf("%w: pivot %d is %g", ErrNotPositiveDefinite, j, d)
		}
		d = math.Sqrt(d)
		rowJ[j] = d
		inv := 1 / d
		for i := j + 1; i < n; i++ {
			rowI := a.Data[i*a.Stride:]
			rowI[j] = (rowI[j] - dot(rowI[:j], rowJ[:j])) * inv
		}
	}
	return nil
}

// CholSolve solves A·x = b given the Cholesky factor L (lower triangle of
// l) computed by Potrf, overwriting b with the solution. b is treated as
// a matrix of right-hand sides.
func CholSolve(l, b *Matrix) {
	Trsm(Left, Lower, NoTrans, NonUnit, 1, l, b)
	Trsm(Left, Lower, Trans, NonUnit, 1, l, b)
}

// LowerTimesTranspose returns L·Lᵀ using only the lower triangle of l,
// for verifying Cholesky factorizations.
func LowerTimesTranspose(l *Matrix) *Matrix {
	n := l.Rows
	out := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		li := l.Row(i)
		for j := 0; j <= i; j++ {
			lj := l.Row(j)
			var s float64
			for k := 0; k <= j; k++ {
				s += li[k] * lj[k]
			}
			out.Set(i, j, s)
			out.Set(j, i, s)
		}
	}
	return out
}
