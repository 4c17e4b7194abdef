// Package dense provides the dense linear-algebra kernels that underpin
// the tile low-rank (TLR) Cholesky framework: BLAS-3 style operations
// (GEMM, SYRK, TRSM, TRMM), LAPACK-style factorizations (POTRF,
// Householder QR, truncated column-pivoted QR) and a one-sided Jacobi
// SVD. All routines are written from scratch, so the framework has no
// external dependencies. Matrix, the type every routine takes and
// returns, is row-major; QR, QRCP and the SVD, whose inner loops walk
// columns, work on a column-major copy in workspace scratch.
//
// Conventions follow LAPACK: matrices are dense, lower-triangular
// factorizations store the factor in the lower part, and all kernels
// operate in place where the corresponding BLAS/LAPACK routine does.
package dense

import (
	"fmt"
	"math"
	"math/rand"
)

// Matrix is a dense row-major matrix. Element (i,j) lives at
// Data[i*Stride+j]. A Matrix may be a view into a larger allocation, in
// which case Stride exceeds Cols.
type Matrix struct {
	Rows, Cols int
	Stride     int
	Data       []float64
}

// NewMatrix allocates a zeroed r×c matrix.
func NewMatrix(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("dense: negative dimension %dx%d", r, c))
	}
	return &Matrix{Rows: r, Cols: c, Stride: c, Data: make([]float64, r*c)}
}

// zeroSlab backs every ZeroView: 2 MB of zeros, enough for a 512×512
// block, that nothing ever writes.
var zeroSlab [1 << 18]float64

// ZeroView returns an r×c matrix of zeros. When it has entries and they
// fit the shared zero slab, it is a read-only view of that slab: no
// allocation, no clearing, and a write through it would corrupt every
// other view, so Clone it before writing. Any other shape gets a fresh
// NewMatrix. IsZeroView tells the two apart.
func ZeroView(r, c int) *Matrix {
	if r <= 0 || c <= 0 || r*c > len(zeroSlab) {
		return NewMatrix(r, c)
	}
	return &Matrix{Rows: r, Cols: c, Stride: c, Data: zeroSlab[: r*c : r*c]}
}

// IsZeroView reports in O(1) whether m's storage starts at the shared
// zero slab, as every read-only ZeroView's does. Such a matrix is all
// zero and must not be written.
func (m *Matrix) IsZeroView() bool {
	return cap(m.Data) > 0 && &m.Data[:1][0] == &zeroSlab[0]
}

// FromSlice wraps data (row-major, length r*c) in a Matrix without copying.
func FromSlice(r, c int, data []float64) *Matrix {
	if len(data) != r*c {
		panic(fmt.Sprintf("dense: FromSlice length %d != %d*%d", len(data), r, c))
	}
	return &Matrix{Rows: r, Cols: c, Stride: c, Data: data}
}

// At returns element (i,j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Stride+j] }

// Set assigns element (i,j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Stride+j] = v }

// Row returns the j-range slice of row i (valid for Cols elements).
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Stride : i*m.Stride+m.Cols] }

// View returns a sub-matrix view of size r×c with upper-left corner (i,j).
// The view shares storage with m.
func (m *Matrix) View(i, j, r, c int) *Matrix {
	if i < 0 || j < 0 || i+r > m.Rows || j+c > m.Cols {
		panic(fmt.Sprintf("dense: view (%d,%d,%d,%d) out of %dx%d", i, j, r, c, m.Rows, m.Cols))
	}
	return &Matrix{Rows: r, Cols: c, Stride: m.Stride, Data: m.Data[i*m.Stride+j:]}
}

// CopyBlock copies src into m with top-left corner (i0,j0), one
// strided row-copy per row.
func (m *Matrix) CopyBlock(i0, j0 int, src *Matrix) {
	if i0 < 0 || j0 < 0 || i0+src.Rows > m.Rows || j0+src.Cols > m.Cols {
		panic(fmt.Sprintf("dense: CopyBlock (%d,%d) %dx%d out of %dx%d",
			i0, j0, src.Rows, src.Cols, m.Rows, m.Cols))
	}
	for i := 0; i < src.Rows; i++ {
		dst := m.Data[(i0+i)*m.Stride+j0 : (i0+i)*m.Stride+j0+src.Cols]
		copy(dst, src.Row(i))
	}
}

// viewVal is View without bounds checks, returning the header by value.
// The blocked BLAS-3 kernels use it so sub-matrix headers stay on the
// caller's stack instead of heap-allocating on every block (View cannot
// be inlined past its panic formatting).
func (m *Matrix) viewVal(i, j, r, c int) Matrix {
	return Matrix{Rows: r, Cols: c, Stride: m.Stride, Data: m.Data[i*m.Stride+j:]}
}

// RowBlock returns a full-width view of rows [i0, i0+r) as a value
// header — the allocation-free sibling of View for hot paths that keep
// the header in caller-owned storage (the planned solve executor builds
// its per-tile-row segment table with it once per run).
func (m *Matrix) RowBlock(i0, r int) Matrix {
	if i0 < 0 || i0+r > m.Rows {
		panic(fmt.Sprintf("dense: RowBlock (%d,%d) out of %d rows", i0, r, m.Rows))
	}
	return Matrix{Rows: r, Cols: m.Cols, Stride: m.Stride, Data: m.Data[i0*m.Stride:]}
}

// Clone returns a deep copy of m with a compact stride.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		copy(out.Row(i), m.Row(i))
	}
	return out
}

// CopyFrom copies src into m; dimensions must match.
func (m *Matrix) CopyFrom(src *Matrix) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic(fmt.Sprintf("dense: CopyFrom %dx%d <- %dx%d", m.Rows, m.Cols, src.Rows, src.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		copy(m.Row(i), src.Row(i))
	}
}

// Zero clears all elements of m.
func (m *Matrix) Zero() {
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] = 0
		}
	}
}

// Scale multiplies every element by alpha.
func (m *Matrix) Scale(alpha float64) {
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] *= alpha
		}
	}
}

// Add accumulates alpha*b into m.
func (m *Matrix) Add(alpha float64, b *Matrix) {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		panic("dense: Add dimension mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		mr, br := m.Row(i), b.Row(i)
		for j := range mr {
			mr[j] += alpha * br[j]
		}
	}
}

// T returns a newly allocated transpose of m.
func (m *Matrix) T() *Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			out.Data[j*out.Stride+i] = v
		}
	}
	return out
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Random returns an r×c matrix with entries uniform in [-1,1) drawn from rng.
func Random(rng *rand.Rand, r, c int) *Matrix {
	m := NewMatrix(r, c)
	for i := range m.Data[:r*c] {
		m.Data[i] = 2*rng.Float64() - 1
	}
	return m
}

// RandomSPD returns a random symmetric positive-definite n×n matrix:
// B·Bᵀ + n·I, which is comfortably well conditioned for testing.
func RandomSPD(rng *rand.Rand, n int) *Matrix {
	b := Random(rng, n, n)
	a := NewMatrix(n, n)
	Gemm(NoTrans, Trans, 1, b, b, 0, a)
	for i := 0; i < n; i++ {
		a.Set(i, i, a.At(i, i)+float64(n))
	}
	return a
}

// RandomLowRank returns an r×c matrix of exact rank k (assuming k ≤ min(r,c)).
func RandomLowRank(rng *rand.Rand, r, c, k int) *Matrix {
	u := Random(rng, r, k)
	v := Random(rng, c, k)
	out := NewMatrix(r, c)
	Gemm(NoTrans, Trans, 1, u, v, 0, out)
	return out
}

// FrobNorm returns the Frobenius norm of m.
func (m *Matrix) FrobNorm() float64 {
	var s float64
	for i := 0; i < m.Rows; i++ {
		for _, v := range m.Row(i) {
			s += v * v
		}
	}
	return math.Sqrt(s)
}

// MaxAbs returns the largest absolute entry of m.
func (m *Matrix) MaxAbs() float64 {
	var s float64
	for i := 0; i < m.Rows; i++ {
		for _, v := range m.Row(i) {
			if a := math.Abs(v); a > s {
				s = a
			}
		}
	}
	return s
}

// FrobDiff returns ‖a−b‖_F. Panics on dimension mismatch.
func FrobDiff(a, b *Matrix) float64 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("dense: FrobDiff dimension mismatch")
	}
	var s float64
	for i := 0; i < a.Rows; i++ {
		ar, br := a.Row(i), b.Row(i)
		for j := range ar {
			d := ar[j] - br[j]
			s += d * d
		}
	}
	return math.Sqrt(s)
}

// SymmetrizeLower mirrors the strictly-lower triangle onto the upper
// triangle, making m exactly symmetric.
func (m *Matrix) SymmetrizeLower() {
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < i; j++ {
			m.Set(j, i, m.At(i, j))
		}
	}
}

// TriLower zeroes the strictly-upper triangle in place.
func (m *Matrix) TriLower() {
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := i + 1; j < m.Cols; j++ {
			row[j] = 0
		}
	}
}
