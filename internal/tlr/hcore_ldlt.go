package tlr

import "tlrchol/internal/dense"

// LDLᵀ variants of the HCORE kernels. The factored diagonal tile packs
// the unit-lower L in its strict lower triangle and D on the diagonal
// (dense.Ldlt layout); the kernels below read both from the one matrix.
// The D weighting changes only the small inner products of each kernel
// — a k×k core gains a diagonal scale, the O(b²k) outer work is
// untouched — which is why the indefinite extension rides the same
// tile pipeline at the same leading-order cost.

// TrsmLDLt applies the LDLᵀ panel solve: A ← A·L⁻ᵀ·D⁻¹ with L unit
// lower and D the diagonal of ld. For a LowRank tile only V is touched:
// U·Vᵀ·L⁻ᵀ·D⁻¹ = U·(D⁻¹·L⁻¹·V)ᵀ, a unit-diag TRSM plus a row scale.
func TrsmLDLt(ld *dense.Matrix, a *Tile) {
	switch a.Kind {
	case Zero:
	case LowRank:
		dense.Trsm(dense.Left, dense.Lower, dense.NoTrans, dense.Unit, 1, ld, a.V)
		for i := 0; i < a.V.Rows; i++ {
			inv := 1 / ld.At(i, i)
			row := a.V.Row(i)
			for j := range row {
				row[j] *= inv
			}
		}
	case Dense:
		dense.Trsm(dense.Right, dense.Lower, dense.Trans, dense.Unit, 1, ld, a.D)
		for i := 0; i < a.D.Rows; i++ {
			row := a.D.Row(i)
			for j := range row {
				row[j] *= 1 / ld.At(j, j)
			}
		}
	}
}

// weightRows returns D·m (rows of m scaled by the diagonal of ld) in
// the workspace, or m itself when ld is nil (Cholesky: D = I).
func weightRows(ld, m *dense.Matrix, ws *dense.Workspace) *dense.Matrix {
	if ld == nil {
		return m
	}
	out := ws.Matrix(m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		d := ld.At(i, i)
		dst := out.Row(i)
		for j, v := range m.Row(i) {
			dst[j] = d * v
		}
	}
	return out
}

// weightCols returns m·D (columns of m scaled by the diagonal of ld) in
// the workspace, or m itself when ld is nil (Cholesky: D = I).
func weightCols(ld, m *dense.Matrix, ws *dense.Workspace) *dense.Matrix {
	if ld == nil {
		return m
	}
	out := ws.Matrix(m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		dst := out.Row(i)
		for j, v := range m.Row(i) {
			dst[j] = v * ld.At(j, j)
		}
	}
	return out
}

// SyrkLDLt applies the D-weighted symmetric update of the LDLᵀ
// trailing submatrix: C ← C − A·D·Aᵀ, with D read off the factored
// diagonal tile ld of the eliminated column. For LowRank A = U·Vᵀ the
// weight lands in the small core: C −= U·(VᵀDV)·Uᵀ.
func SyrkLDLt(a *Tile, ld *dense.Matrix, c *dense.Matrix) { syrk(a, ld, c) }

// GemmLDLt applies the D-weighted Schur update C ← C − A·D·Bᵀ where
// A = tile(m,k), B = tile(n,k) are solved panel tiles and D comes from
// the factored diagonal tile ld of column k. Like Gemm it returns the
// resulting tile, which may differ from c when the representation
// changes (fill-in or rank growth), and recompresses low-rank
// accumulation at cfg's threshold.
func GemmLDLt(a, b *Tile, ld *dense.Matrix, c *Tile, cfg GemmConfig) *Tile {
	return gemm(a, b, ld, c, cfg)
}
