package tlr

import (
	"fmt"

	"tlrchol/internal/dense"
)

// Trsm applies the TLR triangular solve of the tile Cholesky panel:
// A ← A·L⁻ᵀ where L is the dense lower-triangular Cholesky factor of
// the diagonal tile (b×b) and A is an off-diagonal tile.
//
// For a LowRank tile A = U·Vᵀ this touches only V:
// U·Vᵀ·L⁻ᵀ = U·(L⁻¹V)ᵀ, so V ← L⁻¹·V at cost O(b²k) instead of O(b³)
// (Section IV-B). Zero tiles are untouched; a Dense tile falls back to
// the dense kernel.
func Trsm(l *dense.Matrix, a *Tile) {
	switch a.Kind {
	case Zero:
	case LowRank:
		dense.Trsm(dense.Left, dense.Lower, dense.NoTrans, dense.NonUnit, 1, l, a.V)
	case Dense:
		dense.Trsm(dense.Right, dense.Lower, dense.Trans, dense.NonUnit, 1, l, a.D)
	}
}

// Syrk applies the TLR symmetric rank-k update of the tile Cholesky
// trailing submatrix on the diagonal: C ← C − A·Aᵀ with C the dense
// diagonal tile (lower triangle referenced) and A the panel tile.
//
// For LowRank A = U·Vᵀ: C −= U·(VᵀV)·Uᵀ, computed as W = VᵀV (k×k),
// T = U·W (b×k), then the symmetric update C −= T·Uᵀ restricted to the
// lower triangle, at O(bk² + b²k) flops.
func Syrk(a *Tile, c *dense.Matrix) { syrk(a, nil, c) }

// syrk is the body of Syrk and SyrkLDLt: C ← C − A·D·Aᵀ with D the
// diagonal of the factored diagonal tile ld, or D = I when ld is nil
// (Cholesky).
func syrk(a *Tile, ld, c *dense.Matrix) {
	switch a.Kind {
	case Zero:
		return
	case Dense:
		if ld == nil {
			dense.Syrk(dense.NoTrans, -1, a.D, 1, c)
			return
		}
		ws := dense.GetWorkspace()
		defer ws.Release()
		// C(lower) −= (A·D)·Aᵀ; GemmLowerNT computes the triangle only,
		// and A·D·Aᵀ is symmetric because D is diagonal.
		dense.GemmLowerNT(-1, weightCols(ld, a.D, ws), a.D, c)
		return
	}
	k := a.Rank()
	ws := dense.GetWorkspace()
	defer ws.Release()
	w := ws.Matrix(k, k)
	dense.Gemm(dense.Trans, dense.NoTrans, 1, a.V, weightRows(ld, a.V, ws), 0, w)
	t := ws.Matrix(a.Rows, k)
	dense.Gemm(dense.NoTrans, dense.NoTrans, 1, a.U, w, 0, t)
	// Lower triangle of C −= T·Uᵀ. T·Uᵀ = U·W·Uᵀ is symmetric because W
	// is, so only the triangle is computed (half the flops).
	dense.GemmLowerNT(-1, t, a.U, c)
}

// GemmConfig controls the low-rank accumulation in Gemm.
type GemmConfig struct {
	// Tol is the absolute Frobenius truncation threshold used when
	// recompressing the accumulated tile.
	Tol float64
	// MaxRank caps the stored rank after recompression (≤ 0: unlimited).
	MaxRank int
}

// Gemm applies the TLR Schur-complement update of the tile Cholesky:
// C ← C − A·Bᵀ where A = tile(m,k), B = tile(n,k) are panel tiles and
// C = tile(m,n) is an off-diagonal trailing tile. A and B are Zero or
// LowRank (off-diagonal tiles are always stored compressed); C may be
// Zero (fill-in is created, returning a new LowRank tile), LowRank
// (low-rank accumulation with QR+SVD recompression) or Dense (dense
// accumulation, used by tests and by edge configurations).
//
// It returns the resulting tile, which may be a different object than c
// when the representation changes (Zero → LowRank fill-in, or rank
// growth). The caller must store the result back.
func Gemm(a, b, c *Tile, cfg GemmConfig) *Tile { return gemm(a, b, nil, c, cfg) }

// gemm is the body of Gemm and GemmLDLt: C ← C − A·D·Bᵀ with D the
// diagonal of the factored diagonal tile ld, or D = I when ld is nil
// (Cholesky).
func gemm(a, b *Tile, ld *dense.Matrix, c *Tile, cfg GemmConfig) *Tile {
	if a.Kind == Dense || b.Kind == Dense {
		return gemmDenseOperands(a, b, ld, c, cfg)
	}
	if a.Kind == Zero || b.Kind == Zero {
		return c
	}
	// Contribution −A·D·Bᵀ = −U_a·(V_aᵀ·D·V_b)·U_bᵀ, a rank ≤
	// min(k_a,k_b) low-rank term with factors P = −U_a·W (rows×k_b) and
	// Q = U_b. The weight lands in the k_a×k_b core W.
	ka, kb := a.Rank(), b.Rank()
	ws := dense.GetWorkspace()
	defer ws.Release()
	w := ws.Matrix(ka, kb)
	dense.Gemm(dense.Trans, dense.NoTrans, 1, a.V, weightRows(ld, b.V, ws), 0, w)
	p := ws.Matrix(a.Rows, kb)
	dense.Gemm(dense.NoTrans, dense.NoTrans, -1, a.U, w, 0, p)
	q := b.U
	switch c.Kind {
	case Zero:
		// Fill-in: the tile was annihilated by compression but the Schur
		// update resurrects it (Section VI marks these in Algorithm 1).
		// RecompressWS never retains its inputs, so q needs no copy.
		return RecompressWS(p, q, cfg.Tol, cfg.MaxRank, ws)
	case LowRank:
		// C + P·Qᵀ via factor concatenation then recompression.
		u := hcat(ws, c.U, p)
		v := hcat(ws, c.V, q)
		return RecompressWS(u, v, cfg.Tol, cfg.MaxRank, ws)
	default: // Dense accumulation.
		dense.Gemm(dense.NoTrans, dense.Trans, 1, p, q, 1, c.D)
		return c
	}
}

// gemmDenseOperands handles the rarely-exercised mixed paths where a
// panel operand is stored dense. The product is formed densely, with
// the D weight (if any) applied to the right operand's value, and then
// folded into C in its own format.
func gemmDenseOperands(a, b *Tile, ld *dense.Matrix, c *Tile, cfg GemmConfig) *Tile {
	if a.Kind == Zero || b.Kind == Zero {
		return c
	}
	ws := dense.GetWorkspace()
	defer ws.Release()
	ad := denseValueWS(a, ws)
	// B·D as column scaling of B's value: (B·D)ᵀ = D·Bᵀ.
	bd := weightCols(ld, denseValueWS(b, ws), ws)
	prod := ws.Matrix(a.Rows, b.Rows)
	dense.Gemm(dense.NoTrans, dense.Trans, -1, ad, bd, 0, prod)
	switch c.Kind {
	case Dense:
		c.D.Add(1, prod)
		return c
	case Zero:
		return CompressWS(prod, cfg.Tol, cfg.MaxRank, ws)
	default:
		cd := denseValueWS(c, ws)
		cd.Add(1, prod)
		return CompressWS(cd, cfg.Tol, cfg.MaxRank, ws)
	}
}

// denseValueWS returns the tile's dense value: the stored matrix for a
// Dense tile (shared, not copied), or a workspace materialization for
// Zero/LowRank.
func denseValueWS(t *Tile, ws *dense.Workspace) *dense.Matrix {
	if t.Kind == Dense {
		return t.D
	}
	out := ws.Matrix(t.Rows, t.Cols)
	if t.Kind == LowRank {
		dense.Gemm(dense.NoTrans, dense.Trans, 1, t.U, t.V, 0, out)
	}
	return out
}

// AddInto computes c + s·(a·bᵀ-style tile value) densely; a helper for
// verification code that wants exact arithmetic regardless of format.
func AddInto(dst *dense.Matrix, s float64, t *Tile) {
	switch t.Kind {
	case Zero:
	case Dense:
		dst.Add(s, t.D)
	case LowRank:
		dense.Gemm(dense.NoTrans, dense.Trans, s, t.U, t.V, 1, dst)
	}
}

// hcat concatenates [a | b] into a workspace matrix via strided row
// copies; the result is valid until ws.Release.
func hcat(ws *dense.Workspace, a, b *dense.Matrix) *dense.Matrix {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tlr: hcat rows %d vs %d", a.Rows, b.Rows))
	}
	out := ws.Matrix(a.Rows, a.Cols+b.Cols)
	out.CopyBlock(0, 0, a)
	out.CopyBlock(0, a.Cols, b)
	return out
}
