// Package tlr implements the Tile Low-Rank (TLR) building blocks of the
// HiCMA library that the paper's framework is built on: a tile type that
// is either Dense, LowRank (U·Vᵀ) or Zero, compression of dense tiles at
// a fixed accuracy threshold, and the HCORE computational kernels
// (TRSM, SYRK, GEMM) that operate directly on the compressed
// representation, including low-rank accumulation with QR+SVD
// recompression and fill-in creation.
//
// The mixture of the three tile kinds within one matrix operation is the
// central data-structure challenge of the paper (Section V): RBF
// operators are dense on the diagonal, low-rank near it, and exactly
// zero far away once compressed at the application's accuracy threshold.
package tlr

import (
	"fmt"
	"math"

	"tlrchol/internal/dense"
	"tlrchol/internal/obs"
)

// Compression-outcome metrics: how often tiles compress (or round
// back) to exact zeros is the rank structure DAG trimming feeds on, so
// the kernels report it to the process-wide registry. Increments shard
// on the workspace's goroutine-local shard — zero allocation, no
// contention.
var (
	mCompressZero   = obs.Default.Counter("tlr.compress.zero")
	mCompressLR     = obs.Default.Counter("tlr.compress.lowrank")
	mRecompressCall = obs.Default.Counter("tlr.recompress.calls")
	mRecompressZero = obs.Default.Counter("tlr.recompress.zero")
)

// Kind discriminates the storage format of a tile.
type Kind int

const (
	// Zero is a tile whose contribution vanished during compression
	// (rank 0). It stores nothing.
	Zero Kind = iota
	// LowRank stores the tile as U·Vᵀ with U (rows×k) and V (cols×k).
	LowRank
	// Dense stores the full tile.
	Dense
)

func (k Kind) String() string {
	switch k {
	case Zero:
		return "zero"
	case LowRank:
		return "lowrank"
	case Dense:
		return "dense"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Tile is one block of a TLR matrix in one of the three formats.
type Tile struct {
	Kind       Kind
	Rows, Cols int
	// D is the dense storage (Kind == Dense).
	D *dense.Matrix
	// U, V are the low-rank factors, tile ≈ U·Vᵀ (Kind == LowRank).
	U, V *dense.Matrix
}

// NewZero returns a rank-0 tile of the given shape.
func NewZero(rows, cols int) *Tile {
	return &Tile{Kind: Zero, Rows: rows, Cols: cols}
}

// NewDense wraps d as a dense tile (no copy).
func NewDense(d *dense.Matrix) *Tile {
	return &Tile{Kind: Dense, Rows: d.Rows, Cols: d.Cols, D: d}
}

// NewLowRank wraps the factors u (rows×k) and v (cols×k) as a low-rank
// tile (no copy). A rank-0 factor pair degenerates to a Zero tile.
func NewLowRank(u, v *dense.Matrix) *Tile {
	if u.Cols != v.Cols {
		panic(fmt.Sprintf("tlr: factor rank mismatch %d vs %d", u.Cols, v.Cols))
	}
	if u.Cols == 0 {
		return NewZero(u.Rows, v.Rows)
	}
	return &Tile{Kind: LowRank, Rows: u.Rows, Cols: v.Rows, U: u, V: v}
}

// Rank returns the stored rank: 0 for Zero, k for LowRank and
// min(rows,cols) for Dense.
func (t *Tile) Rank() int {
	switch t.Kind {
	case Zero:
		return 0
	case LowRank:
		return t.U.Cols
	default:
		if t.Rows < t.Cols {
			return t.Rows
		}
		return t.Cols
	}
}

// Bytes returns the number of bytes of float64 payload the tile holds,
// the quantity the paper's memory-footprint accounting tracks.
func (t *Tile) Bytes() int {
	switch t.Kind {
	case Zero:
		return 0
	case LowRank:
		return 8 * (t.U.Rows*t.U.Cols + t.V.Rows*t.V.Cols)
	default:
		return 8 * t.Rows * t.Cols
	}
}

// ToDense materializes the tile as a dense matrix (always a fresh copy).
func (t *Tile) ToDense() *dense.Matrix {
	out := dense.NewMatrix(t.Rows, t.Cols)
	switch t.Kind {
	case Zero:
	case LowRank:
		dense.Gemm(dense.NoTrans, dense.Trans, 1, t.U, t.V, 0, out)
	default:
		out.CopyFrom(t.D)
	}
	return out
}

// Clone returns a deep copy of the tile.
func (t *Tile) Clone() *Tile {
	c := &Tile{Kind: t.Kind, Rows: t.Rows, Cols: t.Cols}
	if t.D != nil {
		c.D = t.D.Clone()
	}
	if t.U != nil {
		c.U = t.U.Clone()
	}
	if t.V != nil {
		c.V = t.V.Clone()
	}
	return c
}

// FrobNorm returns the Frobenius norm of the tile's value.
func (t *Tile) FrobNorm() float64 {
	switch t.Kind {
	case Zero:
		return 0
	case Dense:
		return t.D.FrobNorm()
	default:
		// ‖UVᵀ‖_F² = trace(VUᵀUVᵀ) = Σ_{ij} (UᵀU)_{ij}·(VᵀV)_{ij}.
		k := t.U.Cols
		utu := dense.NewMatrix(k, k)
		vtv := dense.NewMatrix(k, k)
		dense.Gemm(dense.Trans, dense.NoTrans, 1, t.U, t.U, 0, utu)
		dense.Gemm(dense.Trans, dense.NoTrans, 1, t.V, t.V, 0, vtv)
		var s float64
		for i := 0; i < k; i++ {
			for j := 0; j < k; j++ {
				s += utu.At(i, j) * vtv.At(i, j)
			}
		}
		if s < 0 {
			s = 0
		}
		return math.Sqrt(s)
	}
}

// Compress converts a dense block into a Zero or LowRank tile by
// truncated column-pivoted QR (dense.QRCPWS), the HiCMA fixed-accuracy
// compression. The QR stops once the largest remaining column 2-norm is
// ≤ tol, an absolute threshold. That is not a Frobenius test: the
// discarded part's Frobenius norm can exceed tol by a small factor.
// It never returns a Dense tile: off-diagonal tiles in the paper's TLR
// layout are always stored compressed so the kernel set stays closed
// under {Zero, LowRank} × Dense-diagonal. maxRank ≤ 0 means unlimited.
func Compress(a *dense.Matrix, tol float64, maxRank int) *Tile {
	ws := dense.GetWorkspace()
	defer ws.Release()
	return CompressWS(a, tol, maxRank, ws)
}

// CompressWS is Compress, with the same column-norm stopping rule,
// drawing its transient storage (the pivoted QR working set) from ws. The returned tile owns its factors and stays
// valid after ws.Release. An all-zero a returns the QR's rank-0 result
// without running the QR; a dense.ZeroView (a block the assembler proved
// null) returns it without reading a at all.
func CompressWS(a *dense.Matrix, tol float64, maxRank int, ws *dense.Workspace) *Tile {
	if a.IsZeroView() || allZero(a) {
		mCompressZero.Add(ws.Shard(), 1)
		return NewZero(a.Rows, a.Cols)
	}
	res := dense.QRCPWS(a, tol, maxRank, ws)
	if res.Rank == 0 {
		mCompressZero.Add(ws.Shard(), 1)
		return NewZero(a.Rows, a.Cols)
	}
	mCompressLR.Add(ws.Shard(), 1)
	// U = Q (rows×k), V = (R·Pᵀ)ᵀ (cols×k), copied out of the workspace.
	u := res.Q.Clone()
	v := dense.NewMatrix(a.Cols, res.Rank)
	for j, pj := range res.Perm {
		row := v.Row(pj)
		for i := range row {
			row[i] = res.R.At(i, j)
		}
	}
	return NewLowRank(u, v)
}

// allZero reports whether every entry of a is ±0. It ORs the bit
// patterns shifted left by one, which drops the sign bit, and tests once
// per row: ±0 leaves no bit, any other value (subnormal, Inf, NaN)
// leaves one.
func allZero(a *dense.Matrix) bool {
	for i := range a.Rows {
		row := a.Row(i)
		var or uint64
		for len(row) >= 8 {
			or |= math.Float64bits(row[0])<<1 | math.Float64bits(row[1])<<1 |
				math.Float64bits(row[2])<<1 | math.Float64bits(row[3])<<1 |
				math.Float64bits(row[4])<<1 | math.Float64bits(row[5])<<1 |
				math.Float64bits(row[6])<<1 | math.Float64bits(row[7])<<1
			row = row[8:]
		}
		for _, x := range row {
			or |= math.Float64bits(x) << 1
		}
		if or != 0 {
			return false
		}
	}
	return true
}

// Recompress rounds a low-rank representation (u·vᵀ) back to minimal
// rank at the accuracy threshold: QR both factors, SVD the small core
// Ru·Rvᵀ, truncate so the discarded singular values have Frobenius norm
// ≤ tol. This is the HCORE low-rank addition workhorse.
func Recompress(u, v *dense.Matrix, tol float64, maxRank int) *Tile {
	ws := dense.GetWorkspace()
	defer ws.Release()
	return RecompressWS(u, v, tol, maxRank, ws)
}

// RecompressWS is Recompress drawing all transients (the two QRs, the
// core SVD and intermediate products) from ws. It never retains u or v;
// the returned tile owns its factors and stays valid after ws.Release.
func RecompressWS(u, v *dense.Matrix, tol float64, maxRank int, ws *dense.Workspace) *Tile {
	mRecompressCall.Add(ws.Shard(), 1)
	k := u.Cols
	if k == 0 {
		mRecompressZero.Add(ws.Shard(), 1)
		return NewZero(u.Rows, v.Rows)
	}
	if k > u.Rows || k > v.Rows {
		// The stacked representation is wider than the tile: the QR path
		// does not apply, so materialize and compress directly.
		prod := ws.Matrix(u.Rows, v.Rows)
		dense.Gemm(dense.NoTrans, dense.Trans, 1, u, v, 0, prod)
		return CompressWS(prod, tol, maxRank, ws)
	}
	qu, ru := dense.QRWS(u, ws)
	qv, rv := dense.QRWS(v, ws)
	core := ws.Matrix(k, k)
	dense.Gemm(dense.NoTrans, dense.Trans, 1, ru, rv, 0, core)
	svd := dense.SVDWS(core, ws)
	newK := dense.TruncationRank(svd.S, tol)
	if maxRank > 0 && newK > maxRank {
		newK = maxRank
	}
	if newK == 0 {
		mRecompressZero.Add(ws.Shard(), 1)
		return NewZero(u.Rows, v.Rows)
	}
	// U = Qu·Us·diag(S), V = Qv·Vs.
	newU := dense.NewMatrix(u.Rows, newK)
	dense.Gemm(dense.NoTrans, dense.NoTrans, 1, qu, scaleCols(svd.U, svd.S[:newK], ws), 0, newU)
	vs := mview(svd.V, 0, 0, k, newK)
	newV := dense.NewMatrix(v.Rows, newK)
	dense.Gemm(dense.NoTrans, dense.NoTrans, 1, qv, &vs, 0, newV)
	return NewLowRank(newU, newV)
}

// mview builds a sub-matrix view as a value header (no heap traffic).
func mview(m *dense.Matrix, i, j, r, c int) dense.Matrix {
	return dense.Matrix{Rows: r, Cols: c, Stride: m.Stride, Data: m.Data[i*m.Stride+j:]}
}

// scaleCols returns the scratch matrix whose column j is s[j] times
// column j of m, for the leading len(s) columns of m.
func scaleCols(m *dense.Matrix, s []float64, ws *dense.Workspace) *dense.Matrix {
	out := ws.Matrix(m.Rows, len(s))
	for i := 0; i < m.Rows; i++ {
		src, dst := m.Row(i), out.Row(i)
		for j, sj := range s {
			dst[j] = src[j] * sj
		}
	}
	return out
}
