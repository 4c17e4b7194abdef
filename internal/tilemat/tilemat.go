// Package tilemat provides the symmetric tiled-matrix container the TLR
// Cholesky factorization operates on: a lower-triangular grid of tiles
// where diagonal tiles are stored dense and off-diagonal tiles are
// compressed (LowRank or Zero). It also computes the rank/density
// statistics the paper reports (Fig 1) and verification helpers.
package tilemat

import (
	"context"
	"fmt"
	"math"
	"sync"

	"tlrchol/internal/dense"
	"tlrchol/internal/obs"
	"tlrchol/internal/runtime"
	"tlrchol/internal/tlr"
)

// Form records which factorization a tile matrix holds after it has
// been factored in place. Unfactored operators are FormCholesky (the
// zero value); solve paths branch on it to pick the right substitution
// kernels.
type Form int

const (
	// FormCholesky marks an unfactored operator or a Cholesky factor
	// (diagonal tiles hold L with the diagonal of L on the diagonal).
	FormCholesky Form = iota
	// FormLDLt marks an LDLᵀ factor: diagonal tiles pack the unit-lower
	// L in their strict lower triangle and D on the diagonal.
	FormLDLt
)

// Matrix is a symmetric matrix stored as a lower triangle of tiles.
// Tile (m,n) for m ≥ n covers rows [RowStart(m), RowEnd(m)) and columns
// [RowStart(n), RowEnd(n)).
type Matrix struct {
	// N is the matrix dimension, B the tile size, NT the number of tile
	// rows/columns: NT = ceil(N/B). The last tile may be smaller.
	N, B, NT int
	// Form identifies the factorization the matrix holds once factored
	// in place (FormCholesky for unfactored operators).
	Form Form
	// tiles[m][n] for n ≤ m.
	tiles [][]*tlr.Tile
}

// New creates an all-Zero tiled matrix (dense zero diagonal tiles).
func New(n, b int) *Matrix {
	if n <= 0 || b <= 0 {
		panic(fmt.Sprintf("tilemat: invalid sizes n=%d b=%d", n, b))
	}
	nt := (n + b - 1) / b
	m := &Matrix{N: n, B: b, NT: nt, tiles: make([][]*tlr.Tile, nt)}
	for i := 0; i < nt; i++ {
		m.tiles[i] = make([]*tlr.Tile, i+1)
		rows := m.TileRows(i)
		for j := 0; j <= i; j++ {
			if i == j {
				m.tiles[i][j] = tlr.NewDense(dense.NewMatrix(rows, rows))
			} else {
				m.tiles[i][j] = tlr.NewZero(rows, m.TileRows(j))
			}
		}
	}
	return m
}

// TileRows returns the number of rows of tile row m (B except possibly
// for the last row).
func (m *Matrix) TileRows(i int) int {
	if i == m.NT-1 {
		if r := m.N - i*m.B; r > 0 {
			return r
		}
	}
	return m.B
}

// RowStart returns the global row index where tile row i begins.
func (m *Matrix) RowStart(i int) int { return i * m.B }

// At returns tile (i,j) with j ≤ i.
func (m *Matrix) At(i, j int) *tlr.Tile {
	if j > i {
		panic(fmt.Sprintf("tilemat: At(%d,%d) above the diagonal", i, j))
	}
	return m.tiles[i][j]
}

// Set stores tile (i,j) with j ≤ i.
func (m *Matrix) Set(i, j int, t *tlr.Tile) {
	if j > i {
		panic(fmt.Sprintf("tilemat: Set(%d,%d) above the diagonal", i, j))
	}
	m.tiles[i][j] = t
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := &Matrix{N: m.N, B: m.B, NT: m.NT, Form: m.Form, tiles: make([][]*tlr.Tile, m.NT)}
	for i := range m.tiles {
		c.tiles[i] = make([]*tlr.Tile, len(m.tiles[i]))
		for j := range m.tiles[i] {
			c.tiles[i][j] = m.tiles[i][j].Clone()
		}
	}
	return c
}

// Assembler produces the dense sub-block [r0:r1) × [c0:c1) of the
// underlying operator; rbf.Problem.Block satisfies it.
type Assembler func(r0, r1, c0, c1 int) *dense.Matrix

// CompressionStats records what happened during compression; the
// "initial rank distribution" of Fig 1.
type CompressionStats struct {
	// DenseBytes is the storage the dense operator would need
	// (lower triangle), CompressedBytes what the TLR layout holds.
	DenseBytes, CompressedBytes int
	// TileOps counts compressed off-diagonal tiles by kind.
	ZeroTiles, LowRankTiles int
}

// FromAssembler builds the TLR matrix tile by tile: diagonal tiles are
// generated dense, off-diagonal tiles are generated then immediately
// compressed at the accuracy threshold tol, so the full dense operator
// never exists in memory at once. maxRank caps stored ranks (≤0: none).
func FromAssembler(n, b int, asm Assembler, tol float64, maxRank int) (*Matrix, CompressionStats) {
	return FromAssemblerComp(n, b, asm, tol, maxRank, tlr.SVDCompressor{})
}

// record accumulates one compressed off-diagonal tile into the stats.
func (st *CompressionStats) record(t *tlr.Tile) {
	st.CompressedBytes += t.Bytes()
	if t.Kind == tlr.Zero {
		st.ZeroTiles++
	} else {
		st.LowRankTiles++
	}
}

// add accumulates another build's stats.
func (st *CompressionStats) add(o CompressionStats) {
	st.DenseBytes += o.DenseBytes
	st.CompressedBytes += o.CompressedBytes
	st.ZeroTiles += o.ZeroTiles
	st.LowRankTiles += o.LowRankTiles
}

// FromAssemblerComp is FromAssembler with a pluggable tile compressor.
// Per-tile compressors (the deterministic SVD chain) keep the original
// one-tile-at-a-time memory profile; column-batched compressors (ARA)
// get all off-diagonal tiles of a tile column assembled at once so the
// sampling GEMMs amortize over the whole column, at the cost of one
// column of dense blocks resident instead of one tile.
//
// It is the parallel builder at one worker, which runs the jobs in
// buildJobs order on the calling goroutine. Only a panicking assembler
// or compressor can fail that run; the panic is re-raised here.
func FromAssemblerComp(n, b int, asm Assembler, tol float64, maxRank int, comp tlr.Compressor) (*Matrix, CompressionStats) {
	m, st, err := FromAssemblerParallelComp(n, b, asm, tol, maxRank, 1, comp)
	if err != nil {
		panic(err)
	}
	return m, st
}

// buildJob is one unit of a builder's work: diagonal tile j (i == j),
// off-diagonal tile (i,j), or all off-diagonal tiles of column j at
// once for a column-batched compressor (i < 0).
type buildJob struct{ i, j int }

// buildJobs lists a builder's jobs in the sequential order: per tile
// column, the diagonal tile, then its off-diagonal tiles.
func buildJobs(nt int, comp tlr.Compressor) []buildJob {
	_, batched := comp.(tlr.ColumnCompressor)
	var jobs []buildJob
	for j := 0; j < nt; j++ {
		jobs = append(jobs, buildJob{j, j})
		if !batched {
			for i := j + 1; i < nt; i++ {
				jobs = append(jobs, buildJob{i, j})
			}
		} else if j < nt-1 {
			jobs = append(jobs, buildJob{-1, j})
		}
	}
	return jobs
}

func (jb buildJob) String() string {
	switch {
	case jb.i == jb.j:
		return fmt.Sprintf("assemble(%d,%d)", jb.j, jb.j)
	case jb.i < 0:
		return fmt.Sprintf("compress-col(%d)", jb.j)
	}
	return fmt.Sprintf("compress(%d,%d)", jb.i, jb.j)
}

// build assembles job jb's tiles into m, compressing the off-diagonal
// ones, and returns its stats.
func (m *Matrix) build(jb buildJob, asm Assembler, tol float64, maxRank int, comp tlr.Compressor, ws *dense.Workspace) (st CompressionStats) {
	c0, c1 := m.RowStart(jb.j), m.RowStart(jb.j)+m.TileRows(jb.j)
	if jb.i == jb.j {
		diag := asm(c0, c1, c0, c1)
		m.tiles[jb.j][jb.j] = tlr.NewDense(diag)
		st.DenseBytes = 8 * diag.Rows * diag.Cols
		st.CompressedBytes = st.DenseBytes
		return st
	}
	lo, hi := jb.i, jb.i+1
	if jb.i < 0 {
		lo, hi = jb.j+1, m.NT
	}
	blocks, out := make([]*dense.Matrix, hi-lo), make([]*tlr.Tile, hi-lo)
	for r := range blocks {
		r0 := m.RowStart(lo + r)
		blocks[r] = asm(r0, r0+m.TileRows(lo+r), c0, c1)
		st.DenseBytes += 8 * blocks[r].Rows * blocks[r].Cols
	}
	if jb.i < 0 {
		comp.(tlr.ColumnCompressor).CompressColumnWS(jb.j, blocks, tol, maxRank, ws, out)
	} else {
		out[0] = comp.CompressWS(blocks[0], tol, maxRank, ws)
	}
	for r, t := range out {
		m.tiles[lo+r][jb.j] = t
		st.record(t)
	}
	return st
}

// FromDense compresses an explicit dense SPD matrix into TLR form.
func FromDense(a *dense.Matrix, b int, tol float64, maxRank int) (*Matrix, CompressionStats) {
	if a.Rows != a.Cols {
		panic("tilemat: FromDense requires a square matrix")
	}
	return FromAssembler(a.Rows, b, func(r0, r1, c0, c1 int) *dense.Matrix {
		return a.View(r0, c0, r1-r0, c1-c0).Clone()
	}, tol, maxRank)
}

// RankMatrix returns the off-diagonal rank structure: ranks[i][j] for
// j < i (and ranks[i][i] = TileRows(i) to mark the dense diagonal).
func (m *Matrix) RankMatrix() [][]int {
	out := make([][]int, m.NT)
	for i := 0; i < m.NT; i++ {
		out[i] = make([]int, i+1)
		for j := 0; j <= i; j++ {
			out[i][j] = m.tiles[i][j].Rank()
		}
	}
	return out
}

// RankStats summarizes the off-diagonal rank distribution as reported
// under the heatmaps of Fig 1: max, min over non-zero tiles, average
// over non-zero tiles, and matrix density (ratio of non-zero
// off-diagonal tiles; sparsity = 1 − density).
type RankStats struct {
	Max, Min  int
	Avg       float64
	Density   float64
	ZeroTiles int
	// Tiles is the number of off-diagonal tiles in the lower triangle.
	Tiles int
}

// Stats computes RankStats for the current tile contents.
func (m *Matrix) Stats() RankStats {
	st := RankStats{Min: math.MaxInt}
	var sum int
	for i := 1; i < m.NT; i++ {
		for j := 0; j < i; j++ {
			st.Tiles++
			r := m.tiles[i][j].Rank()
			if r == 0 {
				st.ZeroTiles++
				continue
			}
			sum += r
			if r > st.Max {
				st.Max = r
			}
			if r < st.Min {
				st.Min = r
			}
		}
	}
	nz := st.Tiles - st.ZeroTiles
	if nz > 0 {
		st.Avg = float64(sum) / float64(nz)
	}
	if st.Min == math.MaxInt {
		st.Min = 0
	}
	if st.Tiles > 0 {
		st.Density = float64(nz) / float64(st.Tiles)
	}
	return st
}

// ObserveRanks records the rank of every off-diagonal lower-triangle
// tile into h (Zero tiles observe as 0). Called before and after a
// factorization on two histograms, it captures the rank-growth picture
// of Fig 1 in the metrics registry.
func (m *Matrix) ObserveRanks(h *obs.Histogram) {
	for i := 1; i < m.NT; i++ {
		for j := 0; j < i; j++ {
			h.Observe(0, float64(m.tiles[i][j].Rank()))
		}
	}
}

// Bytes returns the current storage footprint of all tiles.
func (m *Matrix) Bytes() int {
	var s int
	for i := range m.tiles {
		for _, t := range m.tiles[i] {
			s += t.Bytes()
		}
	}
	return s
}

// ToDense materializes the full symmetric matrix (small problems only).
func (m *Matrix) ToDense() *dense.Matrix {
	out := dense.NewMatrix(m.N, m.N)
	for i := 0; i < m.NT; i++ {
		r0 := m.RowStart(i)
		for j := 0; j <= i; j++ {
			c0 := m.RowStart(j)
			d := m.tiles[i][j].ToDense()
			for r := 0; r < d.Rows; r++ {
				copy(out.Row(r0 + r)[c0:c0+d.Cols], d.Row(r))
			}
		}
	}
	out.SymmetrizeLower()
	return out
}

// LowerToDense materializes only the lower triangle (the Cholesky
// factor after factorization), leaving the strict upper triangle zero.
func (m *Matrix) LowerToDense() *dense.Matrix {
	out := dense.NewMatrix(m.N, m.N)
	for i := 0; i < m.NT; i++ {
		r0 := m.RowStart(i)
		for j := 0; j <= i; j++ {
			c0 := m.RowStart(j)
			d := m.tiles[i][j].ToDense()
			if i == j {
				d.TriLower()
			}
			for r := 0; r < d.Rows; r++ {
				copy(out.Row(r0 + r)[c0:c0+d.Cols], d.Row(r))
			}
		}
	}
	return out
}

// FrobError returns ‖m − a‖_F / ‖a‖_F comparing the TLR matrix against
// a dense reference (symmetric full storage).
func (m *Matrix) FrobError(a *dense.Matrix) float64 {
	return dense.FrobDiff(m.ToDense(), a) / a.FrobNorm()
}

// DenseTiles builds a fully dense tiled matrix (no compression): every
// tile, on and off the diagonal, is stored dense. This is the
// ScaLAPACK-style baseline layout the TLR format is compared against;
// the factorization kernels handle it through their dense paths.
func DenseTiles(a *dense.Matrix, b int) *Matrix {
	if a.Rows != a.Cols {
		panic("tilemat: DenseTiles requires a square matrix")
	}
	m := New(a.Rows, b)
	for i := 0; i < m.NT; i++ {
		r0 := m.RowStart(i)
		for j := 0; j <= i; j++ {
			c0 := m.RowStart(j)
			m.tiles[i][j] = tlr.NewDense(a.View(r0, c0, m.TileRows(i), m.TileRows(j)).Clone())
		}
	}
	return m
}

// FromAssemblerParallel is FromAssembler with the generation +
// compression of every tile run as independent tasks on the runtime's
// worker pool — the phase is embarrassingly parallel, and after the
// factorization optimizations of the paper it dominates the end-to-end
// time (Fig 11), so parallelizing it matters.
func FromAssemblerParallel(n, b int, asm Assembler, tol float64, maxRank, workers int) (*Matrix, CompressionStats, error) {
	return FromAssemblerParallelComp(n, b, asm, tol, maxRank, workers, tlr.SVDCompressor{})
}

// FromAssemblerParallelComp is FromAssemblerParallel with a pluggable
// compressor: one task per job of the sequential builder (buildJobs) —
// per tile for per-tile compressors; for a column-batched compressor
// (ARA) one per tile column's off-diagonal tiles, so each task runs one
// batched sampling pass. Results are identical to the sequential
// builder either way — the ARA sampling streams are position-seeded,
// not scheduling-dependent.
func FromAssemblerParallelComp(n, b int, asm Assembler, tol float64, maxRank, workers int, comp tlr.Compressor) (*Matrix, CompressionStats, error) {
	m := New(n, b)
	jobs := buildJobs(m.NT, comp)
	g := &runtime.Graph{LabelFunc: func(id int) string { return jobs[id].String() }}
	for range jobs {
		g.Add(0)
	}
	var mu sync.Mutex
	var st CompressionStats
	_, err := g.Run(context.TODO(), workers, func(id, _ int, ws *dense.Workspace) error {
		js := m.build(jobs[id], asm, tol, maxRank, comp, ws)
		mu.Lock()
		st.add(js)
		mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, st, err
	}
	return m, st, nil
}
