package aca

import (
	"tlrchol/internal/rbf"
	"tlrchol/internal/tilemat"
	"tlrchol/internal/tlr"
)

// GenStats aggregates the cost of generating a whole matrix in
// compressed form.
type GenStats struct {
	// Evaluations is the number of kernel entries computed;
	// DenseEvaluations what tile-wise dense assembly would have cost.
	Evaluations, DenseEvaluations int
	// ZeroTiles and LowRankTiles count the off-diagonal results.
	ZeroTiles, LowRankTiles int
}

// SavingsFactor is DenseEvaluations / Evaluations: how much kernel
// evaluation work compressed-direct generation saved.
func (g GenStats) SavingsFactor() float64 {
	if g.Evaluations == 0 {
		return 1
	}
	return float64(g.DenseEvaluations) / float64(g.Evaluations)
}

// FromProblem generates the TLR matrix of an RBF problem directly in
// compressed form: diagonal tiles are assembled dense (they stay
// dense anyway), and off-diagonal tiles between well-separated tile
// rows are built by ACA so only O((rows+cols)·rank) kernel entries are
// ever evaluated per tile. This implements the paper's future-work
// item end to end. maxRank caps stored ranks (≤ 0: unlimited).
//
// ACA's convergence theory holds only for admissible blocks: the gap
// between the two point clusters must be at least the larger cluster
// diameter. A near-field tile fails that test, and its few strong
// interactions hide in rows ACA's probes can miss, so it is assembled
// dense and compressed by SVD instead.
func FromProblem(p *rbf.Problem, b int, tol float64, maxRank int) (*tilemat.Matrix, GenStats) {
	n := p.N()
	m := tilemat.New(n, b)
	boxes := make([]rbf.Box, m.NT)
	for i := range boxes {
		boxes[i] = rbf.Bounds(p.Points[m.RowStart(i) : m.RowStart(i)+m.TileRows(i)])
	}
	var gs GenStats
	for i := 0; i < m.NT; i++ {
		r0 := m.RowStart(i)
		rows := m.TileRows(i)
		for j := 0; j <= i; j++ {
			c0 := m.RowStart(j)
			cols := m.TileRows(j)
			gs.DenseEvaluations += rows * cols
			if i == j {
				m.Set(i, j, tlr.NewDense(p.Block(r0, r0+rows, c0, c0+cols)))
				gs.Evaluations += rows * cols
				continue
			}
			var tile *tlr.Tile
			if admissible(boxes[i], boxes[j]) {
				var st Stats
				tile, st = Approximate(func(li, lj int) float64 {
					return p.Entry(r0+li, c0+lj)
				}, rows, cols, tol, maxRank)
				gs.Evaluations += st.Evaluations
			} else {
				tile = tlr.Compress(p.Block(r0, r0+rows, c0, c0+cols), tol, maxRank)
				gs.Evaluations += rows * cols
			}
			m.Set(i, j, tile)
			if tile.Kind == tlr.Zero {
				gs.ZeroTiles++
			} else {
				gs.LowRankTiles++
			}
		}
	}
	return m, gs
}

// admissible reports whether two point clusters are far enough apart
// for ACA: their gap is at least the larger diameter.
func admissible(a, b rbf.Box) bool {
	return a.Gap(b) >= max(a.Diameter(), b.Diameter())
}
