package experiments

import (
	"fmt"
	"strings"

	"tlrchol/internal/core"
	"tlrchol/internal/rbf"
	"tlrchol/internal/tilemat"
)

// Fig01Shape is the result for one point ordering and shape parameter
// of Fig 1: the rank distribution of the compressed RBF operator before
// and after the TLR Cholesky factorization.
type Fig01Shape struct {
	Order        string  // "hilbert" (the paper's) or "kd" (rbf.NewProblem's)
	DeltaFactor  float64 // multiple of the default shape δ = ½·min dist
	Delta        float64
	Initial      tilemat.RankStats
	Final        tilemat.RankStats
	InitialRanks [][]int
	FinalRanks   [][]int
}

// Fig01Result reproduces Fig 1 on a real (reduced-size) RBF operator:
// initial and final rank heatmaps with max/avg/min rank and density for
// a small and a large shape parameter, under the paper's Hilbert order
// and under the library's KD order (in that order, small shape first).
type Fig01Result struct {
	N, B   int
	Tol    float64
	Shapes []Fig01Shape
}

// Fig01 runs the experiment with real numerics. scale ∈ (0,1] shrinks
// the problem (1.0 → N=3000, B=150, NT=20).
func Fig01(scale float64) (*Fig01Result, error) {
	n := int(3000 * scale)
	if n < 600 {
		n = 600
	}
	pts := rbf.VirusPopulation(rbf.DefaultVirusConfig(n))
	if len(pts) < n {
		// The generator rounds to whole virus bodies.
		n = len(pts)
	}
	pts = pts[:n]
	b := n / 20
	res := &Fig01Result{N: n, B: b, Tol: PaperTol}
	base := rbf.DefaultShape(pts)
	for _, order := range []string{"hilbert", "kd"} {
		for _, factor := range []float64{1.5, 6} {
			kernel := rbf.Gaussian{Delta: factor * base, Nugget: 100 * PaperTol}
			prob := fig01Problem(order, append([]rbf.Point(nil), pts...), kernel)
			m, _ := tilemat.FromAssembler(n, b, prob.Block, PaperTol, 0)
			sh := Fig01Shape{
				Order:        order,
				DeltaFactor:  factor,
				Delta:        kernel.Delta,
				Initial:      m.Stats(),
				InitialRanks: m.RankMatrix(),
			}
			if _, err := core.Factorize(m, core.Options{Tol: PaperTol, Trim: true, Sequential: true}); err != nil {
				return nil, fmt.Errorf("fig01 %s factor=%g: %w", order, factor, err)
			}
			sh.Final = m.Stats()
			sh.FinalRanks = m.RankMatrix()
			res.Shapes = append(res.Shapes, sh)
		}
	}
	return res, nil
}

// fig01Problem orders pts for Fig 1: along the paper's Hilbert curve, or
// by the KD bisection rbf.NewProblem applies.
func fig01Problem(order string, pts []rbf.Point, kernel rbf.Kernel) *rbf.Problem {
	if order == "hilbert" {
		rbf.HilbertSort(pts)
		return &rbf.Problem{Points: pts, Kernel: kernel}
	}
	prob, _ := rbf.NewProblem(pts, kernel)
	return prob
}

// Heatmap renders a rank matrix as an ASCII heatmap: '.' for null
// tiles, digits 1-9 scaling with rank relative to the maximum, 'D' on
// the dense diagonal.
func Heatmap(ranks [][]int) string {
	max := 1
	for i, row := range ranks {
		for j, r := range row {
			if j < i && r > max {
				max = r
			}
		}
	}
	var sb strings.Builder
	for i, row := range ranks {
		for j := 0; j <= i; j++ {
			switch {
			case j == i:
				sb.WriteByte('D')
			case row[j] == 0:
				sb.WriteByte('.')
			default:
				d := 1 + 8*row[j]/max
				if d > 9 {
					d = 9
				}
				sb.WriteByte(byte('0' + d))
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Tables renders the figure.
func (r *Fig01Result) Tables() []Table {
	t := Table{
		Title:  fmt.Sprintf("Fig 1: rank distribution before/after TLR Cholesky (N=%d, B=%d, tol=%g)", r.N, r.B, r.Tol),
		Header: []string{"order", "shape", "stage", "density", "null", "low-rank", "max", "avg", "min(nonzero)"},
	}
	for _, s := range r.Shapes {
		for _, st := range []struct {
			stage string
			rs    tilemat.RankStats
		}{{"initial", s.Initial}, {"final", s.Final}} {
			t.Add(s.Order, fmt.Sprintf("%.2e", s.Delta), st.stage,
				fmt.Sprintf("%.3f", st.rs.Density),
				fmt.Sprintf("%d", st.rs.ZeroTiles), fmt.Sprintf("%d", st.rs.Tiles-st.rs.ZeroTiles),
				fmt.Sprintf("%d", st.rs.Max), fmt.Sprintf("%.1f", st.rs.Avg),
				fmt.Sprintf("%d", st.rs.Min))
		}
	}
	t.Note("density grows during factorization (fill-in); ranks decay sharply with distance to the diagonal")
	return []Table{t}
}
