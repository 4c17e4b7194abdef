package tilemat

import (
	"fmt"
	"testing"

	"tlrchol/internal/dense"
	"tlrchol/internal/rbf"
)

// TestFromAssemblerParallelTileErrors checks every off-diagonal tile
// the parallel builder compresses against the exact kernel block, under
// both the paper's Hilbert order and the library's KD order. The
// truncated QRCP stops on the largest remaining column norm, not on the
// Frobenius norm of the discarded part, so a tile may miss tol by a
// small factor; none may miss it by more than 10×. The "svd" prefix of
// the case names is the compressor's spelling in serve specs.
func TestFromAssemblerParallelTileErrors(t *testing.T) {
	const tol = 1e-6
	orders := []struct {
		name    string
		problem func([]rbf.Point, rbf.Kernel) *rbf.Problem
	}{
		{"hilbert", func(pts []rbf.Point, k rbf.Kernel) *rbf.Problem {
			rbf.HilbertSort(pts)
			return &rbf.Problem{Points: pts, Kernel: k}
		}},
		{"kd", func(pts []rbf.Point, k rbf.Kernel) *rbf.Problem {
			p, _ := rbf.NewProblem(pts, k)
			return p
		}},
	}
	for _, o := range orders {
		for _, c := range []struct{ n, b int }{{1024, 128}, {2048, 128}, {1200, 150}, {1200, 100}} {
			for _, factor := range []float64{1.5, 2.5} {
				name := fmt.Sprintf("svd/%s/n=%d/b=%d/delta=%g", o.name, c.n, c.b, factor)
				t.Run(name, func(t *testing.T) {
					pts := rbf.VirusPopulation(rbf.DefaultVirusConfig(c.n))[:c.n]
					kernel := rbf.Gaussian{Delta: factor * rbf.DefaultShape(pts), Nugget: 100 * tol}
					p := o.problem(pts, kernel)
					m, _, err := FromAssemblerParallel(c.n, c.b, p.Block, tol, 0, 2)
					if err != nil {
						t.Fatal(err)
					}
					bad, worst := 0, 0.0
					for i := 0; i < m.NT; i++ {
						r0, r1 := m.RowStart(i), m.RowStart(i)+m.TileRows(i)
						for j := 0; j < i; j++ {
							c0, c1 := m.RowStart(j), m.RowStart(j)+m.TileRows(j)
							e := dense.FrobDiff(m.At(i, j).ToDense(), p.Block(r0, r1, c0, c1))
							worst = max(worst, e)
							if e > 10*tol {
								bad++
							}
						}
					}
					if bad > 0 {
						t.Errorf("%d tiles exceed 10·tol (worst error %g)", bad, worst)
					}
					t.Logf("worst tile error %.3g", worst)
				})
			}
		}
	}
}
