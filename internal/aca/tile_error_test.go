package aca

import (
	"fmt"
	"testing"

	"tlrchol/internal/dense"
	"tlrchol/internal/rbf"
)

// TestFromProblemTileErrors checks every off-diagonal tile FromProblem
// generates against the exact kernel block, under both the paper's
// Hilbert order and the library's KD order. ACA accepts a tile once a
// few probe rows look converged; on a near-field tile those probes can
// miss the rows that interact, and the tile comes back wrong. No tile
// may miss the threshold by more than 10×.
func TestFromProblemTileErrors(t *testing.T) {
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
	for _, c := range []struct{ n, b int }{{1024, 128}, {2048, 128}, {1200, 150}, {1200, 100}} {
		for _, o := range orders {
			for _, factor := range []float64{1.5, 2.5} {
				t.Run(fmt.Sprintf("%s/n=%d/b=%d/delta=%g", o.name, c.n, c.b, factor), func(t *testing.T) {
					pts := rbf.VirusPopulation(rbf.DefaultVirusConfig(c.n))[:c.n]
					kernel := rbf.Gaussian{Delta: factor * rbf.DefaultShape(pts), Nugget: 100 * tol}
					p := o.problem(pts, kernel)
					m, gs := FromProblem(p, c.b, tol, 0)
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
					t.Logf("evaluation savings %.2f", gs.SavingsFactor())
					if gs.SavingsFactor() <= 1 {
						t.Errorf("generation saved no evaluations: %.2f", gs.SavingsFactor())
					}
				})
			}
		}
	}
}
