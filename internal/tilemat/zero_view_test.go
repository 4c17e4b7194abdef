package tilemat_test

import (
	"math"
	"sync/atomic"
	"testing"

	"tlrchol/internal/core"
	"tlrchol/internal/dense"
	"tlrchol/internal/rbf"
	"tlrchol/internal/tilemat"
)

// TestZeroViewsStayZero runs the pipeline over the factor-rank benchmark
// geometry (N=4096, tiles of 128) on 4 workers, where Block returns 436
// proven-zero blocks as read-only views of one shared zero slab:
// compress, factorize, solve one column. No stage may write through a
// view, so afterwards a maximal zero view must still read all ±0. Under
// the race detector a write from two workers is also a reported race.
func TestZeroViewsStayZero(t *testing.T) {
	const n, b, tol = 4096, 128, 1e-6
	pts := rbf.VirusPopulation(rbf.DefaultVirusConfig(n))[:n]
	p, _ := rbf.NewProblem(pts, rbf.Gaussian{Delta: 2 * rbf.DefaultShape(pts), Nugget: 100 * tol})
	var views atomic.Int64
	m, _, err := tilemat.FromAssemblerParallel(n, b, func(r0, r1, c0, c1 int) *dense.Matrix {
		blk := p.Block(r0, r1, c0, c1)
		if blk.IsZeroView() {
			views.Add(1)
		}
		return blk
	}, tol, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := views.Load(); got != 436 {
		t.Fatalf("Block returned %d zero views, want 436", got)
	}
	if _, err := core.Factorize(m, core.Options{Tol: tol, Trim: true, Workers: 4}); err != nil {
		t.Fatal(err)
	}
	x := dense.NewMatrix(n, 1)
	for i := range x.Data {
		x.Data[i] = 1
	}
	core.Solve(m, x)
	for i, v := range x.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("solution entry %d is %g", i, v)
		}
	}
	z := dense.ZeroView(512, 512)
	if !z.IsZeroView() {
		t.Fatalf("a 512x512 block should fit the shared zero slab")
	}
	for i, v := range z.Data {
		if math.Float64bits(v)<<1 != 0 {
			t.Fatalf("the shared zero slab holds %g at %d after the pipeline", v, i)
		}
	}
}
