package tlrchol

// One benchmark per figure of the paper's evaluation section (plus the
// Algorithm 1 micro-benchmark). Each benchmark runs its experiment
// driver at a reduced scale and reports the headline metric of the
// figure as custom benchmark outputs, so `go test -bench=.` regenerates
// the whole evaluation. cmd/experiments prints the full tables at
// paper scale.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"tlrchol/internal/core"
	"tlrchol/internal/dense"
	"tlrchol/internal/experiments"
	"tlrchol/internal/ranks"
	"tlrchol/internal/rbf"
	"tlrchol/internal/tilemat"
	"tlrchol/internal/tlr"
	"tlrchol/internal/trim"
)

// benchScale keeps each figure driver in benchmark-friendly territory.
const benchScale = 0.12

func BenchmarkFig01RankDistribution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig01(0.4)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Shapes[0].Initial.Density, "density-sparse")
		b.ReportMetric(r.Shapes[1].Initial.Density, "density-dense")
		b.ReportMetric(float64(r.Shapes[1].Final.Max), "max-rank-final")
	}
}

func BenchmarkFig04ShapeParameter(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig04(benchScale)
		pts := r.Panels[0].Points
		b.ReportMetric(pts[0].TimeNoTrim/pts[0].TimeTrim, "trim-gain-sparse")
		last := pts[len(pts)-1]
		b.ReportMetric(last.TimeNoTrim/last.TimeTrim, "trim-gain-dense")
	}
}

func BenchmarkFig05TileSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig05(0.25)
		b.ReportMetric(float64(r.Optimum().B), "optimal-tile")
		b.ReportMetric(r.Optimum().Time, "best-time-s")
	}
}

func BenchmarkFig06DAGTrimming(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig06(benchScale)
		var maxGain float64
		for _, p := range r.Points {
			if g := p.TimeFull / p.TimeTrim; g > maxGain {
				maxGain = g
			}
		}
		b.ReportMetric(maxGain, "max-trim-gain")
		b.ReportMetric(r.Overheads[len(r.Overheads)-1].PctOfFactorization, "analysis-pct")
	}
}

func BenchmarkFig07Incremental(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig07(benchScale)
		b.ReportMetric(r.MaxBandSpeedup(), "band-gain")
		b.ReportMetric(r.MaxDiamondSpeedup(), "diamond-gain")
	}
}

func BenchmarkFig08VsLorapoShape(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig08(benchScale)
		var min, max = 1e300, 0.0
		for _, p := range r.Points {
			if p.Speedup < min {
				min = p.Speedup
			}
			if p.Speedup > max {
				max = p.Speedup
			}
		}
		b.ReportMetric(min, "min-speedup")
		b.ReportMetric(max, "max-speedup")
	}
}

func BenchmarkFig09VsLorapoShaheen(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig09(benchScale)
		b.ReportMetric(r.MaxSpeedup(), "max-speedup")
	}
}

func BenchmarkFig10VsLorapoFugaku(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig10(benchScale)
		b.ReportMetric(r.MaxSpeedup(), "max-speedup")
	}
}

func BenchmarkFig11TimeBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig11(benchScale)
		last := r.Points[len(r.Points)-1]
		b.ReportMetric(last.Compression/last.FactoOurs, "compr-over-facto-ours")
		b.ReportMetric(last.Compression/last.FactoLorapo, "compr-over-facto-lorapo")
	}
}

func BenchmarkFig12Accuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig12(benchScale)
		first, last := r.Points[0], r.Points[len(r.Points)-1]
		b.ReportMetric(last.Ours/first.Ours, "cost-ratio-1e9-vs-1e5")
	}
}

func BenchmarkFig13Roofline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig13(0.2)
		last := r.Points[len(r.Points)-1]
		b.ReportMetric(last.Efficiency, "efficiency")
		b.ReportMetric(last.NoTrim/last.Diamond, "total-gain")
	}
}

func BenchmarkFig14ExtremeScale(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig14(0.1)
		f := r.Flagship()
		b.ReportMetric(f.Time/60, "flagship-minutes")
	}
}

func BenchmarkAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Ablation(benchScale)
		if !r.AlwaysWins() {
			b.Fatal("headline conclusion flipped")
		}
		b.ReportMetric(r.Rows[0].Speedup, "baseline-speedup")
	}
}

func BenchmarkAlg1Analysis(b *testing.B) {
	model := ranks.FromShape(ranks.PaperGeometry(1_490_000, 4880, 3.7e-4, 1e-4))
	ra := modelRankArray{model}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := trim.Analyze(ra, trim.AllLocal)
		_, _, _, g := trim.TaskCounts(a)
		b.ReportMetric(float64(g), "gemm-tasks")
	}
}

type modelRankArray struct{ m ranks.Model }

func (r modelRankArray) NT() int           { return r.m.NTiles }
func (r modelRankArray) Rank(m, n int) int { return r.m.Rank(m, n) }

// Kernel-level benchmarks: the real numerical workhorses.

func benchTiles(b *testing.B, size, rank int) (*tlr.Tile, *tlr.Tile, *tlr.Tile) {
	rng := rand.New(rand.NewSource(1))
	mk := func() *tlr.Tile {
		return tlr.Compress(dense.RandomLowRank(rng, size, size, rank), 1e-10, 0)
	}
	return mk(), mk(), mk()
}

func BenchmarkHCoreGemmLR(b *testing.B) {
	a, bt, c0 := benchTiles(b, 256, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := c0.Clone()
		tlr.Gemm(a, bt, c, tlr.GemmConfig{Tol: 1e-8})
	}
}

// BenchmarkHCoreGemmSteady measures the steady-state Schur-update path:
// the output tile is recycled run over run, exactly as the factorization
// inner loop does, so allocs/op reflects the warm-workspace regime.
func BenchmarkHCoreGemmSteady(b *testing.B) {
	a, bt, c0 := benchTiles(b, 256, 16)
	c := c0.Clone()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c = tlr.Gemm(a, bt, c, tlr.GemmConfig{Tol: 1e-8})
	}
}

func BenchmarkHCoreSyrk(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	a, _, _ := benchTiles(b, 256, 16)
	c := dense.RandomSPD(rng, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tlr.Syrk(a, c)
	}
}

func BenchmarkCompressTile(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	a := dense.RandomLowRank(rng, 256, 256, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tlr.Compress(a, 1e-8, 0)
	}
}

func BenchmarkRecompress(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	u := dense.Random(rng, 256, 32)
	v := dense.Random(rng, 256, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tlr.Recompress(u, v, 1e-8, 0)
	}
}

// BenchmarkFactorizeRBF is the end-to-end Fig04-scale factorization:
// N=1024 points, tile size 128, trimming on — the wall-clock headline.
func BenchmarkFactorizeRBF(b *testing.B) {
	pts := rbf.VirusPopulation(rbf.DefaultVirusConfig(1024))[:1024]
	prob, _ := rbf.NewProblem(pts, rbf.Gaussian{Delta: 2 * rbf.DefaultShape(pts), Nugget: 1e-4})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m, _ := tilemat.FromAssembler(1024, 128, prob.Block, 1e-6, 0)
		b.StartTimer()
		if _, err := core.Factorize(m, core.Options{Tol: 1e-6, Trim: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// Dense BLAS-3 / LAPACK kernel benchmarks with GFlop/s reporting.

func benchGemmSize(b *testing.B, n int, tA, tB dense.TransFlag) {
	rng := rand.New(rand.NewSource(5))
	a := dense.Random(rng, n, n)
	bm := dense.Random(rng, n, n)
	c := dense.NewMatrix(n, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dense.Gemm(tA, tB, 1, a, bm, 0, c)
	}
	gflops := 2 * float64(n) * float64(n) * float64(n) * float64(b.N) / b.Elapsed().Seconds() / 1e9
	b.ReportMetric(gflops, "gflops")
}

func BenchmarkDenseGemm64(b *testing.B)    { benchGemmSize(b, 64, dense.NoTrans, dense.NoTrans) }
func BenchmarkDenseGemm256(b *testing.B)   { benchGemmSize(b, 256, dense.NoTrans, dense.NoTrans) }
func BenchmarkDenseGemmNT256(b *testing.B) { benchGemmSize(b, 256, dense.NoTrans, dense.Trans) }
func BenchmarkDenseGemmTN256(b *testing.B) { benchGemmSize(b, 256, dense.Trans, dense.NoTrans) }
func BenchmarkDenseGemmTT256(b *testing.B) { benchGemmSize(b, 256, dense.Trans, dense.Trans) }

func BenchmarkDenseSyrk256(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	n := 256
	a := dense.Random(rng, n, n)
	c := dense.NewMatrix(n, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dense.Syrk(dense.NoTrans, -1, a, 1, c)
	}
	gflops := float64(n) * float64(n+1) * float64(n) * float64(b.N) / b.Elapsed().Seconds() / 1e9
	b.ReportMetric(gflops, "gflops")
}

// BenchmarkDenseTrsm256 exercises the TLR hot combo: panel solve
// A·L⁻ᵀ with the diagonal Cholesky factor (Right/Lower/Trans).
func BenchmarkDenseTrsm256(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	n := 256
	l := dense.RandomSPD(rng, n)
	if err := dense.Potrf(l); err != nil {
		b.Fatal(err)
	}
	x := dense.Random(rng, n, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dense.Trsm(dense.Right, dense.Lower, dense.Trans, dense.NonUnit, 1, l, x)
	}
	gflops := float64(n) * float64(n) * float64(n) * float64(b.N) / b.Elapsed().Seconds() / 1e9
	b.ReportMetric(gflops, "gflops")
}

func BenchmarkDensePotrf512(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	n := 512
	spd := dense.RandomSPD(rng, n)
	work := dense.NewMatrix(n, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		work.CopyFrom(spd)
		if err := dense.Potrf(work); err != nil {
			b.Fatal(err)
		}
	}
	gflops := float64(n) * float64(n) * float64(n) / 3 * float64(b.N) / b.Elapsed().Seconds() / 1e9
	b.ReportMetric(gflops, "gflops")
}

func BenchmarkDenseQR256x32(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	a := dense.Random(rng, 256, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dense.QR(a)
	}
}

func BenchmarkDenseQRCP256(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	a := dense.RandomLowRank(rng, 256, 256, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dense.QRCP(a, 1e-8, 0)
	}
}

func BenchmarkDenseSVD64(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	a := dense.Random(rng, 64, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dense.SVD(a)
	}
}

// BenchmarkSolveLatency is the latency headline of the solve scheduler:
// sequential reference substitution vs the planned parallel executor,
// across narrow and blocked right-hand sides on two grid depths. The
// planned path's win scales with GOMAXPROCS (it degenerates to the
// sequential path at 1 worker, so single-CPU runs show parity, not a
// regression); on ≥ 4 CPUs the single-RHS latency drop is the number
// this PR exists for.
func BenchmarkSolveLatency(b *testing.B) {
	grids := []struct{ n, tile int }{
		{2048, 128}, // NT=16
		{4096, 128}, // NT=32
	}
	for _, g := range grids {
		pts := rbf.VirusPopulation(rbf.DefaultVirusConfig(g.n))[:g.n]
		prob, _ := rbf.NewProblem(pts, rbf.Gaussian{Delta: 4 * rbf.DefaultShape(pts), Nugget: 1e-6})
		m, _ := tilemat.FromAssembler(g.n, g.tile, prob.Block, 1e-8, 0)
		if _, err := core.Factorize(m, core.Options{Tol: 1e-8, Trim: true, Sequential: true}); err != nil {
			b.Fatal(err)
		}
		plan := core.BuildSolvePlan(m)
		rng := rand.New(rand.NewSource(21))
		for _, nrhs := range []int{1, 4, 16} {
			rhs := dense.Random(rng, g.n, nrhs)
			x := rhs.Clone()
			name := func(kind string) string {
				return fmt.Sprintf("%s/n=%d/nrhs=%d", kind, g.n, nrhs)
			}
			b.Run(name("Sequential"), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					x.CopyFrom(rhs)
					if err := core.SolveSequentialCtx(context.Background(), m, x); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(name("Planned"), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					x.CopyFrom(rhs)
					if err := plan.SolveCtx(context.Background(), m, x, 0); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkCompressSVD times truncated QRCP (tlr.CompressWS) over the
// off-diagonal tiles of one tile column of a real RBF operator, with
// allocs/op.
func benchCompressorColumn(b *testing.B) []*dense.Matrix {
	b.Helper()
	const n, tile = 1024, 256
	pts := rbf.VirusPopulation(rbf.DefaultVirusConfig(n))[:n]
	prob, _ := rbf.NewProblem(pts, rbf.Gaussian{Delta: 2 * rbf.DefaultShape(pts), Nugget: 1e-4})
	blocks := make([]*dense.Matrix, 0, n/tile-1)
	for i := tile; i < n; i += tile {
		blocks = append(blocks, prob.Block(i, i+tile, 0, tile))
	}
	return blocks
}

func BenchmarkCompressSVD(b *testing.B) {
	blocks := benchCompressorColumn(b)
	out := make([]*tlr.Tile, len(blocks))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws := dense.GetWorkspace()
		for j, blk := range blocks {
			out[j] = tlr.CompressWS(blk, 1e-6, 0, ws)
		}
		ws.Release()
	}
}

// BenchmarkFactorizeLDLt mirrors BenchmarkFactorizeRBF with the signed
// factorization on the same SPD operator, so the snapshot tracks the
// overhead of the D-weighted task kernels against plain Cholesky.
func BenchmarkFactorizeLDLt(b *testing.B) {
	pts := rbf.VirusPopulation(rbf.DefaultVirusConfig(1024))[:1024]
	prob, _ := rbf.NewProblem(pts, rbf.Gaussian{Delta: 2 * rbf.DefaultShape(pts), Nugget: 1e-4})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m, _ := tilemat.FromAssembler(1024, 128, prob.Block, 1e-6, 0)
		b.StartTimer()
		if _, err := core.FactorizeLDLt(m, core.Options{Tol: 1e-6, Trim: true}); err != nil {
			b.Fatal(err)
		}
	}
}
