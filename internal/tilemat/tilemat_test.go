package tilemat

import (
	"math"
	"math/rand"
	"testing"

	"tlrchol/internal/dense"
	"tlrchol/internal/rbf"
	"tlrchol/internal/tlr"
)

func rbfProblem(n int, delta float64) *rbf.Problem {
	pts := rbf.VirusPopulation(rbf.DefaultVirusConfig(n))
	prob, _ := rbf.NewProblem(pts[:n], rbf.Gaussian{Delta: delta})
	return prob
}

func TestNewLayout(t *testing.T) {
	m := New(100, 32) // 4 tiles: 32,32,32,4
	if m.NT != 4 {
		t.Fatalf("NT=%d", m.NT)
	}
	if m.TileRows(0) != 32 || m.TileRows(3) != 4 {
		t.Fatalf("tile rows wrong: %d %d", m.TileRows(0), m.TileRows(3))
	}
	if m.At(0, 0).Kind != tlr.Dense {
		t.Fatalf("diagonal must be dense")
	}
	if m.At(3, 1).Kind != tlr.Zero {
		t.Fatalf("off-diagonal starts Zero")
	}
	if m.At(3, 1).Rows != 4 || m.At(3, 1).Cols != 32 {
		t.Fatalf("edge tile shape wrong: %dx%d", m.At(3, 1).Rows, m.At(3, 1).Cols)
	}
}

func TestAtAboveDiagonalPanics(t *testing.T) {
	m := New(64, 32)
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	m.At(0, 1)
}

func TestFromDenseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := dense.RandomSPD(rng, 96)
	m, st := FromDense(a, 32, 1e-9, 0)
	if err := m.FrobError(a); err > 1e-7 {
		t.Fatalf("compression error %g", err)
	}
	if st.ZeroTiles+st.LowRankTiles != 3 { // 3 off-diagonal tiles in 3x3 grid
		t.Fatalf("tile accounting wrong: %+v", st)
	}
	if st.CompressedBytes <= 0 || st.DenseBytes <= 0 {
		t.Fatalf("byte accounting missing: %+v", st)
	}
}

func TestFromAssemblerMatchesFromDense(t *testing.T) {
	prob := rbfProblem(256, 0.02)
	a := prob.Dense()
	m1, _ := FromDense(a, 64, 1e-6, 0)
	m2, _ := FromAssembler(256, 64, prob.Block, 1e-6, 0)
	if dense.FrobDiff(m1.ToDense(), m2.ToDense()) > 1e-9*a.FrobNorm() {
		t.Fatalf("assembler path differs from dense path")
	}
}

func TestRBFCompressionCreatesMixture(t *testing.T) {
	// Small shape parameter → most interactions vanish → mixture of
	// dense diagonal, some LR, many Zero tiles (the paper's Section V).
	prob := rbfProblem(512, 1e-3)
	m, st := FromAssembler(512, 64, prob.Block, 1e-4, 0)
	if st.ZeroTiles == 0 {
		t.Fatalf("tight shape parameter should create zero tiles, got %+v", st)
	}
	stats := m.Stats()
	if stats.Density >= 1 {
		t.Fatalf("expected sparsity, density=%g", stats.Density)
	}
	// Larger shape parameter → denser compressed matrix.
	prob2 := rbfProblem(512, 0.15)
	_, st2 := FromAssembler(512, 64, prob2.Block, 1e-4, 0)
	if st2.ZeroTiles > st.ZeroTiles {
		t.Fatalf("density should increase with shape parameter: %d vs %d zero tiles",
			st2.ZeroTiles, st.ZeroTiles)
	}
}

func TestStats(t *testing.T) {
	m := New(128, 32) // 4x4 tiles, 6 off-diagonal
	rng := rand.New(rand.NewSource(2))
	m.Set(1, 0, tlr.Compress(dense.RandomLowRank(rng, 32, 32, 3), 1e-10, 0))
	m.Set(2, 0, tlr.Compress(dense.RandomLowRank(rng, 32, 32, 5), 1e-10, 0))
	st := m.Stats()
	if st.Tiles != 6 || st.ZeroTiles != 4 {
		t.Fatalf("tile counts wrong: %+v", st)
	}
	if st.Max != 5 || st.Min != 3 || st.Avg != 4 {
		t.Fatalf("rank stats wrong: %+v", st)
	}
	if st.Density != 2.0/6.0 {
		t.Fatalf("density wrong: %g", st.Density)
	}
}

func TestStatsEmptyOffDiagonal(t *testing.T) {
	m := New(32, 32) // single tile, no off-diagonal
	st := m.Stats()
	if st.Tiles != 0 || st.Density != 0 || st.Max != 0 || st.Min != 0 {
		t.Fatalf("degenerate stats wrong: %+v", st)
	}
}

func TestBytesShrinkWithCompression(t *testing.T) {
	prob := rbfProblem(512, 1e-3)
	m, st := FromAssembler(512, 64, prob.Block, 1e-4, 0)
	if m.Bytes() != st.CompressedBytes {
		t.Fatalf("Bytes() %d != stats %d", m.Bytes(), st.CompressedBytes)
	}
	if st.CompressedBytes >= st.DenseBytes {
		t.Fatalf("compression should reduce memory: %d vs %d", st.CompressedBytes, st.DenseBytes)
	}
}

func TestCloneIsDeep(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := dense.RandomSPD(rng, 64)
	m, _ := FromDense(a, 32, 1e-9, 0)
	c := m.Clone()
	c.At(0, 0).D.Set(0, 0, 1e9)
	if m.At(0, 0).D.At(0, 0) == 1e9 {
		t.Fatalf("Clone must be deep")
	}
}

func TestRankMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := dense.RandomSPD(rng, 96)
	m, _ := FromDense(a, 32, 1e-9, 0)
	rk := m.RankMatrix()
	if len(rk) != 3 || len(rk[2]) != 3 {
		t.Fatalf("rank matrix shape wrong")
	}
	if rk[0][0] != 32 {
		t.Fatalf("diagonal rank should be full: %d", rk[0][0])
	}
	if rk[1][0] != m.At(1, 0).Rank() {
		t.Fatalf("rank matrix entries wrong")
	}
}

func TestLowerToDense(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := dense.RandomSPD(rng, 64)
	m, _ := FromDense(a, 32, 1e-10, 0)
	low := m.LowerToDense()
	for i := 0; i < 64; i++ {
		for j := i + 1; j < 64; j++ {
			if low.At(i, j) != 0 {
				t.Fatalf("upper triangle must be zero")
			}
		}
	}
}

func TestDenseTilesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := dense.RandomSPD(rng, 100)
	m := DenseTiles(a, 32)
	if m.At(2, 1).Kind != tlr.Dense {
		t.Fatalf("all tiles must be dense")
	}
	if dense.FrobDiff(m.ToDense(), a) > 1e-12*a.FrobNorm() {
		t.Fatalf("dense tiling must be exact")
	}
	if m.Stats().Density != 1 {
		t.Fatalf("dense layout has density 1")
	}
}

func TestFromAssemblerParallelMatchesSequential(t *testing.T) {
	prob := rbfProblem(512, 0.02)
	seq, stSeq := FromAssembler(512, 64, prob.Block, 1e-6, 0)
	par, stPar, err := FromAssemblerParallel(512, 64, prob.Block, 1e-6, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if dense.FrobDiff(seq.ToDense(), par.ToDense()) > 1e-10 {
		t.Fatalf("parallel compression differs from sequential")
	}
	if stSeq.ZeroTiles != stPar.ZeroTiles || stSeq.LowRankTiles != stPar.LowRankTiles ||
		stSeq.DenseBytes != stPar.DenseBytes || stSeq.CompressedBytes != stPar.CompressedBytes {
		t.Fatalf("stats differ: %+v vs %+v", stSeq, stPar)
	}
}

// sameBits reports whether two tiles have the same kind, shape and
// float64 bits.
func sameBits(a, b *tlr.Tile) bool {
	if a.Kind != b.Kind || a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	same := func(x, y *dense.Matrix) bool {
		if x == nil || y == nil {
			return x == y
		}
		if x.Rows != y.Rows || x.Cols != y.Cols {
			return false
		}
		for i := 0; i < x.Rows; i++ {
			for j := 0; j < x.Cols; j++ {
				if math.Float64bits(x.At(i, j)) != math.Float64bits(y.At(i, j)) {
					return false
				}
			}
		}
		return true
	}
	return same(a.D, b.D) && same(a.U, b.U) && same(a.V, b.V)
}

// TestWithDiagonalMatchesFreshBuild: a new nugget changes only the
// diagonal tiles, so sharing a compressed operator's off-diagonal tiles
// and assembling the diagonal anew must give the full build's operator
// bit for bit, on a grid whose last tile is short. The source keeps its
// own diagonal.
func TestWithDiagonalMatchesFreshBuild(t *testing.T) {
	const n, b = 500, 64
	pts := rbf.VirusPopulation(rbf.DefaultVirusConfig(n))[:n]
	srcProb, _ := rbf.NewProblem(pts, rbf.Gaussian{Delta: 0.02, Nugget: 1e-4})
	wantProb := &rbf.Problem{Points: srcProb.Points, Kernel: rbf.Gaussian{Delta: 0.02, Nugget: 3e-4}}
	src, _, err := FromAssemblerParallel(n, b, srcProb.Block, 1e-6, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := FromAssemblerParallel(n, b, wantProb.Block, 1e-6, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	srcDiag := src.At(0, 0).D.At(0, 0)
	got, err := WithDiagonal(src, wantProb.Block, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got.N != n || got.B != b || got.NT != want.NT || got.Form != src.Form {
		t.Fatalf("layout %d/%d/%d/%v, want %d/%d/%d/%v", got.N, got.B, got.NT, got.Form, n, b, want.NT, src.Form)
	}
	for i := 0; i < got.NT; i++ {
		for j := 0; j <= i; j++ {
			if !sameBits(got.At(i, j), want.At(i, j)) {
				t.Fatalf("tile (%d,%d) differs from the fresh build", i, j)
			}
			if shared := got.At(i, j) == src.At(i, j); shared != (i != j) {
				t.Fatalf("tile (%d,%d): shared with the source = %v", i, j, shared)
			}
		}
	}
	if d := src.At(0, 0).D.At(0, 0); d != srcDiag || d != 1+1e-4 {
		t.Fatalf("source diagonal entry %g, want %g", d, 1+1e-4)
	}
	if got.Bytes() != want.Bytes() {
		t.Fatalf("Bytes %d, want %d", got.Bytes(), want.Bytes())
	}
}
