package tlr

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"tlrchol/internal/dense"
	"tlrchol/internal/obs"
)

func TestCompressExactLowRank(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := dense.RandomLowRank(rng, 24, 24, 3)
	tile := Compress(a, 1e-10, 0)
	if tile.Kind != LowRank {
		t.Fatalf("expected LowRank, got %v", tile.Kind)
	}
	if tile.Rank() != 3 {
		t.Fatalf("expected rank 3, got %d", tile.Rank())
	}
	if dense.FrobDiff(tile.ToDense(), a) > 1e-8*(1+a.FrobNorm()) {
		t.Fatalf("compression lost accuracy: %g", dense.FrobDiff(tile.ToDense(), a))
	}
}

// TestCompressZero checks that a block of ±0 entries is a Zero tile of
// its shape, counted as tlr.compress.zero, while one tiny entry of
// either sign at tol 0 still keeps rank 1, and neither a subnormal nor a
// NaN entry is taken for zero.
func TestCompressZero(t *testing.T) {
	zeros := obs.Default.Counter("tlr.compress.zero")
	for _, z := range []float64{0, math.Copysign(0, -1)} {
		a := dense.NewMatrix(16, 12)
		a.Set(3, 2, z)
		before := zeros.Value()
		tile := Compress(a, 1e-12, 0)
		if tile.Kind != Zero || tile.Rows != 16 || tile.Cols != 12 {
			t.Fatalf("zero block (entry %g) should compress to a 16x12 Zero tile, got %v %dx%d", z, tile.Kind, tile.Rows, tile.Cols)
		}
		if tile.Rank() != 0 || tile.Bytes() != 0 {
			t.Fatalf("Zero tile should have rank 0 and no payload")
		}
		if got := zeros.Value() - before; got != 1 {
			t.Fatalf("tlr.compress.zero advanced by %d, want 1", got)
		}
	}
	for _, v := range []float64{1e-150, -1e-150} {
		a := dense.NewMatrix(16, 12)
		a.Set(3, 2, v)
		if tile := Compress(a, 0, 0); tile.Kind != LowRank || tile.Rank() != 1 {
			t.Fatalf("entry %g: %v rank %d, want LowRank rank 1", v, tile.Kind, tile.Rank())
		}
	}
	// The smallest subnormal and NaN are not zero, anywhere in a row:
	// the unrolled word scan or its tail. A lone subnormal still goes to
	// the QRCP, whose rank-0 answer (its squared norm underflows) is
	// counted like any other.
	for _, j := range []int{0, 7, 8, 11} {
		for _, v := range []float64{4.9e-324, -4.9e-324, math.NaN()} {
			a := dense.NewMatrix(16, 12)
			a.Set(9, j, v)
			if allZero(a) {
				t.Fatalf("entry %g at column %d reported all zero", v, j)
			}
		}
	}
	nan := dense.NewMatrix(16, 12)
	for i := range nan.Data {
		nan.Data[i] = math.NaN()
	}
	if tile := Compress(nan, 1e-12, 0); tile.Kind == Zero {
		t.Fatalf("a NaN block compressed to a Zero tile")
	}
	// One NaN outside the first column must win QRCP's pivot search, or
	// the QR stops at rank 0 and the NaN vanishes into a Zero tile.
	one := dense.NewMatrix(16, 12)
	one.Set(9, 7, math.NaN())
	if tile := Compress(one, 1e-12, 0); tile.Kind == Zero {
		t.Fatalf("a block with one NaN at (9,7) compressed to a Zero tile")
	}
	// A read-only zero view is a Zero tile without a scan.
	before := zeros.Value()
	if tile := Compress(dense.ZeroView(16, 12), 1e-12, 0); tile.Kind != Zero || tile.Rows != 16 || tile.Cols != 12 {
		t.Fatalf("ZeroView(16, 12) compressed to %v %dx%d, want a 16x12 Zero tile", tile.Kind, tile.Rows, tile.Cols)
	}
	if got := zeros.Value() - before; got != 1 {
		t.Fatalf("tlr.compress.zero advanced by %d for a zero view, want 1", got)
	}
}

func TestCompressTinyValuesBelowThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := dense.Random(rng, 16, 16)
	a.Scale(1e-9) // whole tile below the 1e-4 threshold
	tile := Compress(a, 1e-4, 0)
	if tile.Kind != Zero {
		t.Fatalf("tile below threshold should vanish, got %v rank=%d", tile.Kind, tile.Rank())
	}
}

func TestCompressAccuracyThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := dense.Random(rng, 32, 32)
	for _, tol := range []float64{1e-2, 1e-4, 1e-8} {
		tile := Compress(a, tol, 0)
		err := dense.FrobDiff(tile.ToDense(), a)
		// QRCP truncation error bounded by a modest factor over tol.
		if err > 50*tol {
			t.Fatalf("tol=%g: error %g too large", tol, err)
		}
	}
}

func TestCompressRankMonotoneInTol(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := dense.Random(rng, 32, 32)
	prev := -1
	for _, tol := range []float64{1e-12, 1e-8, 1e-4, 1e-1} {
		r := Compress(a, tol, 0).Rank()
		if prev >= 0 && r > prev {
			t.Fatalf("rank should not increase as tol loosens: %d -> %d", prev, r)
		}
		prev = r
	}
}

func TestTileToDenseAndClone(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	u := dense.Random(rng, 8, 2)
	v := dense.Random(rng, 8, 2)
	tile := NewLowRank(u, v)
	want := dense.NewMatrix(8, 8)
	dense.Gemm(dense.NoTrans, dense.Trans, 1, u, v, 0, want)
	if dense.FrobDiff(tile.ToDense(), want) > 1e-13 {
		t.Fatalf("ToDense mismatch")
	}
	c := tile.Clone()
	c.U.Set(0, 0, 999)
	if tile.U.At(0, 0) == 999 {
		t.Fatalf("Clone must deep-copy")
	}
}

func TestNewLowRankZeroRankDegenerates(t *testing.T) {
	u := dense.NewMatrix(8, 0)
	v := dense.NewMatrix(8, 0)
	tile := NewLowRank(u, v)
	if tile.Kind != Zero {
		t.Fatalf("rank-0 factors should give a Zero tile")
	}
}

func TestTileFrobNorm(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	u := dense.Random(rng, 10, 3)
	v := dense.Random(rng, 12, 3)
	tile := NewLowRank(u, v)
	want := tile.ToDense().FrobNorm()
	got := tile.FrobNorm()
	if d := got - want; d > 1e-10 || d < -1e-10 {
		t.Fatalf("LR FrobNorm %g vs dense %g", got, want)
	}
	if NewZero(4, 4).FrobNorm() != 0 {
		t.Fatalf("Zero norm should be 0")
	}
}

func TestTileBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := NewDense(dense.Random(rng, 10, 10))
	if d.Bytes() != 800 {
		t.Fatalf("dense bytes %d", d.Bytes())
	}
	lr := NewLowRank(dense.Random(rng, 10, 2), dense.Random(rng, 10, 2))
	if lr.Bytes() != 8*(20+20) {
		t.Fatalf("lr bytes %d", lr.Bytes())
	}
}

func TestRecompressReducesRank(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	// Build a redundant representation: rank-2 content stored with rank 6.
	base := dense.RandomLowRank(rng, 16, 16, 2)
	res := dense.QRCP(base, 1e-13, 0)
	u := res.Q
	v := dense.UnpermuteColumns(res.R, res.Perm).T()
	// Duplicate columns to inflate the stored rank.
	ws := dense.GetWorkspace()
	defer ws.Release()
	uu := hcat(ws, u, u)
	vv := dense.NewMatrix(v.Rows, 2*v.Cols)
	for i := 0; i < v.Rows; i++ {
		for j := 0; j < v.Cols; j++ {
			vv.Set(i, j, 0.5*v.At(i, j))
			vv.Set(i, j+v.Cols, 0.5*v.At(i, j))
		}
	}
	tile := Recompress(uu, vv, 1e-10, 0)
	if tile.Rank() != 2 {
		t.Fatalf("expected recompressed rank 2, got %d", tile.Rank())
	}
	if dense.FrobDiff(tile.ToDense(), base) > 1e-8*(1+base.FrobNorm()) {
		t.Fatalf("recompression lost value: %g", dense.FrobDiff(tile.ToDense(), base))
	}
}

func TestRecompressToZero(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	u := dense.Random(rng, 8, 2)
	v := dense.Random(rng, 8, 2)
	u.Scale(1e-12)
	tile := Recompress(u, v, 1e-4, 0)
	if tile.Kind != Zero {
		t.Fatalf("negligible product should recompress to Zero, got %v", tile.Kind)
	}
}

func TestRecompressMaxRankCap(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	u := dense.Random(rng, 16, 8)
	v := dense.Random(rng, 16, 8)
	tile := Recompress(u, v, 0, 3)
	if tile.Rank() != 3 {
		t.Fatalf("maxRank cap not honored: %d", tile.Rank())
	}
}

// Property: compression round-trip error is within the threshold for
// arbitrary low-rank-plus-noise tiles.
func TestCompressProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 8 + r.Intn(24)
		k := 1 + r.Intn(4)
		a := dense.RandomLowRank(r, n, n, k)
		tol := 1e-6
		tile := Compress(a, tol, 0)
		return dense.FrobDiff(tile.ToDense(), a) <= 100*tol &&
			tile.Rank() <= k
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestKindString(t *testing.T) {
	if Zero.String() != "zero" || LowRank.String() != "lowrank" || Dense.String() != "dense" {
		t.Fatalf("Kind strings wrong")
	}
	if Kind(42).String() == "" {
		t.Fatalf("unknown kind should still render")
	}
}

func TestDenseTileRank(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	d := NewDense(dense.Random(rng, 6, 9))
	if d.Rank() != 6 {
		t.Fatalf("dense rank is min(rows,cols): %d", d.Rank())
	}
	d2 := NewDense(dense.Random(rng, 9, 6))
	if d2.Rank() != 6 {
		t.Fatalf("dense rank is min(rows,cols): %d", d2.Rank())
	}
}

// TestRecompressMatchesDenseProduct drives RecompressWS over 200 seeded
// stacked pairs [U_c | P]·[V_c | Q]ᵀ with graded column weights, a
// quarter of them with P copied from columns of U_c so the core Ru·Rvᵀ is
// exactly rank-deficient. The tile must have the rank TruncationRank
// reads off the singular values of the dense product, reproduce the
// product within tol, and no SVD on the way may end on its sweep cap.
func TestRecompressMatchesDenseProduct(t *testing.T) {
	const b, tol = 48, 1e-6
	capped := obs.Default.Counter("dense.svd.capped")
	capped0 := capped.Value()
	ws := dense.GetWorkspace()
	defer ws.Release()
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		kc, kp := 1+rng.Intn(12), 1+rng.Intn(12)
		u, v := dense.Random(rng, b, kc+kp), dense.Random(rng, b, kc+kp)
		for j := 0; j < kc+kp; j++ {
			w := math.Pow(10, -float64(j%kc))
			for i := 0; i < b; i++ {
				u.Set(i, j, w*u.At(i, j))
				if seed%4 == 0 && j >= kc {
					u.Set(i, j, u.At(i, j%kc))
				}
			}
		}
		prod := dense.NewMatrix(b, b)
		dense.Gemm(dense.NoTrans, dense.Trans, 1, u, v, 0, prod)
		want := dense.TruncationRank(dense.SVD(prod).S, tol)
		tile := RecompressWS(u, v, tol, 0, ws)
		if tile.Rank() != want {
			t.Fatalf("seed %d: rank %d, dense product truncates to %d", seed, tile.Rank(), want)
		}
		if d := dense.FrobDiff(tile.ToDense(), prod); d > tol {
			t.Fatalf("seed %d: ‖tile − u·vᵀ‖ = %g > tol", seed, d)
		}
	}
	if n := capped.Value() - capped0; n != 0 {
		t.Fatalf("%d SVDs ended on the sweep cap", n)
	}
}
