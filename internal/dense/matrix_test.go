package dense

import (
	"math"
	"math/rand"
	"testing"
)

func almostEqual(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Fatalf("%s: got %g want %g (tol %g)", msg, got, want, tol)
	}
}

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(3, 4)
	if m.Rows != 3 || m.Cols != 4 || m.Stride != 4 {
		t.Fatalf("unexpected shape %+v", m)
	}
	m.Set(1, 2, 5)
	if m.At(1, 2) != 5 {
		t.Fatalf("At/Set mismatch")
	}
	if m.Row(1)[2] != 5 {
		t.Fatalf("Row view mismatch")
	}
}

func TestFromSlice(t *testing.T) {
	d := []float64{1, 2, 3, 4, 5, 6}
	m := FromSlice(2, 3, d)
	if m.At(1, 0) != 4 {
		t.Fatalf("FromSlice layout wrong: %v", m.At(1, 0))
	}
	m.Set(0, 0, 9)
	if d[0] != 9 {
		t.Fatalf("FromSlice should not copy")
	}
}

func TestFromSlicePanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	FromSlice(2, 3, make([]float64, 5))
}

func TestView(t *testing.T) {
	m := NewMatrix(4, 4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			m.Set(i, j, float64(10*i+j))
		}
	}
	v := m.View(1, 2, 2, 2)
	if v.At(0, 0) != 12 || v.At(1, 1) != 23 {
		t.Fatalf("view contents wrong: %v %v", v.At(0, 0), v.At(1, 1))
	}
	v.Set(0, 0, -1)
	if m.At(1, 2) != -1 {
		t.Fatalf("view must alias parent")
	}
}

func TestCloneIsDeep(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(0, 0, 1)
	c := m.Clone()
	c.Set(0, 0, 7)
	if m.At(0, 0) != 1 {
		t.Fatalf("clone aliases parent")
	}
}

func TestTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := Random(rng, 3, 5)
	mt := m.T()
	for i := 0; i < 3; i++ {
		for j := 0; j < 5; j++ {
			if m.At(i, j) != mt.At(j, i) {
				t.Fatalf("transpose mismatch at %d,%d", i, j)
			}
		}
	}
}

func TestAddScale(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := Random(rng, 4, 3)
	b := Random(rng, 4, 3)
	c := a.Clone()
	c.Add(2, b)
	for i := 0; i < 4; i++ {
		for j := 0; j < 3; j++ {
			almostEqual(t, c.At(i, j), a.At(i, j)+2*b.At(i, j), 1e-14, "Add")
		}
	}
	c.Scale(0.5)
	almostEqual(t, c.At(0, 0), (a.At(0, 0)+2*b.At(0, 0))/2, 1e-14, "Scale")
}

func TestNorms(t *testing.T) {
	m := FromSlice(2, 2, []float64{3, 0, 0, -4})
	almostEqual(t, m.FrobNorm(), 5, 1e-14, "FrobNorm")
	almostEqual(t, m.MaxAbs(), 4, 1e-14, "MaxAbs")
}

func TestFrobDiffAndSymmetrize(t *testing.T) {
	a := FromSlice(2, 2, []float64{1, 5, 2, 3})
	b := a.Clone()
	if FrobDiff(a, b) != 0 {
		t.Fatalf("FrobDiff of equal matrices should be 0")
	}
	a.SymmetrizeLower()
	if a.At(0, 1) != 2 {
		t.Fatalf("SymmetrizeLower should mirror lower onto upper, got %v", a.At(0, 1))
	}
	a.TriLower()
	if a.At(0, 1) != 0 {
		t.Fatalf("TriLower should zero the upper triangle")
	}
}

func TestIdentityAndRandomSPD(t *testing.T) {
	id := Identity(3)
	if id.At(0, 0) != 1 || id.At(0, 1) != 0 {
		t.Fatalf("Identity wrong")
	}
	rng := rand.New(rand.NewSource(3))
	spd := RandomSPD(rng, 8)
	// Symmetric.
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			almostEqual(t, spd.At(i, j), spd.At(j, i), 1e-12, "SPD symmetry")
		}
	}
	// Positive definite: Cholesky must succeed.
	if err := Potrf(spd.Clone()); err != nil {
		t.Fatalf("RandomSPD not positive definite: %v", err)
	}
}

func TestRandomLowRankHasRank(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := RandomLowRank(rng, 10, 12, 3)
	res := SVD(a)
	if res.S[2] < 1e-10 {
		t.Fatalf("expected rank >= 3, s=%v", res.S[:4])
	}
	if res.S[3] > 1e-10*res.S[0] {
		t.Fatalf("expected rank 3, s[3]=%g", res.S[3])
	}
}

// allSignedZero reports whether every entry of m is +0 or −0.
func allSignedZero(m *Matrix) bool {
	for i := 0; i < m.Rows; i++ {
		for _, x := range m.Row(i) {
			if math.Float64bits(x)<<1 != 0 {
				return false
			}
		}
	}
	return true
}

// TestZeroView checks that ZeroView and IsZeroView agree: every
// non-empty block that fits the shared slab is a zero view of its shape
// whose capacity ends with it, and a maximal one reads all zeros.
func TestZeroView(t *testing.T) {
	for _, sz := range [][2]int{{1, 1}, {16, 12}, {256, 256}, {512, 512}, {1, len(zeroSlab)}} {
		z := ZeroView(sz[0], sz[1])
		if !z.IsZeroView() || z.Rows != sz[0] || z.Cols != sz[1] || z.Stride != sz[1] || cap(z.Data) != sz[0]*sz[1] {
			t.Fatalf("ZeroView(%d, %d): IsZeroView %v, %dx%d stride %d cap %d",
				sz[0], sz[1], z.IsZeroView(), z.Rows, z.Cols, z.Stride, cap(z.Data))
		}
		if !allSignedZero(z) {
			t.Fatalf("ZeroView(%d, %d) holds a nonzero entry", sz[0], sz[1])
		}
		if c := z.Clone(); c.IsZeroView() {
			t.Fatalf("the Clone of ZeroView(%d, %d) is still a zero view", sz[0], sz[1])
		}
	}
}

// TestZeroViewTooLarge checks that a block larger than the slab (or an
// empty one) gets a fresh writable matrix, and that writing it leaves
// the slab alone.
func TestZeroViewTooLarge(t *testing.T) {
	for _, sz := range [][2]int{{513, 512}, {1, len(zeroSlab) + 1}, {1024, 1024}, {0, 0}, {0, 7}} {
		z := ZeroView(sz[0], sz[1])
		if z.IsZeroView() || z.Rows != sz[0] || z.Cols != sz[1] || !allSignedZero(z) {
			t.Fatalf("ZeroView(%d, %d): IsZeroView %v, %dx%d", sz[0], sz[1], z.IsZeroView(), z.Rows, z.Cols)
		}
		for i := range z.Data {
			z.Data[i] = 1
		}
	}
	if !allSignedZero(ZeroView(512, 512)) {
		t.Fatalf("writing an oversized ZeroView changed the shared slab")
	}
}

// TestNewMatrixIsNotZeroView checks that freshly allocated matrices,
// their views and clones are never taken for the read-only slab.
func TestNewMatrixIsNotZeroView(t *testing.T) {
	for _, sz := range [][2]int{{0, 0}, {0, 5}, {1, 1}, {16, 12}, {512, 512}} {
		m := NewMatrix(sz[0], sz[1])
		if m.IsZeroView() || m.Clone().IsZeroView() {
			t.Fatalf("NewMatrix(%d, %d) reported as a zero view", sz[0], sz[1])
		}
		if sz[0] > 0 && sz[1] > 0 && m.View(0, 0, 1, 1).IsZeroView() {
			t.Fatalf("a view of NewMatrix(%d, %d) reported as a zero view", sz[0], sz[1])
		}
	}
	if FromSlice(2, 3, make([]float64, 6)).IsZeroView() || Identity(4).IsZeroView() {
		t.Fatalf("FromSlice or Identity reported as a zero view")
	}
}
