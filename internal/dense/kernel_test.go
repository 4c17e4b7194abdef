package dense

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestGemmBlockedMatchesNaiveOracle drives the packed micro-kernel path
// across odd sizes (micro-tile edges, panel edges, sizes spanning the
// MC/KC cache-block boundaries) and all four transpose combinations,
// against the naive triple-loop reference.
func TestGemmBlockedMatchesNaiveOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	dims := [][3]int{
		{1, 1, 1}, {2, 3, 4}, {7, 5, 9}, {17, 33, 9},
		{63, 64, 65}, {100, 17, 129}, {129, 257, 65}, {256, 31, 130},
	}
	for _, d := range dims {
		m, k, n := d[0], d[1], d[2]
		for _, tA := range []TransFlag{NoTrans, Trans} {
			for _, tB := range []TransFlag{NoTrans, Trans} {
				for _, alpha := range []float64{1, -0.75} {
					var a, b *Matrix
					if tA == NoTrans {
						a = Random(rng, m, k)
					} else {
						a = Random(rng, k, m)
					}
					if tB == NoTrans {
						b = Random(rng, k, n)
					} else {
						b = Random(rng, n, k)
					}
					c := Random(rng, m, n)
					want := gemmRef(tA, tB, alpha, a, b, 0.5, c)
					got := c.Clone()
					Gemm(tA, tB, alpha, a, b, 0.5, got)
					tol := 1e-13 * (1 + want.FrobNorm())
					if diff := FrobDiff(got, want); diff > tol {
						t.Fatalf("Gemm mismatch dims=%v tA=%d tB=%d alpha=%g diff=%g",
							d, tA, tB, alpha, diff)
					}
				}
			}
		}
	}
}

// TestGemmStridedViews runs the packed path with every operand a
// non-trivially-strided view into a larger parent, and checks the parent
// outside the C view is untouched.
func TestGemmStridedViews(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	m, k, n := 65, 33, 47
	pa := Random(rng, m+7, k+5)
	pb := Random(rng, k+9, n+3)
	pc := Random(rng, m+5, n+8)
	a := pa.View(3, 2, m, k)
	b := pb.View(4, 1, k, n)
	c := pc.View(2, 6, m, n)
	rim := pc.Clone()
	want := gemmRef(NoTrans, NoTrans, 2, a, b, -1, c)
	Gemm(NoTrans, NoTrans, 2, a, b, -1, c)
	if diff := FrobDiff(c.Clone(), want); diff > 1e-13*(1+want.FrobNorm()) {
		t.Fatalf("strided Gemm mismatch diff=%g", diff)
	}
	for i := 0; i < pc.Rows; i++ {
		for j := 0; j < pc.Cols; j++ {
			inside := i >= 2 && i < 2+m && j >= 6 && j < 6+n
			if !inside && pc.At(i, j) != rim.At(i, j) {
				t.Fatalf("Gemm wrote outside the C view at (%d,%d)", i, j)
			}
		}
	}
}

// TestGemmZeroTimesInfPropagates pins the IEEE semantics documented on
// Gemm: no inner zero-operand shortcuts, so 0·Inf = NaN reaches C on
// both the small-loop and the packed code paths — exactly as in
// reference dgemm, which forms every product term.
func TestGemmZeroTimesInfPropagates(t *testing.T) {
	for _, n := range []int{4, 64} { // below and above the packing cutoff
		a := NewMatrix(n, n) // all zeros
		b := NewMatrix(n, n)
		b.Set(0, 0, math.Inf(1))
		c := NewMatrix(n, n)
		Gemm(NoTrans, NoTrans, 1, a, b, 1, c)
		if !math.IsNaN(c.At(0, 0)) {
			t.Fatalf("n=%d: 0*Inf must produce NaN in C, got %g", n, c.At(0, 0))
		}
	}
}

// TestGemmBlasShortcuts pins the two BLAS-sanctioned quick returns:
// alpha == 0 must not read A or B (an Inf there cannot leak into C) and
// beta == 0 must not read C (a NaN there is overwritten).
func TestGemmBlasShortcuts(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	n := 8
	a := Random(rng, n, n)
	a.Set(2, 2, math.Inf(1))
	b := Random(rng, n, n)
	c := Random(rng, n, n)
	want := c.Clone()
	Gemm(NoTrans, NoTrans, 0, a, b, 1, c)
	if FrobDiff(c, want) != 0 {
		t.Fatalf("alpha=0 must leave C = beta*C exactly")
	}
	c2 := NewMatrix(n, n)
	for i := range c2.Data {
		c2.Data[i] = math.NaN()
	}
	af := Random(rng, n, n)
	Gemm(NoTrans, NoTrans, 1, af, b, 0, c2)
	for i := range c2.Data {
		if math.IsNaN(c2.Data[i]) {
			t.Fatalf("beta=0 must overwrite NaN in C")
		}
	}
}

// TestTrsmZeroRhsSkipsInf pins the documented zero-skip in the
// substitution base case: reference dtrsm guards updates with
// IF (B(K,J).NE.ZERO), so a zero right-hand side stays exactly zero
// even when the triangle holds non-finite off-diagonal entries.
func TestTrsmZeroRhsSkipsInf(t *testing.T) {
	n := 8
	l := Identity(n)
	l.Set(5, 2, math.Inf(1)) // strictly lower, hit only via a zero multiplier
	b := NewMatrix(n, 3)
	Trsm(Left, Lower, NoTrans, NonUnit, 1, l, b)
	for i := range b.Data {
		if b.Data[i] != 0 {
			t.Fatalf("zero RHS must stay exactly zero, got %g", b.Data[i])
		}
	}
}

// TestGemmSteadyStateAllocs verifies the packed GEMM performs zero heap
// allocations once the packing-buffer pool is warm.
func TestGemmSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	a := Random(rng, 96, 96)
	b := Random(rng, 96, 96)
	c := NewMatrix(96, 96)
	run := func() { Gemm(NoTrans, NoTrans, 1, a, b, 0, c) }
	run() // warm the pool
	if avg := testing.AllocsPerRun(20, run); avg > 0.5 {
		t.Fatalf("packed Gemm allocates in steady state: %.1f allocs/op", avg)
	}
}

// TestWorkspaceWarmZeroAllocs verifies that a warm workspace makes the
// full QR → QRCP → SVD transient chain allocation-free, which is what
// keeps the TLR recompression hot path off the heap.
func TestWorkspaceWarmZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	a := Random(rng, 64, 16)
	core := Random(rng, 16, 16)
	ws := GetWorkspace()
	defer ws.Release()
	run := func() {
		// In-package reset: reclaim the arena without returning it to the
		// pool, the moral equivalent of Release+Get with a pinned instance.
		ws.off, ws.ioff, ws.nh = 0, 0, 0
		QRWS(a, ws)
		QRCPWS(a, 1e-12, 0, ws)
		SVDWS(core, ws)
	}
	run()
	run() // second pass ensures the slab reached its high-water mark
	if avg := testing.AllocsPerRun(20, run); avg > 0 {
		t.Fatalf("warm workspace chain allocates: %.1f allocs/op", avg)
	}
}

// TestWorkspaceZeroesScratch pins that Floats/Ints/Matrix hand back
// zeroed memory even when recycling previously-used arena space.
func TestWorkspaceZeroesScratch(t *testing.T) {
	ws := GetWorkspace()
	defer ws.Release()
	f := ws.Floats(128)
	for i := range f {
		f[i] = 7
	}
	im := ws.Ints(32)
	for i := range im {
		im[i] = 7
	}
	ws.off, ws.ioff, ws.nh = 0, 0, 0
	for _, v := range ws.Floats(128) {
		if v != 0 {
			t.Fatalf("recycled float scratch not zeroed")
		}
	}
	for _, v := range ws.Ints(32) {
		if v != 0 {
			t.Fatalf("recycled int scratch not zeroed")
		}
	}
	m := ws.Matrix(4, 4)
	if m.FrobNorm() != 0 {
		t.Fatalf("workspace matrix not zeroed")
	}
}

// TestQRDirtyWorkspace checks that QR, QRCP and the SVD give the same
// bits on a workspace whose recycled slab is full of NaN as on a fresh
// one: the scratch they take without clearing (the column-major copy,
// the reflector slab) is written before it is read. The inputs cover a
// zero column (a reflector with tau 0) and a truncated QRCP.
func TestQRDirtyWorkspace(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	full := Random(rng, 37, 13)
	holed := full.Clone()
	for i := 0; i < holed.Rows; i++ {
		holed.Set(i, 5, 0)
	}
	lowRank := RandomLowRank(rng, 40, 24, 6)
	type out struct{ q, r, perm, s []float64 }
	run := func(a *Matrix, dirty bool) out {
		ws := GetWorkspace()
		defer ws.Release()
		if dirty {
			for i := range ws.Floats(1 << 16) {
				ws.slab[i] = math.NaN()
			}
			ws.off, ws.ioff, ws.nh = 0, 0, 0
		}
		q, r := QRWS(a, ws)
		o := out{q: slices.Clone(q.Data), r: slices.Clone(r.Data)}
		res := QRCPWS(a, 1e-8, 0, ws)
		o.q = append(o.q, res.Q.Data...)
		o.r = append(o.r, res.R.Data...)
		for _, p := range res.Perm {
			o.perm = append(o.perm, float64(p))
		}
		sv := SVDWS(a, ws)
		o.s = append(append(slices.Clone(sv.S), sv.U.Data...), sv.V.Data...)
		return o
	}
	for name, a := range map[string]*Matrix{"full": full, "zero column": holed, "low rank": lowRank} {
		fresh, dirty := run(a, false), run(a, true)
		for _, pair := range [][2][]float64{{fresh.q, dirty.q}, {fresh.r, dirty.r}, {fresh.perm, dirty.perm}, {fresh.s, dirty.s}} {
			if len(pair[0]) != len(pair[1]) {
				t.Fatalf("%s: fresh and dirty workspaces give different shapes", name)
			}
			for i := range pair[0] {
				if math.Float64bits(pair[0][i]) != math.Float64bits(pair[1][i]) {
					t.Fatalf("%s: entry %d is %v on a fresh workspace, %v on a NaN-filled one", name, i, pair[0][i], pair[1][i])
				}
			}
		}
	}
}
