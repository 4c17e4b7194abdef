//go:build amd64 && !purego

package dense

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestArchKernelMatchesGeneric cross-checks the AVX2 assembly
// micro-kernel against the portable scalar kernel through the full
// packed GEMM path (the two differ only by FMA rounding).
func TestArchKernelMatchesGeneric(t *testing.T) {
	if !useArchKernel {
		t.Skip("CPU lacks AVX2+FMA; generic kernel is the only path")
	}
	rng := rand.New(rand.NewSource(47))
	a := Random(rng, 97, 53)
	b := Random(rng, 53, 61)
	c := Random(rng, 97, 61)
	vec := c.Clone()
	Gemm(NoTrans, NoTrans, 1.25, a, b, 0.5, vec)

	useArchKernel = false
	gemmMR = 2
	defer func() {
		useArchKernel = true
		gemmMR = 8
	}()
	gen := c.Clone()
	Gemm(NoTrans, NoTrans, 1.25, a, b, 0.5, gen)

	if diff := FrobDiff(vec, gen); diff > 1e-13*(1+gen.FrobNorm()) {
		t.Fatalf("asm vs generic kernel diverge: %g", diff)
	}
}

// level1Generic runs f with the portable Go loops behind dot, axpy and
// rot.
func level1Generic(f func()) {
	useArchKernel = false
	defer func() { useArchKernel = true }()
	f()
}

// TestLevel1ArchMatchesGeneric cross-checks the AVX2 bodies of dot, axpy
// and rot against the portable loops at every length 0–67 and slice
// offset 0–3 (the two differ only by FMA rounding and summation order),
// and checks that NaN and ±Inf come out of both paths alike, 0·Inf = NaN
// included.
func TestLevel1ArchMatchesGeneric(t *testing.T) {
	if !useArchKernel {
		t.Skip("CPU lacks AVX2+FMA; generic loops are the only path")
	}
	rng := rand.New(rand.NewSource(48))
	base := make([]float64, 2*80)
	for i := range base {
		base[i] = rng.NormFloat64()
	}
	const tol = 1e-14
	for n := 0; n <= 67; n++ {
		for off := 0; off <= 3; off++ {
			x := base[off : off+n]
			y := base[80+off : 80+off+n]
			var scale float64 // Σ|x_i·y_i|, the dot's error scale
			for i := range x {
				scale += math.Abs(x[i] * y[i])
			}
			got := dot(x, y)
			var want float64
			level1Generic(func() { want = dot(x, y) })
			if math.Abs(got-want) > tol*(1+scale) {
				t.Fatalf("dot n=%d off=%d: asm %v, generic %v", n, off, got, want)
			}

			alpha, c, s := rng.NormFloat64(), 0.8, 0.6
			ya, yg := slices.Clone(y), slices.Clone(y)
			axpy(alpha, x, ya)
			level1Generic(func() { axpy(alpha, x, yg) })
			xa, xg := slices.Clone(x), slices.Clone(x)
			yra, yrg := slices.Clone(y), slices.Clone(y)
			rot(c, s, xa, yra)
			level1Generic(func() { rot(c, s, xg, yrg) })
			for i := range x {
				if d := math.Abs(ya[i] - yg[i]); d > tol*(1+math.Abs(yg[i])+math.Abs(alpha*x[i])) {
					t.Fatalf("axpy n=%d off=%d i=%d: asm %v, generic %v", n, off, i, ya[i], yg[i])
				}
				bound := tol * (1 + math.Abs(x[i]) + math.Abs(y[i]))
				if math.Abs(xa[i]-xg[i]) > bound || math.Abs(yra[i]-yrg[i]) > bound {
					t.Fatalf("rot n=%d off=%d i=%d: asm (%v, %v), generic (%v, %v)", n, off, i, xa[i], yra[i], xg[i], yrg[i])
				}
			}
		}
	}

	// Non-finite entries in the vector body (i < 16), the 4-wide body
	// and the Go tail (i ≥ n&^3) of a length-23 operand.
	inf, nan := math.Inf(1), math.NaN()
	for _, at := range []int{0, 5, 17, 21} {
		for _, tc := range []struct {
			name   string
			xv, yv float64 // placed at x[at], y[at]
			alpha  float64
		}{
			{"nan", nan, 1, 1},
			{"inf", inf, 1, 1},
			{"-inf", -inf, 2, 1},
			{"inf*0", inf, 0, 0},
			{"0*inf", 0, inf, inf},
		} {
			x := slices.Clone(base[:23])
			y := slices.Clone(base[80 : 80+23])
			x[at], y[at] = tc.xv, tc.yv
			got := dot(x, y)
			var want float64
			level1Generic(func() { want = dot(x, y) })
			if !sameClass(got, want) {
				t.Errorf("dot %s at %d: asm %v, generic %v", tc.name, at, got, want)
			}
			ya, yg := slices.Clone(y), slices.Clone(y)
			axpy(tc.alpha, x, ya)
			level1Generic(func() { axpy(tc.alpha, x, yg) })
			xa, xg := slices.Clone(x), slices.Clone(x)
			yra, yrg := slices.Clone(y), slices.Clone(y)
			rot(0.8, 0.6, xa, yra)
			level1Generic(func() { rot(0.8, 0.6, xg, yrg) })
			for i := range x {
				if !sameClass(ya[i], yg[i]) || !sameClass(xa[i], xg[i]) || !sameClass(yra[i], yrg[i]) {
					t.Errorf("axpy/rot %s at %d, entry %d: asm (%v; %v, %v), generic (%v; %v, %v)",
						tc.name, at, i, ya[i], xa[i], yra[i], yg[i], xg[i], yrg[i])
				}
			}
		}
	}
	// 0·Inf inside the vector body of axpy is NaN on both paths.
	x, y := make([]float64, 8), make([]float64, 8)
	x[2] = inf
	axpy(0, x, y)
	if !math.IsNaN(y[2]) {
		t.Errorf("axpy 0·Inf: got %v, want NaN", y[2])
	}
}

// sameClass reports whether a and b are both NaN, the same infinity, or
// both finite.
func sameClass(a, b float64) bool {
	switch {
	case math.IsNaN(a) || math.IsNaN(b):
		return math.IsNaN(a) && math.IsNaN(b)
	case math.IsInf(a, 0) || math.IsInf(b, 0):
		return a == b
	}
	return true
}
