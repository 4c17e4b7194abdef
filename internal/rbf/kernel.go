package rbf

import (
	"math"

	"tlrchol/internal/dense"
	"tlrchol/internal/obs"
)

// Assembly work: blocks Block returned without a kernel call, and the
// kernel entries it evaluated.
var mBlockZero, mKernelEvals = obs.Default.Counter("rbf.block.zero"), obs.Default.Counter("rbf.kernel_evals")

// Kernel is a radial basis function φ_δ(r). Gaussian (global support,
// the paper's focus) and WendlandC2 (compact support) are provided; a
// distinction the paper draws in Section IV-C: global support kernels
// consider all interactions (dense operator, better accuracy), compact
// support kernels vanish outside their radius (sparse operator).
type Kernel interface {
	// Eval returns φ_δ(r) for r ≥ 0.
	Eval(r float64) float64
	// Diag returns the diagonal value φ(0) plus any regularization.
	Diag() float64
}

// Gaussian is the global-support RBF kernel used throughout the paper:
// φ(r) = exp(−r²), scaled by the shape parameter δ as
// φ_δ(r) = φ(r/δ). Small δ localizes the correlation (sparser
// compressed matrix); large δ widens it (denser compressed matrix).
type Gaussian struct {
	// Delta is the shape parameter δ (must be > 0).
	Delta float64
	// Nugget is an optional diagonal regularization added to φ(0) to
	// bound the condition number for large δ (0 disables it).
	Nugget float64
}

// Eval returns φ_δ(r) = exp(−(r/δ)²).
func (g Gaussian) Eval(r float64) float64 {
	t := r / g.Delta
	return math.Exp(-t * t)
}

// Diag implements Kernel.
func (g Gaussian) Diag() float64 { return 1 + g.Nugget }

// WendlandC2 is the compactly-supported Wendland kernel of minimal
// degree with C² smoothness: φ_δ(r) = (1−r/δ)₊⁴·(4r/δ+1). It is
// positive definite in 3D and exactly zero beyond the support radius
// δ, so the kernel matrix is truly sparse — the opposite end of the
// paper's data-structure spectrum from the Gaussian.
type WendlandC2 struct {
	// Delta is the support radius.
	Delta float64
	// Nugget is an optional diagonal regularization.
	Nugget float64
}

// Eval implements Kernel.
func (w WendlandC2) Eval(r float64) float64 {
	t := r / w.Delta
	if t >= 1 {
		return 0
	}
	u := 1 - t
	u2 := u * u
	return u2 * u2 * (4*t + 1)
}

// Diag implements Kernel.
func (w WendlandC2) Diag() float64 { return 1 + w.Nugget }

// DefaultShape returns the paper's default shape parameter,
// δ = ½·min‖x_i − x_j‖ over the boundary point set.
func DefaultShape(pts []Point) float64 {
	return 0.5 * MinDistance(pts)
}

// Problem bundles a boundary point set with its kernel: the data-sparse
// SPD operator K[i][j] = φ_δ(‖x_i − x_j‖) whose Cholesky factorization
// is the paper's computational core.
type Problem struct {
	Points []Point
	Kernel Kernel
}

// NewProblem reorders the points in place by KD bisection and builds
// the problem. The returned permutation maps sorted positions to
// original indices. Every power-of-two-aligned run of positions is one
// KD cell, so at a power-of-two tile size each tile row is a compact
// cluster, which gives more null tiles and fewer coupled ones than the
// paper's Hilbert order (HilbertSort). At other tile sizes a tile row
// straddles two cells and can couple more tiles than under Hilbert.
func NewProblem(pts []Point, kernel Kernel) (*Problem, []int) {
	perm := kdSort(pts)
	return &Problem{Points: pts, Kernel: kernel}, perm
}

// N returns the matrix dimension (number of boundary points).
func (p *Problem) N() int { return len(p.Points) }

// Entry returns K[i][j].
func (p *Problem) Entry(i, j int) float64 {
	if i == j {
		return p.Kernel.Diag()
	}
	return p.Kernel.Eval(Dist(p.Points[i], p.Points[j]))
}

// Block assembles the dense sub-block K[r0:r1, c0:c1]. Tile-by-tile
// generation keeps peak memory at one tile, which is how the framework
// compresses large operators without ever materializing the full dense
// matrix.
//
// What geometry proves null is not evaluated: from zeroRadius on, the
// kernel is exactly 0.0. A block whose row and column bounding boxes
// are that far apart is a dense.ZeroView, a read-only view of shared
// zeros that costs no allocation and that tlr.CompressWS recognises
// without a scan: Clone it before writing. Elsewhere an entry at
// squared distance ≥ zeroRadius² stays 0. For finite points every
// entry is bit for bit Entry(i, j); equal row and column ranges mirror
// the strict lower triangle.
func (p *Problem) Block(r0, r1, c0, c1 int) *dense.Matrix {
	r2, zero := p.provenZero(r0, r1, c0, c1)
	if zero {
		return dense.ZeroView(r1-r0, c1-c0)
	}
	out := dense.NewMatrix(r1-r0, c1-c0)
	p.blockInto(out, r0, r1, c0, c1, r2)
	return out
}

// provenZero returns the squared zero radius (NaN for a kernel without
// one) and whether the row and column bounding boxes of the non-empty
// block K[r0:r1, c0:c1] lie that far apart, which it counts as
// rbf.block.zero.
func (p *Problem) provenZero(r0, r1, c0, c1 int) (r2 float64, zero bool) {
	r2 = zeroRadius(p.Kernel)
	if r2 *= r2; math.IsInf(r2, 1) {
		r2 = math.NaN() // no radius: no d² compares ≥ NaN
	}
	zero = r0 < r1 && c0 < c1 && Bounds(p.Points[r0:r1]).gap2(Bounds(p.Points[c0:c1])) >= r2
	if zero {
		mBlockZero.Add(0, 1)
	}
	return r2, zero
}

// blockInto writes K[r0:r1, c0:c1] into dst, which must be zero,
// leaving entries at squared distance ≥ r2 at 0.
func (p *Problem) blockInto(dst *dense.Matrix, r0, r1, c0, c1 int, r2 float64) {
	rows, cols := p.Points[r0:r1], p.Points[c0:c1]
	k := p.Kernel
	sym := r0 == c0 && r1 == c1
	evals := 0
	for i, x := range rows {
		row, ys := dst.Row(i), cols
		if sym {
			row, ys = row[:i+1], ys[:i+1]
		}
		if jd := r0 + i - c0; jd >= 0 && jd < len(ys) {
			evals += evalRow(row[:jd], x, ys[:jd], k, r2)
			row[jd] = k.Diag()
			evals += evalRow(row[jd+1:], x, ys[jd+1:], k, r2)
		} else {
			evals += evalRow(row, x, ys, k, r2)
		}
		for j := 0; sym && j < i; j++ {
			dst.Data[j*dst.Stride+i] = row[j]
		}
	}
	mKernelEvals.Add(0, uint64(evals))
}

// evalRow sets dst[j] = k.Eval(Dist(x, ys[j])) for every j at squared
// distance below r2 and returns how many entries it evaluated.
func evalRow(dst []float64, x Point, ys []Point, k Kernel, r2 float64) int {
	dst = dst[:len(ys)]
	n := 0
	for j, y := range ys {
		d2 := x.Sub(y).norm2()
		if d2 >= r2 {
			continue
		}
		n++
		dst[j] = k.Eval(math.Sqrt(d2))
	}
	return n
}

// zeroRadius returns a distance from which on k.Eval is exactly 0:
// WendlandC2's support δ, or where math.Exp underflows (below −745.13)
// for the Gaussian and the Matérn kernels. A relative margin of 1e-9
// covers rounding. It is +Inf for other kernels, for δ ≤ 0, and where
// the square of the radius leaves the normal float64 range.
func zeroRadius(k Kernel) float64 {
	var r float64
	switch k := k.(type) {
	case Gaussian:
		r = k.Delta * math.Sqrt(746)
	case WendlandC2:
		r = k.Delta
	case Matern32:
		r = 746 * k.Delta / math.Sqrt(3)
	case Matern52:
		r = 746 * k.Delta / math.Sqrt(5)
	default:
		return math.Inf(1)
	}
	r *= 1 + 1e-9
	if r2 := r * r; !(r > 0 && r2 >= 0x1p-1022 && r2 <= math.MaxFloat64) {
		return math.Inf(1)
	}
	return r
}

// Dense assembles the full N×N kernel matrix (testing and small
// problems only).
func (p *Problem) Dense() *dense.Matrix {
	return p.Block(0, p.N(), 0, p.N())
}

// Interpolant is a solved RBF interpolation d(x) = Σ_i α_i·φ_δ(‖x−x_i‖)
// for vector-valued (3-component) displacements.
type Interpolant struct {
	Problem *Problem
	// Alpha is N×3: interpolation coefficients per displacement component.
	Alpha *dense.Matrix
}

// Eval returns the interpolated displacement at an arbitrary point x.
func (ip *Interpolant) Eval(x Point) Point {
	var d Point
	for i, xb := range ip.Problem.Points {
		w := ip.Problem.Kernel.Eval(Dist(x, xb))
		d.X += ip.Alpha.At(i, 0) * w
		d.Y += ip.Alpha.At(i, 1) * w
		d.Z += ip.Alpha.At(i, 2) * w
	}
	return d
}

// Matern32 is the Matérn covariance kernel with smoothness ν = 3/2:
// φ_δ(r) = (1 + √3·r/δ)·exp(−√3·r/δ). Matérn kernels are the workhorse
// of the geospatial-statistics applications HiCMA was built for (the
// lineage this paper extends); they are strictly positive definite in
// 3D and, like the Gaussian, produce formally dense but data-sparse
// covariance matrices.
type Matern32 struct {
	// Delta is the correlation length.
	Delta float64
	// Nugget is an optional diagonal regularization.
	Nugget float64
}

// Eval implements Kernel.
func (m Matern32) Eval(r float64) float64 {
	t := math.Sqrt(3) * r / m.Delta
	if e := math.Exp(-t); e != 0 {
		return (1 + t) * e
	}
	return 0 // not (1+t)·0, which is NaN once t overflows
}

// Diag implements Kernel.
func (m Matern32) Diag() float64 { return 1 + m.Nugget }

// Matern52 is the Matérn kernel with smoothness ν = 5/2:
// φ_δ(r) = (1 + √5·r/δ + 5r²/(3δ²))·exp(−√5·r/δ).
type Matern52 struct {
	// Delta is the correlation length.
	Delta float64
	// Nugget is an optional diagonal regularization.
	Nugget float64
}

// Eval implements Kernel.
func (m Matern52) Eval(r float64) float64 {
	t := math.Sqrt(5) * r / m.Delta
	if e := math.Exp(-t); e != 0 {
		return (1 + t + t*t/3) * e
	}
	return 0 // not (1+t+t²/3)·0, which is NaN once t² overflows
}

// Diag implements Kernel.
func (m Matern52) Diag() float64 { return 1 + m.Nugget }
