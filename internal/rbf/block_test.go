package rbf

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"tlrchol/internal/dense"
)

// refBlock is Block entry by entry through the Kernel interface, the
// definition Block must reproduce bit for bit.
func refBlock(p *Problem, r0, r1, c0, c1 int) *dense.Matrix {
	out := dense.NewMatrix(r1-r0, c1-c0)
	for i := r0; i < r1; i++ {
		for j := c0; j < c1; j++ {
			v := p.Kernel.Diag()
			if i != j {
				v = p.Kernel.Eval(Dist(p.Points[i], p.Points[j]))
			}
			out.Set(i-r0, j-c0, v)
		}
	}
	return out
}

// refAugmentedBlock is AugmentedBlock entry by entry: the kernel, the
// polynomial borders, the zero corner.
func refAugmentedBlock(p *Problem, r0, r1, c0, c1 int) *dense.Matrix {
	n := p.N()
	out := dense.NewMatrix(r1-r0, c1-c0)
	for i := r0; i < r1; i++ {
		for j := c0; j < c1; j++ {
			var v float64
			switch {
			case i < n && j < n:
				v = refBlock(p, i, i+1, j, j+1).At(0, 0)
			case i < n:
				v = PolyBasis(p.Points[i])[j-n]
			case j < n:
				v = PolyBasis(p.Points[j])[i-n]
			}
			out.Set(i-r0, j-c0, v)
		}
	}
	return out
}

// sameBits reports the first entry where got and want differ in their
// float64 bits (any NaN matches any NaN).
func sameBits(got, want *dense.Matrix) error {
	if got.Rows != want.Rows || got.Cols != want.Cols {
		return fmt.Errorf("shape %dx%d, want %dx%d", got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := 0; i < got.Rows; i++ {
		for j, g := range got.Row(i) {
			w := want.At(i, j)
			if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
				return fmt.Errorf("entry (%d,%d) = %v, want %v", i, j, g, w)
			}
		}
	}
	return nil
}

// testKernels returns the four kernels at shape parameters where a
// virus geometry's blocks mix proven-zero blocks, skipped entries and
// evaluated entries.
func testKernels(shape float64) []Kernel {
	return []Kernel{
		Gaussian{Delta: 2 * shape, Nugget: 1e-4},
		WendlandC2{Delta: 60 * shape, Nugget: 1e-4},
		Matern32{Delta: 0.1 * shape},
		Matern52{Delta: 0.1 * shape, Nugget: 1e-4},
	}
}

// TestBlockBitwise checks Block against the entrywise reference on
// virus geometries in KD and Hilbert order: every lower-triangle tile
// of aligned and unaligned tilings (the tiles a tilemat builder asks
// for, diagonal ones included), 128-row panels across all columns, a
// diagonal block off the tile grid, and empty ranges. It also checks
// that the zero proofs fired, so the comparison covers them.
func TestBlockBitwise(t *testing.T) {
	const n = 1024
	orders := map[string]func([]Point, Kernel) *Problem{
		"kd": func(pts []Point, k Kernel) *Problem {
			p, _ := NewProblem(pts, k)
			return p
		},
		"hilbert": func(pts []Point, k Kernel) *Problem {
			HilbertSort(pts)
			return &Problem{Points: pts, Kernel: k}
		},
	}
	base := VirusPopulation(DefaultVirusConfig(n))[:n]
	shape := DefaultShape(base)
	for name, order := range orders {
		for _, k := range testKernels(shape) {
			t.Run(fmt.Sprintf("%s/%T", name, k), func(t *testing.T) {
				p := order(append([]Point(nil), base...), k)
				zero0, evals0 := mBlockZero.Value(), mKernelEvals.Value()
				entries := uint64(0)
				check := func(r0, r1, c0, c1 int) {
					t.Helper()
					if err := sameBits(p.Block(r0, r1, c0, c1), refBlock(p, r0, r1, c0, c1)); err != nil {
						t.Fatalf("Block(%d, %d, %d, %d): %v", r0, r1, c0, c1, err)
					}
					entries += uint64((r1 - r0) * (c1 - c0))
				}
				for _, b := range []int{128, 256, 100, 150} {
					for r0 := 0; r0 < n; r0 += b {
						for c0 := 0; c0 <= r0; c0 += b {
							check(r0, min(r0+b, n), c0, min(c0+b, n))
						}
					}
				}
				for _, r0 := range []int{0, 128, 896, 50, 960} {
					check(r0, min(r0+128, n), 0, n)
				}
				check(37, 301, 37, 301)
				check(5, 5, 0, n)
				check(0, n, 7, 7)
				check(n, n, n, n)
				zeros, evals := mBlockZero.Value()-zero0, mKernelEvals.Value()-evals0
				if zeros == 0 || evals == 0 || evals >= entries/2 {
					t.Fatalf("zero proofs not exercised: %d zero blocks, %d of %d entries evaluated", zeros, evals, entries)
				}
			})
		}
	}
}

// TestAugmentedBlockBitwise checks AugmentedBlock against the
// entrywise reference on every tile of a tiling whose last tile holds
// kernel rows and constraint rows, and on the whole operator.
func TestAugmentedBlockBitwise(t *testing.T) {
	const n, b = 300, 64
	pts := VirusPopulation(DefaultVirusConfig(n))[:n]
	p, _ := NewProblem(pts, Gaussian{Delta: 2 * DefaultShape(pts), Nugget: 1e-4})
	dim := p.AugmentedDim()
	for r0 := 0; r0 < dim; r0 += b {
		for c0 := 0; c0 < dim; c0 += b {
			r1, c1 := min(r0+b, dim), min(c0+b, dim)
			if err := sameBits(p.AugmentedBlock(r0, r1, c0, c1), refAugmentedBlock(p, r0, r1, c0, c1)); err != nil {
				t.Fatalf("AugmentedBlock(%d, %d, %d, %d): %v", r0, r1, c0, c1, err)
			}
		}
	}
	for _, r := range [][4]int{{0, dim, 0, dim}, {n, dim, 0, dim}, {n + 1, dim, n + 2, dim}, {0, n, n, dim}} {
		if err := sameBits(p.AugmentedBlock(r[0], r[1], r[2], r[3]), refAugmentedBlock(p, r[0], r[1], r[2], r[3])); err != nil {
			t.Fatalf("AugmentedBlock%v: %v", r, err)
		}
	}
}

// TestZeroRadius checks that each kernel is exactly 0 at its zero
// radius, beyond it, and at the square root of its square (the
// distance Block evaluates for the smallest skipped squared distance),
// and that the Gaussian and Wendland radii are within 1% of the first
// nonzero distance.
func TestZeroRadius(t *testing.T) {
	for _, delta := range []float64{1, 0.37, 1e-3, 2.5e5} {
		for _, k := range []Kernel{
			Gaussian{Delta: delta}, WendlandC2{Delta: delta},
			Matern32{Delta: delta}, Matern52{Delta: delta},
		} {
			r := zeroRadius(k)
			if math.IsInf(r, 0) || !(r > 0) {
				t.Fatalf("%#v: zero radius %v", k, r)
			}
			for _, x := range []float64{r, math.Nextafter(r, math.Inf(1)), 2 * r, math.Sqrt(r * r), math.Inf(1)} {
				if v := k.Eval(x); v != 0 {
					t.Errorf("%#v: Eval(%v) = %v beyond the zero radius %v", k, x, v, r)
				}
			}
			switch k.(type) {
			case Gaussian, WendlandC2:
				if v := k.Eval(0.99 * r); v == 0 {
					t.Errorf("%#v: Eval(0.99·%v) = 0, the radius is not tight", k, r)
				}
			}
		}
	}
	for _, k := range []Kernel{Gaussian{}, Gaussian{Delta: -1}, WendlandC2{Delta: math.NaN()},
		Gaussian{Delta: 1e-320}, Matern32{Delta: 1e300}, polyKernel{}} {
		if r := zeroRadius(k); !math.IsInf(r, 1) {
			t.Errorf("%#v: zero radius %v, want +Inf", k, r)
		}
	}
}

// polyKernel is a kernel zeroRadius knows nothing about.
type polyKernel struct{}

func (polyKernel) Eval(r float64) float64 { return 1 / (1 + r*r) }
func (polyKernel) Diag() float64          { return 1 }

// FuzzBlockBitwise checks Block against the entrywise reference on
// arbitrary finite point sets, shape parameters, kernels and ranges.
func FuzzBlockBitwise(f *testing.F) {
	pts := VirusPopulation(DefaultVirusConfig(64))[:64]
	seed := make([]byte, 0, 24*len(pts))
	for _, p := range pts {
		for _, v := range []float64{p.X, p.Y, p.Z} {
			seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(v))
		}
	}
	shape := DefaultShape(pts)
	for kind := range uint8(4) {
		f.Add(kind, 2*shape, uint16(0), uint16(64), uint16(0), uint16(64), seed)
		f.Add(kind, 0.05*shape, uint16(10), uint16(40), uint16(30), uint16(60), seed)
	}
	f.Add(uint8(0), 1e-300, uint16(0), uint16(3), uint16(0), uint16(3), make([]byte, 24*3))
	f.Fuzz(func(t *testing.T, kind uint8, delta float64, r0, r1, c0, c1 uint16, data []byte) {
		const maxPoints = 256
		var pts []Point
		for len(data) >= 24 && len(pts) < maxPoints {
			var c [3]float64
			for a := range c {
				c[a] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*a:]))
				if math.IsNaN(c[a]) || math.IsInf(c[a], 0) {
					c[a] = 0
				}
			}
			pts = append(pts, Point{c[0], c[1], c[2]})
			data = data[24:]
		}
		if math.IsNaN(delta) || math.IsInf(delta, 0) {
			delta = 1
		}
		ks := []Kernel{Gaussian{Delta: delta, Nugget: 1e-4}, WendlandC2{Delta: delta}, Matern32{Delta: delta}, Matern52{Delta: delta}}
		p := &Problem{Points: pts, Kernel: ks[int(kind)%len(ks)]}
		n := len(pts) + 1
		lo, hi := int(r0)%n, int(r1)%n
		clo, chi := int(c0)%n, int(c1)%n
		if lo > hi {
			lo, hi = hi, lo
		}
		if clo > chi {
			clo, chi = chi, clo
		}
		for _, r := range [][4]int{{lo, hi, clo, chi}, {lo, hi, lo, hi}} {
			if err := sameBits(p.Block(r[0], r[1], r[2], r[3]), refBlock(p, r[0], r[1], r[2], r[3])); err != nil {
				t.Fatalf("%#v Block%v: %v", p.Kernel, r, err)
			}
		}
	})
}
