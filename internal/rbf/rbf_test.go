package rbf

import (
	"math"
	"math/rand"
	"testing"

	"tlrchol/internal/dense"
)

func TestVirusPopulationShape(t *testing.T) {
	cfg := VirusConfig{
		Viruses: 4, PointsPerVirus: 100, CubeEdge: 1.7,
		Radius: 0.05, SpikeFraction: 0.2, SpikeHeight: 0.3, Seed: 1,
	}
	pts := VirusPopulation(cfg)
	if len(pts) != 400 {
		t.Fatalf("expected 400 points, got %d", len(pts))
	}
	for _, p := range pts {
		if p.X < 0 || p.X > 1.7 || p.Y < 0 || p.Y > 1.7 || p.Z < 0 || p.Z > 1.7 {
			t.Fatalf("point outside cube: %+v", p)
		}
	}
}

func TestVirusPopulationDeterministic(t *testing.T) {
	cfg := DefaultVirusConfig(512)
	a := VirusPopulation(cfg)
	b := VirusPopulation(cfg)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed must give same geometry")
		}
	}
}

func TestVirusPointsClustered(t *testing.T) {
	// All points of one virus lie within (1+spike)·radius of its center:
	// verify the point cloud is clustered, not uniform, by checking that
	// per-virus bounding spheres are small relative to the cube.
	cfg := VirusConfig{
		Viruses: 3, PointsPerVirus: 64, CubeEdge: 1.7,
		Radius: 0.04, SpikeFraction: 0.1, SpikeHeight: 0.2, Seed: 7,
	}
	pts := VirusPopulation(cfg)
	for v := 0; v < 3; v++ {
		chunk := pts[v*64 : (v+1)*64]
		var c Point
		for _, p := range chunk {
			c.X += p.X / 64
			c.Y += p.Y / 64
			c.Z += p.Z / 64
		}
		for _, p := range chunk {
			if Dist(p, c) > 0.06 {
				t.Fatalf("virus %d point too far from centroid: %g", v, Dist(p, c))
			}
		}
	}
}

func TestHilbertSortImprovesLocality(t *testing.T) {
	cfg := DefaultVirusConfig(600)
	pts := VirusPopulation(cfg)
	// Shuffle to destroy any generation-order locality.
	rng := rand.New(rand.NewSource(3))
	rng.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
	before := pathLength(pts)
	sorted := append([]Point(nil), pts...)
	perm := HilbertSort(sorted)
	after := pathLength(sorted)
	if after >= before {
		t.Fatalf("Hilbert sort should shorten the traversal path: %g -> %g", before, after)
	}
	// perm is a valid permutation mapping sorted back to the input.
	seen := make([]bool, len(pts))
	for i, p := range perm {
		if seen[p] {
			t.Fatalf("perm not a permutation")
		}
		seen[p] = true
		if sorted[i] != pts[p] {
			t.Fatalf("perm does not map to original points")
		}
	}
}

func pathLength(pts []Point) float64 {
	var s float64
	for i := 1; i < len(pts); i++ {
		s += Dist(pts[i-1], pts[i])
	}
	return s
}

func TestMinDistanceMatchesBruteForce(t *testing.T) {
	bruteForce := func(pts []Point) float64 {
		want := math.Inf(1)
		for i := range pts {
			for j := i + 1; j < len(pts); j++ {
				if d := Dist(pts[i], pts[j]); d < want {
					want = d
				}
			}
		}
		return want
	}
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 5; trial++ {
		n := 50 + rng.Intn(200)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{rng.Float64(), rng.Float64(), rng.Float64()}
		}
		if got, want := MinDistance(pts), bruteForce(pts); got != want {
			t.Fatalf("MinDistance %g want %g (n=%d)", got, want, n)
		}
	}
	// The clustered geometries the service and the benchmark build, bit
	// for bit.
	for _, g := range []struct {
		n    int
		seed int64
	}{{2048, 43}, {2048, 44}, {2048, 45}, {2048, 46}, {2048, 47}, {2048, 48}, {4096, 42}} {
		cfg := DefaultVirusConfig(g.n)
		cfg.Seed = g.seed
		pts := VirusPopulation(cfg)[:g.n]
		if got, want := MinDistance(pts), bruteForce(pts); got != want {
			t.Fatalf("virus n=%d seed=%d: MinDistance %v want %v", g.n, g.seed, got, want)
		}
	}
}

func TestMinDistanceEdgeCases(t *testing.T) {
	if MinDistance(nil) != 0 {
		t.Fatalf("empty set")
	}
	if MinDistance([]Point{{1, 1, 1}}) != 0 {
		t.Fatalf("single point")
	}
	got := MinDistance([]Point{{0, 0, 0}, {3, 4, 0}})
	if math.Abs(got-5) > 1e-12 {
		t.Fatalf("two points: %g", got)
	}
}

func TestGaussianKernel(t *testing.T) {
	g := Gaussian{Delta: 2}
	if math.Abs(g.Eval(0)-1) > 1e-15 {
		t.Fatalf("phi(0) must be 1")
	}
	if math.Abs(g.Eval(2)-math.Exp(-1)) > 1e-15 {
		t.Fatalf("phi(delta) must be e^-1")
	}
	if g.Eval(100) > 1e-300 {
		// far-field values decay to numerical zero: the source of the
		// paper's null tiles.
		t.Fatalf("far field should vanish")
	}
}

func TestKernelMatrixSPD(t *testing.T) {
	cfg := DefaultVirusConfig(300)
	pts := VirusPopulation(cfg)
	prob, _ := NewProblem(pts, Gaussian{Delta: DefaultShape(pts)})
	k := prob.Dense()
	// Symmetric with unit diagonal.
	for i := 0; i < 20; i++ {
		if math.Abs(k.At(i, i)-1) > 1e-15 {
			t.Fatalf("diagonal must be phi(0)=1")
		}
		for j := 0; j < i; j++ {
			if k.At(i, j) != k.At(j, i) {
				t.Fatalf("kernel matrix must be symmetric")
			}
		}
	}
	// Gaussian kernels on distinct points are strictly positive definite.
	if err := dense.Potrf(k); err != nil {
		t.Fatalf("kernel matrix should be SPD: %v", err)
	}
}

func TestBlockMatchesDense(t *testing.T) {
	cfg := DefaultVirusConfig(200)
	pts := VirusPopulation(cfg)
	prob, _ := NewProblem(pts, Gaussian{Delta: 0.01})
	full := prob.Dense()
	blk := prob.Block(50, 90, 10, 60)
	for i := 0; i < 40; i++ {
		for j := 0; j < 50; j++ {
			if blk.At(i, j) != full.At(50+i, 10+j) {
				t.Fatalf("Block mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestShapeParameterControlsDecay(t *testing.T) {
	// Larger delta → stronger long-distance correlation → larger
	// off-diagonal entries. This is the knob behind Figs 1, 4 and 8.
	p1 := &Problem{Points: []Point{{0, 0, 0}, {0.1, 0, 0}}, Kernel: Gaussian{Delta: 1e-3}}
	p2 := &Problem{Points: []Point{{0, 0, 0}, {0.1, 0, 0}}, Kernel: Gaussian{Delta: 1e-1}}
	if p1.Entry(0, 1) >= p2.Entry(0, 1) {
		t.Fatalf("larger shape parameter must increase correlation")
	}
}

func TestInterpolantReproducesBoundaryData(t *testing.T) {
	cfg := DefaultVirusConfig(250)
	pts := VirusPopulation(cfg)
	prob, _ := NewProblem(pts, Gaussian{Delta: DefaultShape(pts)})
	n := prob.N()
	// Known displacement field: rigid translation + small sine wiggle.
	d := dense.NewMatrix(n, 3)
	for i, p := range prob.Points {
		d.Set(i, 0, 0.1+0.01*math.Sin(3*p.Y))
		d.Set(i, 1, -0.05)
		d.Set(i, 2, 0.02*p.X)
	}
	want := d.Clone()
	k := prob.Dense()
	if err := dense.Potrf(k); err != nil {
		t.Fatal(err)
	}
	dense.CholSolve(k, d)
	ip := &Interpolant{Problem: prob, Alpha: d}
	// Interpolation conditions d(x_bi) = d_bi must hold at the boundary.
	for i := 0; i < n; i += 37 {
		got := ip.Eval(prob.Points[i])
		if math.Abs(got.X-want.At(i, 0)) > 1e-6 ||
			math.Abs(got.Y-want.At(i, 1)) > 1e-6 ||
			math.Abs(got.Z-want.At(i, 2)) > 1e-6 {
			t.Fatalf("interpolant does not reproduce boundary data at %d: %+v", i, got)
		}
	}
}

func TestWendlandCompactSupport(t *testing.T) {
	w := WendlandC2{Delta: 0.5}
	if math.Abs(w.Eval(0)-1) > 1e-15 {
		t.Fatalf("phi(0) must be 1, got %g", w.Eval(0))
	}
	if w.Eval(0.5) != 0 || w.Eval(10) != 0 {
		t.Fatalf("compact support: exactly zero at and beyond delta")
	}
	// Monotone decreasing on [0, delta].
	prev := w.Eval(0)
	for r := 0.05; r < 0.5; r += 0.05 {
		v := w.Eval(r)
		if v > prev {
			t.Fatalf("Wendland kernel must decrease")
		}
		prev = v
	}
	if w.Diag() != 1 {
		t.Fatalf("Diag without nugget must be 1")
	}
}

func TestWendlandMatrixSPDAndSparse(t *testing.T) {
	pts := VirusPopulation(DefaultVirusConfig(400))[:400]
	// Support radius a few spacings wide: SPD and truly sparse.
	prob, _ := NewProblem(pts, WendlandC2{Delta: 6 * DefaultShape(pts)})
	k := prob.Dense()
	var zeros, total int
	for i := 0; i < 400; i++ {
		for j := 0; j < i; j++ {
			total++
			if k.At(i, j) == 0 {
				zeros++
			}
		}
	}
	if zeros == 0 || zeros == total {
		t.Fatalf("Wendland matrix should be sparse but not empty: %d/%d zeros", zeros, total)
	}
	if err := dense.Potrf(k); err != nil {
		t.Fatalf("Wendland C2 matrix should be SPD in 3D: %v", err)
	}
}

func TestGaussianVsWendlandDensity(t *testing.T) {
	// Section IV-C: global support produces a dense operator, compact
	// support a sparse one — at matched radii the Gaussian matrix has
	// strictly more non-zero entries.
	pts := VirusPopulation(DefaultVirusConfig(300))[:300]
	delta := 4 * DefaultShape(pts)
	g, _ := NewProblem(append([]Point(nil), pts...), Gaussian{Delta: delta})
	w, _ := NewProblem(append([]Point(nil), pts...), WendlandC2{Delta: delta})
	gd, wd := g.Dense(), w.Dense()
	var gnz, wnz int
	for i := 0; i < 300; i++ {
		for j := 0; j < i; j++ {
			if gd.At(i, j) != 0 {
				gnz++
			}
			if wd.At(i, j) != 0 {
				wnz++
			}
		}
	}
	if gnz <= wnz {
		t.Fatalf("global support must be denser: gaussian %d vs wendland %d", gnz, wnz)
	}
}

func TestMaternKernels(t *testing.T) {
	for _, k := range []Kernel{Matern32{Delta: 0.1}, Matern52{Delta: 0.1}} {
		if math.Abs(k.Eval(0)-1) > 1e-15 {
			t.Fatalf("phi(0) must be 1")
		}
		prev := k.Eval(0)
		for r := 0.01; r < 1; r += 0.01 {
			v := k.Eval(r)
			if v > prev || v < 0 {
				t.Fatalf("Matérn kernel must decay monotonically to 0")
			}
			prev = v
		}
	}
	// Smoother kernel decays SLOWER near the origin (higher ν).
	m32, m52 := Matern32{Delta: 1}, Matern52{Delta: 1}
	if m52.Eval(0.1) < m32.Eval(0.1) {
		t.Fatalf("Matérn 5/2 should stay higher near the origin")
	}
}

func TestMaternCovarianceSPDAndCompressible(t *testing.T) {
	pts := VirusPopulation(DefaultVirusConfig(400))[:400]
	prob, _ := NewProblem(pts, Matern32{Delta: 4 * DefaultShape(pts), Nugget: 1e-6})
	k := prob.Dense()
	if err := dense.Potrf(k.Clone()); err != nil {
		t.Fatalf("Matérn covariance should be SPD: %v", err)
	}
}
