// Package rbf implements the application driver of the paper: 3D
// unstructured mesh deformation by Radial Basis Function interpolation
// with a Gaussian kernel (Section IV-C). It provides synthetic
// "virus population" geometries standing in for the SARS-CoV-2 surface
// meshes extracted from PDB 6VXX (which are not redistributable),
// point reordering (KD bisection aligned to tiles in NewProblem; the
// paper's Hilbert curve in HilbertSort), kernel-matrix assembly (full or
// per tile), and the RBF interpolation used to propagate boundary
// displacements into a volume mesh.
package rbf

import (
	"math"
	"math/rand"
	"slices"
	"sort"

	"tlrchol/internal/hilbert"
)

// Point is a location in 3D space.
type Point struct {
	X, Y, Z float64
}

// Sub returns p − q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y, p.Z - q.Z} }

// Norm returns the Euclidean length of p.
func (p Point) Norm() float64 { return math.Sqrt(p.norm2()) }

// norm2 returns the squared length, the radicand of Norm.
func (p Point) norm2() float64 { return p.X*p.X + p.Y*p.Y + p.Z*p.Z }

// Dist returns the Euclidean distance between p and q.
func Dist(p, q Point) float64 { return p.Sub(q).Norm() }

// VirusConfig describes a synthetic population of spiked spheres packed
// in a cube, mimicking the paper's SARS-CoV-2 dataset: each "virus" is a
// sphere sampled quasi-uniformly with protruding spikes.
type VirusConfig struct {
	// Viruses is the number of bodies in the cube (paper: 30 … 1200).
	Viruses int
	// PointsPerVirus is the surface resolution (paper: 44932).
	PointsPerVirus int
	// CubeEdge is the domain edge length (paper: 1.7 µm; unit-free here).
	CubeEdge float64
	// Radius is the sphere radius of each body.
	Radius float64
	// SpikeFraction of the points are pushed outward to form spikes.
	SpikeFraction float64
	// SpikeHeight is the relative protrusion of spike points.
	SpikeHeight float64
	// Seed makes the geometry reproducible.
	Seed int64
}

// DefaultVirusConfig returns a configuration that scales the paper's
// geometry down to n total mesh points, preserving its qualitative
// properties (many small clustered bodies filling a cube).
func DefaultVirusConfig(n int) VirusConfig {
	viruses := n / 256
	if viruses < 2 {
		viruses = 2
	}
	// Round up so the population always contains at least n points;
	// callers slice to the exact count they need.
	perVirus := (n + viruses - 1) / viruses
	return VirusConfig{
		Viruses:        viruses,
		PointsPerVirus: perVirus,
		CubeEdge:       1.7,
		Radius:         0.035, // tuned so bodies occupy a virus-like volume fraction
		SpikeFraction:  0.15,
		SpikeHeight:    0.25,
		Seed:           42,
	}
}

// VirusPopulation generates the synthetic mesh: Viruses spiked spheres
// with centers uniformly random in the cube, each carrying
// PointsPerVirus surface points placed by a Fibonacci sphere lattice
// (quasi-uniform), a fraction of which are extruded into spikes.
func VirusPopulation(cfg VirusConfig) []Point {
	rng := rand.New(rand.NewSource(cfg.Seed))
	pts := make([]Point, 0, cfg.Viruses*cfg.PointsPerVirus)
	margin := cfg.Radius * (1 + cfg.SpikeHeight)
	for v := 0; v < cfg.Viruses; v++ {
		c := Point{
			X: margin + rng.Float64()*(cfg.CubeEdge-2*margin),
			Y: margin + rng.Float64()*(cfg.CubeEdge-2*margin),
			Z: margin + rng.Float64()*(cfg.CubeEdge-2*margin),
		}
		pts = append(pts, spikedSphere(rng, c, cfg.Radius, cfg.PointsPerVirus, cfg.SpikeFraction, cfg.SpikeHeight)...)
	}
	return pts
}

// spikedSphere samples n points on a sphere of the given radius around
// center using the Fibonacci lattice, randomly extruding a fraction of
// them to emulate protein spikes.
func spikedSphere(rng *rand.Rand, center Point, radius float64, n int, spikeFrac, spikeHeight float64) []Point {
	const golden = math.Pi * (3 - 2.23606797749979) // π(3−√5)
	pts := make([]Point, n)
	for i := 0; i < n; i++ {
		y := 1 - 2*(float64(i)+0.5)/float64(n)
		r := math.Sqrt(1 - y*y)
		theta := golden * float64(i)
		r3 := radius
		if rng.Float64() < spikeFrac {
			r3 *= 1 + spikeHeight*rng.Float64()
		}
		pts[i] = Point{
			X: center.X + r3*r*math.Cos(theta),
			Y: center.Y + r3*y,
			Z: center.Z + r3*r*math.Sin(theta),
		}
	}
	return pts
}

// HilbertSort reorders points in place along a 3D Hilbert curve over
// their bounding box, returning the permutation applied (perm[i] is the
// original index of the point now at position i). This is the mesh
// reordering of Section IV-C that concentrates strong interactions near
// the matrix diagonal; NewProblem orders by KD bisection instead, and
// this stays for comparison with the paper.
func HilbertSort(pts []Point) []int {
	const bits = 16
	if len(pts) == 0 {
		return nil
	}
	box := Bounds(pts)
	minP, maxP := box.Min, box.Max
	scale := func(v, lo, hi float64) uint32 {
		if hi <= lo {
			return 0
		}
		s := (v - lo) / (hi - lo) * float64((uint32(1)<<bits)-1)
		return uint32(s)
	}
	type keyed struct {
		key  uint64
		orig int
	}
	ks := make([]keyed, len(pts))
	for i, p := range pts {
		ks[i] = keyed{
			key: hilbert.Index3D(
				scale(p.X, minP.X, maxP.X),
				scale(p.Y, minP.Y, maxP.Y),
				scale(p.Z, minP.Z, maxP.Z),
				bits),
			orig: i,
		}
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i].key < ks[j].key })
	out := make([]Point, len(pts))
	perm := make([]int, len(pts))
	for i, k := range ks {
		out[i] = pts[k.orig]
		perm[i] = k.orig
	}
	copy(pts, out)
	return perm
}

// MinDistance returns the minimum pairwise distance among pts, computed
// with a uniform cell grid so the expected cost is O(n) for
// quasi-uniform point sets. The paper's default shape parameter is half
// this value (δ = ½·min‖x−x_b‖).
func MinDistance(pts []Point) float64 {
	n := len(pts)
	if n < 2 {
		return 0
	}
	box := Bounds(pts)
	minP, maxP := box.Min, box.Max
	// Pick a grid with about n cells.
	cells := int(math.Cbrt(float64(n)))
	if cells < 1 {
		cells = 1
	}
	ext := math.Max(maxP.X-minP.X, math.Max(maxP.Y-minP.Y, maxP.Z-minP.Z))
	if ext == 0 {
		return 0
	}
	h := ext / float64(cells)
	idx := func(p Point) [3]int {
		c := [3]int{
			int((p.X - minP.X) / h),
			int((p.Y - minP.Y) / h),
			int((p.Z - minP.Z) / h),
		}
		for i := range c {
			if c[i] >= cells {
				c[i] = cells - 1
			}
			if c[i] < 0 {
				c[i] = 0
			}
		}
		return c
	}
	// The cells as CSR, filled by a counting sort: the points of cell c
	// are members[start[c]:start[c+1]], in increasing index order.
	cell := func(c [3]int) int { return (c[0]*cells+c[1])*cells + c[2] }
	start := make([]int32, cells*cells*cells+1)
	for _, p := range pts {
		start[cell(idx(p))+1]++
	}
	for c := 1; c < len(start); c++ {
		start[c] += start[c-1]
	}
	members, fill := make([]int32, n), slices.Clone(start)
	for i, p := range pts {
		c := cell(idx(p))
		members[fill[c]] = int32(i)
		fill[c]++
	}
	best := math.Inf(1)
	for i, p := range pts {
		c := idx(p)
		for dx := -1; dx <= 1; dx++ {
			for dy := -1; dy <= 1; dy++ {
				for dz := -1; dz <= 1; dz++ {
					nc := [3]int{c[0] + dx, c[1] + dy, c[2] + dz}
					if min(nc[0], nc[1], nc[2]) < 0 || max(nc[0], nc[1], nc[2]) >= cells {
						continue
					}
					k := cell(nc)
					for _, j := range members[start[k]:start[k+1]] {
						if int(j) <= i {
							continue
						}
						if d := Dist(p, pts[j]); d < best {
							best = d
						}
					}
				}
			}
		}
	}
	if best > h {
		// The grid scan is only exhaustive for pairs closer than one cell
		// width; if nothing that close was found, fall back to the exact
		// quadratic search.
		best = math.Inf(1)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if d := Dist(pts[i], pts[j]); d < best {
					best = d
				}
			}
		}
	}
	return best
}
