package rbf

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"
)

// checkKDOrder verifies kdSort's contract on one input: perm is a
// permutation with sorted[i] == input[perm[i]], a second run gives the
// same perm, and every node of the implied tree (split at kdSplit) cuts
// along the widest axis of its bounding box with no point of the left
// part beyond any point of the right part. Since each split is a power
// of two at least half the node, the nodes are exactly the
// power-of-two-aligned blocks of positions (and the remainders at the
// end), so every aligned block is a KD cell.
func checkKDOrder(t *testing.T, input []Point) {
	t.Helper()
	sorted := slices.Clone(input)
	perm := kdSort(sorted)
	if len(perm) != len(input) {
		t.Fatalf("perm has %d entries for %d points", len(perm), len(input))
	}
	seen := make([]bool, len(input))
	for i, o := range perm {
		if o < 0 || o >= len(input) || seen[o] {
			t.Fatalf("perm is not a permutation: %v", perm)
		}
		seen[o] = true
		if !samePoint(sorted[i], input[o]) {
			t.Fatalf("position %d holds %+v, but perm names input %d = %+v", i, sorted[i], o, input[o])
		}
	}
	again := slices.Clone(input)
	if p2 := kdSort(again); !slices.Equal(p2, perm) {
		t.Fatalf("ordering not deterministic")
	}
	checkCell(t, sorted, 0)
}

// checkCell verifies the KD node over pts (starting at position off)
// and recurses into its children.
func checkCell(t *testing.T, pts []Point, off int) {
	t.Helper()
	if len(pts) < 2 {
		return
	}
	box := Bounds(pts)
	ext := [3]float64{box.Max.X - box.Min.X, box.Max.Y - box.Min.Y, box.Max.Z - box.Min.Z}
	axis := 0
	for a := 1; a < 3; a++ {
		if ext[a] > ext[axis] {
			axis = a
		}
	}
	left := kdSplit(len(pts))
	if left <= 0 || left >= len(pts) || left&(left-1) != 0 || 2*left < len(pts) {
		t.Fatalf("split of %d points at %d", len(pts), left)
	}
	lb, rb := Bounds(pts[:left]), Bounds(pts[left:])
	if lb.Max.coord(axis) > rb.Min.coord(axis) {
		t.Fatalf("cell [%d,%d) overlaps its sibling [%d,%d) along axis %d: %g > %g",
			off, off+left, off+left, off+len(pts), axis, lb.Max.coord(axis), rb.Min.coord(axis))
	}
	checkCell(t, pts[:left], off)
	checkCell(t, pts[left:], off+left)
}

// samePoint compares bit patterns, so -0 and 0 stay distinct.
func samePoint(a, b Point) bool {
	return math.Float64bits(a.X) == math.Float64bits(b.X) &&
		math.Float64bits(a.Y) == math.Float64bits(b.Y) &&
		math.Float64bits(a.Z) == math.Float64bits(b.Z)
}

func TestKDOrderVirus(t *testing.T) {
	for _, n := range []int{512, 600, 1024} {
		checkKDOrder(t, VirusPopulation(DefaultVirusConfig(n))[:n])
	}
}

func TestKDOrderDegenerate(t *testing.T) {
	line := make([]Point, 37)
	plane := make([]Point, 64)
	equal := make([]Point, 9)
	dups := make([]Point, 20)
	for i := range line {
		line[i] = Point{X: 0.5 * float64(i%11), Y: float64(i % 11), Z: 2}
	}
	for i := range plane {
		plane[i] = Point{X: float64(i % 8), Y: 3, Z: float64((i * 5) % 13)}
	}
	for i := range equal {
		equal[i] = Point{1, -2, 3}
	}
	for i := range dups {
		dups[i] = Point{X: float64(i % 3), Y: float64(i % 2), Z: 0}
	}
	cases := map[string][]Point{
		"empty":     {},
		"one":       {{1, 2, 3}},
		"three":     {{0, 0, 0}, {2, 0, 0}, {1, 0, 0}},
		"collinear": line,
		"coplanar":  plane,
		"all-equal": equal,
		"dups":      dups,
		"signed-0":  {{0, 0, 0}, {math.Copysign(0, -1), 0, 0}, {0, 0, 0}},
	}
	for name, pts := range cases {
		t.Run(name, func(t *testing.T) { checkKDOrder(t, pts) })
	}
	// All-equal points keep their input order: every tie breaks by index.
	got := slices.Clone(equal)
	if perm := kdSort(got); !slices.Equal(perm, []int{0, 1, 2, 3, 4, 5, 6, 7, 8}) {
		t.Fatalf("equal points reordered: %v", perm)
	}
	// Three points on a line split 2 | 1 by coordinate.
	three := cases["three"]
	if perm := kdSort(slices.Clone(three)); !slices.Equal(perm, []int{0, 2, 1}) {
		t.Fatalf("three collinear points ordered %v, want [0 2 1]", perm)
	}
}

func TestNewProblemUsesKDOrder(t *testing.T) {
	pts := VirusPopulation(DefaultVirusConfig(300))[:300]
	want := slices.Clone(pts)
	wantPerm := kdSort(want)
	prob, perm := NewProblem(pts, Gaussian{Delta: 0.01})
	if !slices.Equal(perm, wantPerm) || !slices.Equal(prob.Points, want) || &prob.Points[0] != &pts[0] {
		t.Fatalf("NewProblem must reorder the caller's points in place by kdSort")
	}
}

// TestKDTileRowsTighterThanHilbert is the locality keystone on the
// factor-rank geometry (N 4096, tiles of 128, seed 42): a tile row
// under KD order spans a smaller box than under Hilbert order, which is
// what makes more tiles null and fewer tiles couple.
func TestKDTileRowsTighterThanHilbert(t *testing.T) {
	const n, b = 4096, 128
	pts := VirusPopulation(DefaultVirusConfig(n))[:n]
	hil := slices.Clone(pts)
	HilbertSort(hil)
	prob, _ := NewProblem(pts, Gaussian{Delta: 1})
	meanDiam := func(p []Point) float64 {
		var s float64
		for r := 0; r < n; r += b {
			s += Bounds(p[r : r+b]).Diameter()
		}
		return s / (n / b)
	}
	kd, hd := meanDiam(prob.Points), meanDiam(hil)
	t.Logf("mean tile-row diameter: KD %.3f, Hilbert %.3f", kd, hd)
	if kd >= hd {
		t.Fatalf("KD tile rows (mean diameter %.3f) not tighter than Hilbert's (%.3f)", kd, hd)
	}
}

func TestBoxDiameter(t *testing.T) {
	a := Bounds([]Point{{0, 0, 0}, {1, 1, 0}})
	if d := a.Diameter(); math.Abs(d-math.Sqrt2) > 1e-15 {
		t.Fatalf("diameter %g", d)
	}
	if (Bounds(nil) != Box{}) {
		t.Fatalf("empty bounds")
	}
}

// FuzzKDOrder checks kdSort's contract on arbitrary finite point sets:
// each 24 bytes of input is one point, and a non-finite coordinate is
// read as 0 so the set stays finite.
func FuzzKDOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, 24*5))
	seed := make([]byte, 0, 24*16)
	for i := 0; i < 16; i++ {
		for _, v := range []float64{float64(i % 4), float64(i % 3), 0.5 * float64(i%4)} {
			seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(v))
		}
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		const maxPoints = 512
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
		checkKDOrder(t, pts)
	})
}
