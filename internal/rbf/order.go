package rbf

import (
	"cmp"
	"math/bits"
	"slices"
)

// Box is the axis-aligned bounding box of a point set.
type Box struct {
	Min, Max Point
}

// Bounds returns the bounding box of pts (the zero Box when pts is
// empty).
func Bounds(pts []Point) Box {
	if len(pts) == 0 {
		return Box{}
	}
	b := Box{pts[0], pts[0]}
	for _, p := range pts[1:] {
		b.add(p)
	}
	return b
}

func (b *Box) add(p Point) {
	b.Min = Point{min(b.Min.X, p.X), min(b.Min.Y, p.Y), min(b.Min.Z, p.Z)}
	b.Max = Point{max(b.Max.X, p.X), max(b.Max.Y, p.Y), max(b.Max.Z, p.Z)}
}

// gap2 returns the squared distance between boxes b and c (0 if they
// overlap). Rounding is monotone, so it is at most the squared distance
// computed for any point of b and any point of c.
func (b Box) gap2(c Box) float64 {
	g := Point{
		max(0, c.Min.X-b.Max.X, b.Min.X-c.Max.X),
		max(0, c.Min.Y-b.Max.Y, b.Min.Y-c.Max.Y),
		max(0, c.Min.Z-b.Max.Z, b.Min.Z-c.Max.Z),
	}
	return g.norm2()
}

// Diameter returns the length of the box's diagonal.
func (b Box) Diameter() float64 { return b.Max.Sub(b.Min).Norm() }

// widestAxis returns the axis (0 = X, 1 = Y, 2 = Z) along which the box
// is widest; ties go to the lower axis.
func (b Box) widestAxis() int {
	ext := b.Max.Sub(b.Min)
	axis, w := 0, ext.X
	if ext.Y > w {
		axis, w = 1, ext.Y
	}
	if ext.Z > w {
		axis = 2
	}
	return axis
}

// coord returns the coordinate of p along axis (0 = X, 1 = Y, 2 = Z).
func (p Point) coord(axis int) float64 {
	switch axis {
	case 0:
		return p.X
	case 1:
		return p.Y
	}
	return p.Z
}

// kdSplit returns how many of a KD node's n ≥ 2 points go to its left
// child: 2^(⌈log₂ n⌉−1), exactly half when n is a power of two. Cutting
// there makes every power-of-two-aligned run of positions one KD cell.
func kdSplit(n int) int { return 1 << (bits.Len(uint(n-1)) - 1) }

// kdSort reorders points in place by recursive bisection and returns
// the permutation applied (perm[i] is the original index of the point
// now at position i). Each node cuts along the widest axis of its
// bounding box and sends its first kdSplit(n) points in that coordinate
// to the left; ties break by original index, so the order depends only
// on the input. Because the cut falls on a power of two, every tile row
// of any power-of-two tile size is a single compact cell.
func kdSort(pts []Point) []int {
	orig := slices.Clone(pts)
	perm := make([]int, len(pts))
	for i := range perm {
		perm[i] = i
	}
	kdBisect(orig, perm)
	for i, o := range perm {
		pts[i] = orig[o]
	}
	return perm
}

// kdBisect orders idx (indices into pts) as the KD tree over those
// points lists its leaves.
func kdBisect(pts []Point, idx []int) {
	if len(idx) < 2 {
		return
	}
	b := Box{pts[idx[0]], pts[idx[0]]}
	for _, i := range idx[1:] {
		b.add(pts[i])
	}
	axis := b.widestAxis()
	slices.SortFunc(idx, func(i, j int) int {
		if c := cmp.Compare(pts[i].coord(axis), pts[j].coord(axis)); c != 0 {
			return c
		}
		return i - j
	})
	left := kdSplit(len(idx))
	kdBisect(pts, idx[:left])
	kdBisect(pts, idx[left:])
}
