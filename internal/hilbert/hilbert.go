// Package hilbert implements a 3D Hilbert space-filling curve, the
// paper's reordering of unstructured mesh points before matrix assembly
// (rbf.HilbertSort; the library itself orders by KD bisection). Hilbert
// ordering preserves spatial locality: points close in 3D stay close in
// the 1D ordering, which clusters strong kernel interactions near the
// matrix diagonal, improving the compression rate and reducing the
// arithmetic complexity of the TLR factorization (Section IV-C of the
// paper).
//
// The encoding follows Skilling's transpose algorithm ("Programming the
// Hilbert curve", AIP 2004), which maps between axis coordinates and the
// bit-transposed Hilbert index without lookup tables.
package hilbert

// Index3D returns the Hilbert-curve index of the integer grid point
// (x,y,z), where each coordinate uses the given number of bits
// (1 ≤ bits ≤ 21 so the result fits in a uint64).
func Index3D(x, y, z uint32, bits uint) uint64 {
	if bits < 1 || bits > 21 {
		panic("hilbert: bits must be in [1,21]")
	}
	X := [3]uint32{x, y, z}
	axesToTranspose(&X, bits)
	// Interleave the transposed bits, most significant first:
	// bit b of X[0], X[1], X[2] in that order.
	var h uint64
	for b := int(bits) - 1; b >= 0; b-- {
		for i := 0; i < 3; i++ {
			h = (h << 1) | uint64((X[i]>>uint(b))&1)
		}
	}
	return h
}

// Coords3D inverts Index3D: it returns the grid point at Hilbert index h.
func Coords3D(h uint64, bits uint) (x, y, z uint32) {
	if bits < 1 || bits > 21 {
		panic("hilbert: bits must be in [1,21]")
	}
	var X [3]uint32
	for b := 0; b < int(bits); b++ {
		for i := 2; i >= 0; i-- {
			X[i] |= uint32(h&1) << uint(b)
			h >>= 1
		}
	}
	transposeToAxes(&X, bits)
	return X[0], X[1], X[2]
}

func axesToTranspose(x *[3]uint32, bits uint) {
	m := uint32(1) << (bits - 1)
	// Inverse undo excess work.
	for q := m; q > 1; q >>= 1 {
		p := q - 1
		for i := 0; i < 3; i++ {
			if x[i]&q != 0 {
				x[0] ^= p
			} else {
				t := (x[0] ^ x[i]) & p
				x[0] ^= t
				x[i] ^= t
			}
		}
	}
	// Gray encode.
	for i := 1; i < 3; i++ {
		x[i] ^= x[i-1]
	}
	var t uint32
	for q := m; q > 1; q >>= 1 {
		if x[2]&q != 0 {
			t ^= q - 1
		}
	}
	for i := 0; i < 3; i++ {
		x[i] ^= t
	}
}

func transposeToAxes(x *[3]uint32, bits uint) {
	n := uint32(2) << (bits - 1)
	// Gray decode by H ^ (H/2).
	t := x[2] >> 1
	for i := 2; i > 0; i-- {
		x[i] ^= x[i-1]
	}
	x[0] ^= t
	// Undo excess work.
	for q := uint32(2); q != n; q <<= 1 {
		p := q - 1
		for i := 2; i >= 0; i-- {
			if x[i]&q != 0 {
				x[0] ^= p
			} else {
				tt := (x[0] ^ x[i]) & p
				x[0] ^= tt
				x[i] ^= tt
			}
		}
	}
}
