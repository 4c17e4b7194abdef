//go:build amd64 && !purego

package dense

// useArchKernel selects the AVX2+FMA micro-kernel when the CPU and OS
// support it (CPUID + XGETBV probe in kernel_amd64.s).
var useArchKernel = hasAVX2FMA()

func init() {
	if useArchKernel {
		gemmMR = 8
	}
}

// hasAVX2FMA reports whether the CPU and OS support AVX2 + FMA3 +
// OS-saved ymm state (CPUID leaves 1 and 7 plus XGETBV); implemented in
// kernel_amd64.s.
func hasAVX2FMA() bool

// microKernel8x4Asm computes the 8×4 packed micro-tile product
// acc = Σ_p a(:,p)·b(p,:) over kb steps with AVX2 VFMADD231PD;
// implemented in kernel_amd64.s. kb must be > 0; ap holds kb×8 packed
// op(A) values, bp kb×4 packed op(B) values.
//
//go:noescape
func microKernel8x4Asm(kb int, ap, bp, acc *float64)

// microDot4Asm computes four independent dot products sharing one
// op(B) column: acc[r] = Σ_p a_r[p·sa/8]·b[p·sb/8], each as a single
// VFMADD231SD chain in ascending p — bitwise the per-element sequence
// of the packed 8×4 kernel. sa and sb are byte strides; kb must be > 0.
// Implemented in kernel_amd64.s.
//
//go:noescape
func microDot4Asm(kb int, a0, a1, a2, a3 *float64, sa int, b *float64, sb int, acc *[4]float64)

// microKernelArch is the architecture micro-kernel behind useArchKernel.
func microKernelArch(kb int, ap, bp []float64, acc *[gemmMRMax * gemmNR]float64) {
	if kb == 0 {
		for i := range acc {
			acc[i] = 0
		}
		return
	}
	_ = ap[kb*8-1]
	_ = bp[kb*4-1]
	microKernel8x4Asm(kb, &ap[0], &bp[0], &acc[0])
}

// dotAsm returns Σ x[i]·y[i] over the first n&^3 elements with AVX2
// VFMADD231PD; the caller adds the rest. Implemented in kernel_amd64.s.
//
//go:noescape
func dotAsm(x, y *float64, n int) float64

// axpyAsm computes y[i] += alpha·x[i] over the first n&^3 elements with
// AVX2 VFMADD231PD; the caller updates the rest. Implemented in
// kernel_amd64.s.
//
//go:noescape
func axpyAsm(alpha float64, x, y *float64, n int)

// rotAsm applies the plane rotation (x, y) ← (c·x − s·y, s·x + c·y) to
// the first n&^3 elements with AVX2 FMA; the caller rotates the rest.
// Implemented in kernel_amd64.s.
//
//go:noescape
func rotAsm(c, s float64, x, y *float64, n int)
