//go:build !amd64 || purego

package dense

// useArchKernel is false without an architecture micro-kernel; the
// scalar 2×4 kernel handles everything.
const useArchKernel = false

// microKernelArch is never called when useArchKernel is false; it
// exists so macroKernel's direct-call dispatch compiles everywhere.
func microKernelArch(kb int, ap, bp []float64, acc *[gemmMRMax * gemmNR]float64) {
	microKernelGeneric(kb, ap, bp, acc)
}

// microDot4Asm is never called when useArchKernel is false; gemmNarrow
// takes the generic mul+add branch instead.
func microDot4Asm(kb int, a0, a1, a2, a3 *float64, sa int, b *float64, sb int, acc *[4]float64) {
	panic("dense: microDot4Asm without an architecture kernel")
}

// dotAsm, axpyAsm and rotAsm are never called when useArchKernel is
// false; the level-1 primitives take their Go loops instead.
func dotAsm(x, y *float64, n int) float64 {
	panic("dense: dotAsm without an architecture kernel")
}

func axpyAsm(alpha float64, x, y *float64, n int) {
	panic("dense: axpyAsm without an architecture kernel")
}

func rotAsm(c, s float64, x, y *float64, n int) {
	panic("dense: rotAsm without an architecture kernel")
}
