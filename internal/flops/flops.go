// Package flops provides the floating-point operation counts of the
// dense and TLR Cholesky kernels. The discrete-event simulator converts
// these counts into task durations, and the roofline model of Fig 13
// sums the critical-path kernels with them.
package flops

// Potrf returns the flops of a dense Cholesky factorization of a b×b
// tile: b³/3 + b²/2 + b/6 (LAPACK working note counts).
func Potrf(b int) float64 {
	n := float64(b)
	return n*n*n/3 + n*n/2 + n/6
}

// TrsmDense returns the flops of a dense triangular solve of a b×b tile
// against a b×b right-hand side: b³.
func TrsmDense(b int) float64 {
	n := float64(b)
	return n * n * n
}

// TrsmLR returns the flops of the TLR TRSM touching only the V factor
// of a rank-k tile: one triangular solve with k right-hand sides, b²k.
func TrsmLR(b, k int) float64 {
	return float64(b) * float64(b) * float64(k)
}

// SyrkDense returns the flops of a dense symmetric rank-b update of a
// b×b tile: b²(b+1).
func SyrkDense(b int) float64 {
	n := float64(b)
	return n * n * (n + 1)
}

// SyrkLR returns the flops of the TLR SYRK C −= U(VᵀV)Uᵀ on a rank-k
// panel tile: W=VᵀV (bk²) + T=UW (2bk²) + lower-triangle update (b²k).
func SyrkLR(b, k int) float64 {
	bf, kf := float64(b), float64(k)
	return 3*bf*kf*kf + bf*bf*kf
}

// GemmDense returns the flops of a dense tile multiply-accumulate: 2b³.
func GemmDense(b int) float64 {
	n := float64(b)
	return 2 * n * n * n
}

// GemmLR returns the flops of the TLR GEMM C −= A·Bᵀ with ranks
// ka, kb of the panel tiles and kc the current rank of C, including the
// low-rank accumulation and QR+SVD recompression (the HCORE_GEMM cost
// model used by HiCMA):
//
//	core product  W = V_aᵀV_b, P = U_a·W     : 2b·ka·kb + 2b·ka·kb
//	QR of [U_c P] and [V_c U_b] (b×(kc+kb))  : 2·2b(kc+kb)²
//	SVD of the (kc+kb)² core (Jacobi sweeps) : c·(kc+kb)³
//	forming the truncated factors            : 2·2b(kc+kb)·min(kc+kb, …)
func GemmLR(b, ka, kb, kc int) float64 {
	bf := float64(b)
	kaf, kbf := float64(ka), float64(kb)
	s := float64(kc + kb)
	const svdC = 30 // empirical Jacobi constant
	return 4*bf*kaf*kbf + 4*bf*s*s + svdC*s*s*s + 4*bf*s*s
}

// Sytrf returns the flops of a dense unpivoted LDLᵀ factorization of a
// b×b tile: same b³/3 leading term as Cholesky (the square root per
// pivot is replaced by a reciprocal, lower-order).
func Sytrf(b int) float64 {
	n := float64(b)
	return n*n*n/3 + n*n/2 + n/6
}

// TrsmLDLtDense returns the flops of the dense LDLᵀ panel solve
// A·L⁻ᵀ·D⁻¹ of a b×b tile: the b³ triangular solve plus a b² diagonal
// scale.
func TrsmLDLtDense(b int) float64 {
	n := float64(b)
	return n*n*n + n*n
}

// TrsmLDLtLR returns the flops of the LDLᵀ panel solve on a rank-k
// tile: the b²k triangular solve on V plus a bk diagonal scale.
func TrsmLDLtLR(b, k int) float64 {
	return float64(b)*float64(b)*float64(k) + float64(b)*float64(k)
}

// SyrkDDense returns the flops of the dense D-weighted symmetric update
// C −= A·D·Aᵀ: a b² column scale plus the b²(b+1) SYRK.
func SyrkDDense(b int) float64 {
	n := float64(b)
	return n*n + n*n*(n+1)
}

// SyrkDLR returns the flops of the D-weighted TLR SYRK
// C −= U(VᵀDV)Uᵀ: SyrkLR plus the bk diagonal scale of V.
func SyrkDLR(b, k int) float64 {
	return SyrkLR(b, k) + float64(b)*float64(k)
}

// GemmDLR returns the flops of the D-weighted TLR GEMM
// C −= U_a(V_aᵀDV_b)U_bᵀ: GemmLR plus the b·kb diagonal scale of V_b.
func GemmDLR(b, ka, kb, kc int) float64 {
	return GemmLR(b, ka, kb, kc) + float64(b)*float64(kb)
}

// CompressQRCP returns the flops of compressing a dense b×b tile to
// rank k with truncated column-pivoted QR: ~4b²k.
func CompressQRCP(b, k int) float64 {
	return 4 * float64(b) * float64(b) * float64(k)
}

// GenerateTile returns the cost of assembling one b×b kernel tile
// (one exp() ≈ 20 flops per entry).
func GenerateTile(b int) float64 {
	return 20 * float64(b) * float64(b)
}

// SolveApplyDense returns the flops of one dense-tile substitution
// update dst −= T·x (or Tᵀ·x) against a single right-hand-side column:
// 2rc for an r×c tile.
func SolveApplyDense(r, c int) float64 {
	return 2 * float64(r) * float64(c)
}

// SolveApplyLR returns the flops of one low-rank-tile substitution
// update through the U·(Vᵀ·x) chain against a single column: 2k(r+c)
// for an r×c tile of rank k.
func SolveApplyLR(r, c, k int) float64 {
	return 2 * float64(k) * (float64(r) + float64(c))
}

// SolveTrsm returns the flops of one diagonal-tile triangular solve
// against a single column: b² for a b×b tile.
func SolveTrsm(b int) float64 {
	return float64(b) * float64(b)
}
