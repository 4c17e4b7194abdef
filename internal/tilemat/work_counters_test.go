package tilemat

import (
	"runtime"
	"testing"

	"tlrchol/internal/dense"
	"tlrchol/internal/obs"
	"tlrchol/internal/rbf"
)

// TestAssemblyWorkCounters pins the assembly work of one FromAssembler
// pass over the factor-rank benchmark geometry (N=4096 virus points of
// seed 42 in KD order, Gaussian δ = 2× the default shape, tiles of
// 128): how many of its 528 blocks rbf.Problem.Block proves zero from
// the tile boxes, and how many kernel entries it evaluates. A change in
// either is a change in what the assembler computes. It also bounds the
// heap bytes the pass allocates (runtime.MemStats.TotalAlloc), which
// only a proven-zero block that costs no allocation keeps under
// maxPassBytes.
func TestAssemblyWorkCounters(t *testing.T) {
	const n, b, maxPassBytes = 4096, 128, 20 << 20
	pts := rbf.VirusPopulation(rbf.DefaultVirusConfig(n))[:n]
	p, _ := rbf.NewProblem(pts, rbf.Gaussian{Delta: 2 * rbf.DefaultShape(pts), Nugget: 1e-4})
	zero, evals := obs.Default.Counter("rbf.block.zero"), obs.Default.Counter("rbf.kernel_evals")
	z0, e0 := zero.Value(), evals.Value()
	calls := 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, st := FromAssembler(n, b, func(r0, r1, c0, c1 int) *dense.Matrix {
		calls++
		return p.Block(r0, r1, c0, c1)
	}, 1e-6, 0)
	runtime.ReadMemStats(&after)
	gotZero, gotEvals := zero.Value()-z0, evals.Value()-e0
	// 461 of the 496 off-diagonal tiles compress to Zero; 436 of them
	// are exactly zero and never evaluated. Evaluating every entry
	// would take 8646656 kernel calls (diagonal tiles without their
	// diagonal).
	if calls != 528 || st.ZeroTiles != 461 || gotZero != 436 || gotEvals != 605233 {
		t.Errorf("%d blocks, %d zero tiles, rbf.block.zero %d, rbf.kernel_evals %d; want 528, 461, 436, 605233",
			calls, st.ZeroTiles, gotZero, gotEvals)
	}
	// The 92 blocks that are evaluated hold 12 MB and the low-rank
	// factors about 2 MB; the pass allocated 16.4 MB on linux/amd64.
	// Allocating the 436 proven-zero blocks as well adds 57 MB.
	if got := after.TotalAlloc - before.TotalAlloc; got > maxPassBytes {
		t.Errorf("one pass allocated %d bytes, want at most %d", got, maxPassBytes)
	}
}
