package flops

import (
	"math"
	"testing"
)

func TestPotrfCubic(t *testing.T) {
	// Leading term b³/3.
	if got, want := Potrf(1000), 1e9/3; math.Abs(got-want) > 0.01*want {
		t.Fatalf("Potrf(1000) = %g, want ≈ %g", got, want)
	}
	if Potrf(1) <= 0 {
		t.Fatalf("degenerate size must still be positive")
	}
}

func TestTLRKernelsScaleWithRank(t *testing.T) {
	b := 2048
	for _, f := range []func(b, k int) float64{TrsmLR, SyrkLR} {
		prev := 0.0
		for _, k := range []int{1, 8, 64, 512} {
			v := f(b, k)
			if v <= prev {
				t.Fatalf("kernel cost must grow with rank")
			}
			prev = v
		}
	}
}

func TestTLRCheaperThanDense(t *testing.T) {
	// The whole point of TLR: at small ranks the compressed kernels cost
	// far less than their dense counterparts.
	b, k := 4880, 50
	if TrsmLR(b, k) >= TrsmDense(b)/10 {
		t.Fatalf("TRSM-LR not cheap enough: %g vs %g", TrsmLR(b, k), TrsmDense(b))
	}
	if SyrkLR(b, k) >= SyrkDense(b)/10 {
		t.Fatalf("SYRK-LR not cheap enough")
	}
	if GemmLR(b, k, k, k) >= GemmDense(b)/10 {
		t.Fatalf("GEMM-LR not cheap enough: %g vs %g", GemmLR(b, k, k, k), GemmDense(b))
	}
}

func TestGemmLRGrowsWithAccumulatorRank(t *testing.T) {
	b := 1024
	if GemmLR(b, 8, 8, 64) <= GemmLR(b, 8, 8, 8) {
		t.Fatalf("recompression cost must grow with the accumulator rank")
	}
}

func TestGenerationAndCompression(t *testing.T) {
	if GenerateTile(100) != 20*100*100 {
		t.Fatalf("GenerateTile formula changed")
	}
	if CompressQRCP(100, 10) != 4*100*100*10 {
		t.Fatalf("CompressQRCP formula changed")
	}
}

func TestLDLtKernelsTrackCholesky(t *testing.T) {
	// The signed variant costs the same to leading order: the D weighting
	// adds only lower-order diagonal scales.
	b, k := 2048, 40
	if r := Sytrf(b) / Potrf(b); r != 1 {
		t.Fatalf("Sytrf/Potrf = %g, want 1", r)
	}
	if TrsmLDLtLR(b, k) <= TrsmLR(b, k) || TrsmLDLtLR(b, k) > 1.01*TrsmLR(b, k) {
		t.Fatalf("TrsmLDLtLR must add only the diagonal scale")
	}
	if SyrkDLR(b, k) <= SyrkLR(b, k) || SyrkDLR(b, k) > 1.01*SyrkLR(b, k) {
		t.Fatalf("SyrkDLR must add only the diagonal scale")
	}
	if GemmDLR(b, k, k, k) <= GemmLR(b, k, k, k) || GemmDLR(b, k, k, k) > 1.01*GemmLR(b, k, k, k) {
		t.Fatalf("GemmDLR must add only the diagonal scale")
	}
	if TrsmLDLtDense(b) <= TrsmDense(b) || SyrkDDense(b) <= SyrkDense(b) {
		t.Fatalf("dense D-weighted kernels must include the scale")
	}
}
