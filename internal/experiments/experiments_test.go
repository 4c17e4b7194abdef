package experiments

import (
	"strings"
	"testing"
)

// The experiment drivers run at a small scale in tests; their shape
// assertions mirror the qualitative claims of the paper's figures.

func TestFig01ShapeClaims(t *testing.T) {
	r, err := Fig01(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Shapes) != 4 {
		t.Fatalf("expected two shape parameters under each of two orderings")
	}
	for o := 0; o < 4; o += 2 {
		small, large := r.Shapes[o], r.Shapes[o+1]
		// Larger shape parameter → denser compressed matrix.
		if small.Order != large.Order || large.Initial.Density < small.Initial.Density {
			t.Fatalf("%s order: density must grow with the shape parameter: %g vs %g",
				small.Order, small.Initial.Density, large.Initial.Density)
		}
	}
	if r.Shapes[0].Order != "hilbert" || r.Shapes[2].Order != "kd" {
		t.Fatalf("orderings reported as %q and %q", r.Shapes[0].Order, r.Shapes[2].Order)
	}
	for _, s := range r.Shapes {
		// Fill-in: final density ≥ initial density.
		if s.Final.Density < s.Initial.Density-1e-12 {
			t.Fatalf("factorization must not lose non-zeros: %g -> %g",
				s.Initial.Density, s.Final.Density)
		}
		// Ranks decay with distance: the first subdiagonal dominates far
		// tiles on average.
		if s.Initial.Max <= 0 {
			t.Fatalf("no compressed ranks recorded")
		}
	}
	small := r.Shapes[0]
	hm := Heatmap(small.InitialRanks)
	if !strings.Contains(hm, "D") || !strings.Contains(hm, ".") {
		t.Fatalf("heatmap should show dense diagonal and null tiles:\n%s", hm)
	}
}

func TestFig04ShapeClaims(t *testing.T) {
	r := Fig04(0.15)
	for _, panel := range r.Panels {
		pts := panel.Points
		if len(pts) != len(Fig04Deltas) {
			t.Fatalf("wrong number of sweep points")
		}
		for i, p := range pts {
			if p.FinalDensity < p.InitialDensity-1e-9 {
				t.Fatalf("final density below initial at delta=%g", p.Delta)
			}
			if p.TimeTrim > p.TimeNoTrim*1.001 {
				t.Fatalf("trimming slower at delta=%g", p.Delta)
			}
			if i > 0 && p.InitialDensity < pts[i-1].InitialDensity-1e-9 {
				t.Fatalf("density must not decrease with delta")
			}
		}
		// Convergence: the trimming gain at the densest point is smaller
		// than the maximum gain over the sweep.
		first, last := pts[0], pts[len(pts)-1]
		gainSparse := first.TimeNoTrim / first.TimeTrim
		gainDense := last.TimeNoTrim / last.TimeTrim
		if gainDense > gainSparse {
			t.Fatalf("trimming gain should shrink as density rises: %g -> %g",
				gainSparse, gainDense)
		}
		if gainDense > 1.3 {
			t.Fatalf("at high density trimming should be nearly obsolete, gain=%g", gainDense)
		}
	}
}

func TestFig05BellShape(t *testing.T) {
	r := Fig05(0.25)
	if len(r.Points) < 3 {
		t.Fatalf("need at least 3 tile sizes")
	}
	// Task count decreases as the tile size grows.
	for i := 1; i < len(r.Points); i++ {
		if r.Points[i].Tasks > r.Points[i-1].Tasks {
			t.Fatalf("task count must fall with tile size")
		}
	}
	// Critical path grows with tile size (dense diagonal flops dominate).
	first, last := r.Points[0], r.Points[len(r.Points)-1]
	if last.CriticalPath < first.CriticalPath {
		t.Fatalf("critical path should grow with tile size: %g -> %g",
			first.CriticalPath, last.CriticalPath)
	}
	// The optimum is interior (bell shape): neither the smallest nor the
	// largest tile size wins.
	if opt := r.Optimum().B; opt == r.Points[len(r.Points)-1].B || opt == r.Points[0].B {
		t.Fatalf("optimum %d should be interior", opt)
	}
}

func TestFig06Claims(t *testing.T) {
	r := Fig06(0.12)
	gain := map[int]map[int]float64{}
	for _, p := range r.Points {
		if p.TimeTrim > p.TimeFull*1.001 {
			t.Fatalf("trimming must not slow down (N=%d nodes=%d)", p.N, p.Nodes)
		}
		if gain[p.N] == nil {
			gain[p.N] = map[int]float64{}
		}
		gain[p.N][p.Nodes] = p.TimeFull / p.TimeTrim
	}
	for _, o := range r.Overheads {
		if o.PctOfFactorization > 5 {
			t.Fatalf("analysis overhead should be negligible, got %.1f%%", o.PctOfFactorization)
		}
		if o.AnalysisBytes <= 0 {
			t.Fatalf("analysis memory not metered")
		}
	}
}

func TestFig07IncrementalGains(t *testing.T) {
	r := Fig07(0.12)
	for _, p := range r.Points {
		if p.Band > p.Base*1.02 {
			t.Fatalf("band distribution should not hurt (N=%d nodes=%d): %g vs %g",
				p.N, p.Nodes, p.Band, p.Base)
		}
		if p.Diamond > p.Band*1.02 {
			t.Fatalf("diamond should not hurt on top of band (N=%d nodes=%d)", p.N, p.Nodes)
		}
	}
	if r.MaxBandSpeedup() < 1.0 || r.MaxDiamondSpeedup() < 1.0 {
		t.Fatalf("expected positive incremental gains: band %.2f diamond %.2f",
			r.MaxBandSpeedup(), r.MaxDiamondSpeedup())
	}
}

func TestFig08OursAlwaysWins(t *testing.T) {
	r := Fig08(0.12)
	for _, p := range r.Points {
		if p.Speedup < 1.0 {
			t.Fatalf("HiCMA-PaRSEC must beat Lorapo in all scenarios (N=%d delta=%g): %.2f",
				p.N, p.Delta, p.Speedup)
		}
	}
}

func TestFig09And10SpeedupGrows(t *testing.T) {
	for _, r := range []*FigScalingResult{Fig09(0.12), Fig10(0.12)} {
		first, last := r.Points[0], r.Points[len(r.Points)-1]
		if last.Speedup < first.Speedup {
			t.Fatalf("%s: speedup should grow with matrix size: %.2f -> %.2f",
				r.Figure, first.Speedup, last.Speedup)
		}
		if r.MaxSpeedup() < 1.0 {
			t.Fatalf("%s: ours must win", r.Figure)
		}
	}
}

func TestFig11BreakdownClaim(t *testing.T) {
	r := Fig11(0.12)
	for _, p := range r.Points {
		if p.FactoOurs > p.FactoLorapo {
			t.Fatalf("ours must factorize faster")
		}
		// The compression share is much larger relative to our
		// factorization than to Lorapo's.
		if p.Compression/p.FactoOurs <= p.Compression/p.FactoLorapo {
			t.Fatalf("compression share claim violated")
		}
	}
}

func TestFig12TighterAccuracyCostsMore(t *testing.T) {
	r := Fig12(0.12)
	// Group by N; times must rise as tol tightens (1e-5 → 1e-9).
	byN := map[int][]ComparePoint{}
	for _, p := range r.Points {
		byN[p.N] = append(byN[p.N], p)
	}
	for n, pts := range byN {
		for i := 1; i < len(pts); i++ {
			if pts[i].Tol < pts[i-1].Tol && pts[i].Ours < pts[i-1].Ours*0.95 {
				t.Fatalf("N=%d: tighter threshold should not be much faster", n)
			}
		}
		for _, p := range pts {
			if p.Speedup < 1.0 {
				t.Fatalf("ours must win at every threshold")
			}
		}
	}
}

func TestFig13EfficiencyBand(t *testing.T) {
	r := Fig13(0.2)
	for _, p := range r.Points {
		if p.Trim > p.NoTrim*1.001 || p.Band > p.Trim*1.02 || p.Diamond > p.Band*1.02 {
			t.Fatalf("incremental optimizations must not regress at N=%d", p.N)
		}
		if p.Efficiency <= 0.2 || p.Efficiency > 1.01 {
			t.Fatalf("efficiency %g out of plausible band", p.Efficiency)
		}
	}
}

func TestFig14Scaling(t *testing.T) {
	r := Fig14(0.1)
	// Strong scaling: for a fixed N, more nodes must not be slower by
	// much; weak scaling: larger N on more nodes takes longer in total.
	byN := map[int][]Fig14Point{}
	for _, p := range r.Points {
		byN[p.N] = append(byN[p.N], p)
	}
	for n, pts := range byN {
		for i := 1; i < len(pts); i++ {
			if pts[i].Time > pts[i-1].Time*1.1 {
				t.Fatalf("N=%d: scaling out should not badly hurt: %g -> %g",
					n, pts[i-1].Time, pts[i].Time)
			}
		}
	}
}

func TestTableRendering(t *testing.T) {
	tab := Table{Title: "T", Header: []string{"a", "bb"}}
	tab.Add("1", "2")
	tab.Note("n=%d", 5)
	s := tab.String()
	for _, want := range []string{"T\n", "a", "bb", "note: n=5"} {
		if !strings.Contains(s, want) {
			t.Fatalf("table rendering missing %q:\n%s", want, s)
		}
	}
}

func TestAblationRobustness(t *testing.T) {
	r := Ablation(0.15)
	if len(r.Rows) < 7 {
		t.Fatalf("expected at least 7 variations, got %d", len(r.Rows))
	}
	if !r.AlwaysWins() {
		t.Fatalf("the headline conclusion must survive every parameter perturbation: %+v", r.Rows)
	}
	// Baseline comes first; halving overhead must shrink the gap,
	// doubling it must widen it (overhead is what trimming removes).
	var base, half, double float64
	for _, row := range r.Rows {
		switch row.Name {
		case "baseline":
			base = row.Speedup
		case "overhead x0.5":
			half = row.Speedup
		case "overhead x2.0":
			double = row.Speedup
		}
	}
	if base == 0 || half == 0 || double == 0 {
		t.Fatalf("missing variations")
	}
	if half > base*1.001 || double < base*0.999 {
		t.Fatalf("overhead sensitivity direction wrong: half=%.2f base=%.2f double=%.2f",
			half, base, double)
	}
}

func TestValidationBand(t *testing.T) {
	r, err := Validation(0.1)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range r.Points {
		if p.SimTasks != p.EstTasks {
			t.Fatalf("task counts must agree exactly: %d vs %d", p.SimTasks, p.EstTasks)
		}
	}
	if w := r.WorstRatio(); w > 2.3 {
		t.Fatalf("estimator diverged beyond the documented band: %.2f", w)
	}
}

func TestFig06DistributedAnalysisMemory(t *testing.T) {
	r := Fig06(0.12)
	for _, o := range r.Overheads {
		if o.DistributedBytes >= o.AnalysisBytes {
			t.Fatalf("the distributed analysis must use less memory per process: %d vs %d",
				o.DistributedBytes, o.AnalysisBytes)
		}
	}
}

func TestAugmentedClaims(t *testing.T) {
	r, err := Augmented(0.3)
	if err != nil {
		t.Fatal(err)
	}
	if r.CholReject == "" || !strings.Contains(r.CholReject, "not positive definite") {
		t.Fatalf("Cholesky must refuse the saddle-point operator, got %q", r.CholReject)
	}
	if r.NegPivots != 4 {
		t.Errorf("quasi-definite signature wants exactly 4 negative pivots, got %d", r.NegPivots)
	}
	if r.Residual > 10*r.Tol {
		t.Errorf("solve residual %g exceeds 10·tol=%g", r.Residual, r.Tol)
	}
	if r.FactorErr > 100*r.Tol {
		t.Errorf("factor error %g exceeds 100·tol", r.FactorErr)
	}
	// Linear reproduction is the augmentation's raison d'être: the
	// polynomial coefficients must come back far more accurately than
	// the compression tolerance alone would promise.
	if r.PolyErr > r.Tol {
		t.Errorf("polynomial reproduction error %g exceeds tol", r.PolyErr)
	}
}
