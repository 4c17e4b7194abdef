package sim

import (
	"math"
	"testing"

	"tlrchol/internal/dist"
	"tlrchol/internal/obs"
	"tlrchol/internal/ranks"
)

// testModel is a mid-density rank structure typical of the paper's
// default shape parameter.
func testModel(nt int) ranks.Model {
	return ranks.Model{NTiles: nt, TileB: 512, MaxRank: 48, DecayTiles: 2, CutoffTiles: 6}
}

func cfgFor(m Machine, nodes int, remap dist.Remap) Config {
	return Config{Machine: m, Nodes: nodes, Remap: remap}
}

func ownerComputes(p, q int) dist.Remap {
	return dist.Remap{Data: dist.TwoDBC{P: p, Q: q}}
}

func TestSingleProcessMakespanBounds(t *testing.T) {
	model := testModel(24)
	w := NewWorkload(model, &model, true)
	res := mustRun(t, w, cfgFor(ShaheenII, 1, ownerComputes(1, 1)))
	// On one process there is no communication.
	if res.CommVolume != 0 || res.Msgs != 0 {
		t.Fatalf("single process must not communicate: %v bytes %d msgs", res.CommVolume, res.Msgs)
	}
	// Makespan is bounded below by busy/cores and by the DAG critical
	// path, and above by total busy time (sequential execution).
	busy := res.Busy[0]
	lower := math.Max(busy/float64(ShaheenII.CoresPerNode), res.DAGCriticalPath)
	if res.Makespan < lower*0.999 {
		t.Fatalf("makespan %g below lower bound %g", res.Makespan, lower)
	}
	if res.Makespan > busy*1.001 {
		t.Fatalf("makespan %g exceeds serial bound %g", res.Makespan, busy)
	}
}

func TestWorkConservation(t *testing.T) {
	// The same trimmed DAG must do the same busy work regardless of the
	// process count or distribution (ship-in costs excluded by using
	// owner-computes).
	model := testModel(20)
	w := NewWorkload(model, &model, true)
	sum := func(b []float64) float64 {
		var s float64
		for _, x := range b {
			s += x
		}
		return s
	}
	r1 := mustRun(t, w, cfgFor(ShaheenII, 1, ownerComputes(1, 1)))
	r4 := mustRun(t, w, cfgFor(ShaheenII, 4, ownerComputes(2, 2)))
	if math.Abs(sum(r1.Busy)-sum(r4.Busy)) > 1e-9*sum(r1.Busy) {
		t.Fatalf("busy work not conserved: %g vs %g", sum(r1.Busy), sum(r4.Busy))
	}
	if r1.Tasks != r4.Tasks {
		t.Fatalf("task count changed with distribution")
	}
}

func TestTrimmingReducesTasksAndTime(t *testing.T) {
	model := testModel(32) // density well below 1
	wT := NewWorkload(model, &model, true)
	wF := NewWorkload(model, &model, false)
	cfg := cfgFor(ShaheenII, 4, ownerComputes(2, 2))
	rT := mustRun(t, wT, cfg)
	rF := mustRun(t, wF, cfg)
	if rT.Tasks >= rF.Tasks {
		t.Fatalf("trimming must reduce tasks: %d vs %d", rT.Tasks, rF.Tasks)
	}
	if rF.NullTasks == 0 {
		t.Fatalf("untrimmed run must schedule null tasks")
	}
	if rT.Makespan >= rF.Makespan {
		t.Fatalf("trimming must not slow down: %g vs %g", rT.Makespan, rF.Makespan)
	}
}

func TestTrimmingConvergesAtFullDensity(t *testing.T) {
	// Fig 4: with a dense compressed matrix (cutoff spanning everything)
	// trimming removes nothing.
	model := ranks.Model{NTiles: 16, TileB: 256, MaxRank: 32, DecayTiles: 8, CutoffTiles: 15}
	wT := NewWorkload(model, &model, true)
	wF := NewWorkload(model, &model, false)
	cfg := cfgFor(ShaheenII, 4, ownerComputes(2, 2))
	rT, rF := mustRun(t, wT, cfg), mustRun(t, wF, cfg)
	if rT.Tasks != rF.Tasks {
		t.Fatalf("at density 1 trimmed and full DAGs must coincide: %d vs %d", rT.Tasks, rF.Tasks)
	}
	if math.Abs(rT.Makespan-rF.Makespan) > 0.02*rF.Makespan {
		t.Fatalf("at density 1 makespans must converge: %g vs %g", rT.Makespan, rF.Makespan)
	}
}

func TestBandDistributionReducesCommOrTime(t *testing.T) {
	model := testModel(48)
	w := NewWorkload(model, &model, true)
	nodes := 8
	p, q := dist.Grid(nodes)
	base := mustRun(t, w, cfgFor(ShaheenII, nodes, dist.Remap{Data: dist.TwoDBC{P: p, Q: q}}))
	band := mustRun(t, w, cfgFor(ShaheenII, nodes, dist.Remap{
		Data: dist.TwoDBC{P: p, Q: q},
		Exec: dist.NewBand(p, q),
	}))
	if band.Makespan > base.Makespan*1.05 {
		t.Fatalf("band distribution should not slow down: %g vs %g", band.Makespan, base.Makespan)
	}
}

func TestDiamondImprovesLoadBalance(t *testing.T) {
	model := testModel(64)
	w := NewWorkload(model, &model, true)
	nodes := 8
	p, q := dist.Grid(nodes)
	band := mustRun(t, w, cfgFor(ShaheenII, nodes, dist.Remap{
		Data: dist.TwoDBC{P: p, Q: q},
		Exec: dist.NewBand(p, q),
	}))
	diamond := mustRun(t, w, cfgFor(ShaheenII, nodes, dist.Remap{
		Data: dist.TwoDBC{P: p, Q: q},
		Exec: dist.BandDiamond(p, q),
	}))
	if diamond.LoadImbalance() > band.LoadImbalance()*1.05 {
		t.Fatalf("diamond should improve balance: %.3f vs %.3f",
			diamond.LoadImbalance(), band.LoadImbalance())
	}
}

func TestRemapChargesShipVolume(t *testing.T) {
	model := testModel(24)
	w := NewWorkload(model, &model, true)
	p, q := 2, 2
	remapped := mustRun(t, w, cfgFor(ShaheenII, 4, dist.Remap{
		Data: dist.TwoDBC{P: p, Q: q},
		Exec: dist.BandDiamond(p, q),
	}))
	owner := mustRun(t, w, cfgFor(ShaheenII, 4, ownerComputes(p, q)))
	if remapped.ShipVolume <= 0 {
		t.Fatalf("remapped execution must ship tiles")
	}
	if owner.ShipVolume != 0 {
		t.Fatalf("owner-computes must not ship tiles")
	}
}

func TestCriticalPathBounds(t *testing.T) {
	model := testModel(24)
	w := NewWorkload(model, &model, true)
	res := mustRun(t, w, cfgFor(Fugaku, 4, ownerComputes(2, 2)))
	if res.CriticalPathTime <= 0 {
		t.Fatalf("critical path not computed")
	}
	// The kernel-only critical path is an optimistic bound: it cannot
	// exceed the DAG critical path (which includes overheads) and the
	// makespan.
	if res.CriticalPathTime > res.DAGCriticalPath*1.001 {
		t.Fatalf("kernel CP %g exceeds DAG CP %g", res.CriticalPathTime, res.DAGCriticalPath)
	}
	if res.CriticalPathTime > res.Makespan*1.001 {
		t.Fatalf("kernel CP %g exceeds makespan %g", res.CriticalPathTime, res.Makespan)
	}
	if eff := res.Efficiency(); eff <= 0 || eff > 1.001 {
		t.Fatalf("efficiency %g out of range", eff)
	}
}

func TestMoreNodesDoNotSlowDownLargeProblem(t *testing.T) {
	model := testModel(96)
	w := NewWorkload(model, &model, true)
	r4 := mustRun(t, w, cfgFor(ShaheenII, 4, ownerComputes(2, 2)))
	r16 := mustRun(t, w, cfgFor(ShaheenII, 16, ownerComputes(4, 4)))
	if r16.Makespan > r4.Makespan*1.1 {
		t.Fatalf("scaling out should not badly hurt a large problem: %g -> %g",
			r4.Makespan, r16.Makespan)
	}
}

func TestMemoryAccounting(t *testing.T) {
	model := testModel(24)
	w := NewWorkload(model, &model, true)
	res := mustRun(t, w, cfgFor(ShaheenII, 4, dist.Remap{
		Data: dist.TwoDBC{P: 2, Q: 2},
		Exec: dist.BandDiamond(2, 2),
	}))
	var mem, tmp int64
	for i := range res.MemBytes {
		mem += res.MemBytes[i]
		tmp += res.TempBytes[i]
	}
	if mem <= 0 {
		t.Fatalf("no memory accounted")
	}
	// Temporaries exist only because of the remap and never exceed the
	// total footprint.
	if tmp <= 0 || tmp > mem {
		t.Fatalf("temp accounting wrong: tmp=%d mem=%d", tmp, mem)
	}
}

func TestCompressionTimePositiveAndScales(t *testing.T) {
	model := testModel(32)
	w := NewWorkload(model, &model, true)
	c4 := CompressionTime(w, cfgFor(ShaheenII, 4, ownerComputes(2, 2)))
	c16 := CompressionTime(w, cfgFor(ShaheenII, 16, ownerComputes(4, 4)))
	if c4 <= 0 || c16 <= 0 {
		t.Fatalf("compression time must be positive")
	}
	if c16 >= c4 {
		t.Fatalf("compression is embarrassingly parallel; more nodes must help: %g vs %g", c4, c16)
	}
}

func TestDeterminism(t *testing.T) {
	model := testModel(24)
	w := NewWorkload(model, &model, true)
	cfg := cfgFor(ShaheenII, 4, ownerComputes(2, 2))
	a := mustRun(t, w, cfg)
	b := mustRun(t, w, cfg)
	if a.Makespan != b.Makespan || a.CommVolume != b.CommVolume || a.Msgs != b.Msgs {
		t.Fatalf("simulation must be deterministic")
	}
}

func TestConfigValidation(t *testing.T) {
	model := testModel(8)
	w := NewWorkload(model, &model, true)
	cases := []struct {
		name string
		cfg  Config
	}{
		{"mismatched nodes", cfgFor(ShaheenII, 3, ownerComputes(2, 2))},
		{"zero nodes", cfgFor(ShaheenII, 0, ownerComputes(1, 1))},
		{"negative nodes", cfgFor(ShaheenII, -4, ownerComputes(2, 2))},
		{"nil distribution", Config{Machine: ShaheenII, Nodes: 4}},
		{"zero cores", Config{Machine: Machine{}, Nodes: 1, Remap: ownerComputes(1, 1)}},
	}
	for _, c := range cases {
		if _, err := Run(w, c.cfg); err == nil {
			t.Fatalf("%s: invalid config accepted", c.name)
		}
	}
	if _, err := Run(Workload{}, cfgFor(ShaheenII, 1, ownerComputes(1, 1))); err == nil {
		t.Fatal("empty workload accepted")
	}
}

// TestCompressionTimeSkipsTrimmedZeroTiles pins the Section VI
// accounting: zero-rank tiles are never generated or compressed under
// trimming, so they must cost nothing — a trimmed workload over a
// sparse rank field compresses strictly faster than the untrimmed one,
// and exactly matches a hand-summed model that skips zero tiles.
func TestCompressionTimeSkipsTrimmedZeroTiles(t *testing.T) {
	model := testModel(16) // CutoffTiles=6 < 16: far tiles have rank 0
	wT := NewWorkload(model, &model, true)
	wF := NewWorkload(model, &model, false)
	cfg := cfgFor(ShaheenII, 4, ownerComputes(2, 2))
	cT, cF := CompressionTime(wT, cfg), CompressionTime(wF, cfg)
	if cT <= 0 || cF <= 0 {
		t.Fatalf("compression times must be positive: trimmed %g untrimmed %g", cT, cF)
	}
	if cT >= cF {
		t.Fatalf("trimmed compression %g not cheaper than untrimmed %g despite zero tiles", cT, cF)
	}
	// With no zero tiles the two accountings coincide.
	densem := ranks.Model{NTiles: 8, TileB: 512, MaxRank: 48, DecayTiles: 4, CutoffTiles: 100}
	dT := CompressionTime(NewWorkload(densem, &densem, true), cfg)
	dF := CompressionTime(NewWorkload(densem, &densem, false), cfg)
	if dT != dF {
		t.Fatalf("dense field: trimmed %g != untrimmed %g", dT, dF)
	}
}

func TestNullTaskAccounting(t *testing.T) {
	// Sparse structure, untrimmed: most tasks are null.
	model := ranks.Model{NTiles: 32, TileB: 512, MaxRank: 16, DecayTiles: 1, CutoffTiles: 2}
	wF := NewWorkload(model, &model, false)
	r := mustRun(t, wF, cfgFor(ShaheenII, 4, ownerComputes(2, 2)))
	if r.NullTasks == 0 || r.NullTasks >= r.Tasks {
		t.Fatalf("null accounting wrong: %d of %d", r.NullTasks, r.Tasks)
	}
	frac := float64(r.NullTasks) / float64(r.Tasks)
	if frac < 0.5 {
		t.Fatalf("sparse untrimmed DAG should be mostly null: %g", frac)
	}
}

func TestCollectTrace(t *testing.T) {
	model := testModel(16)
	w := NewWorkload(model, &model, true)
	cfg := cfgFor(ShaheenII, 4, ownerComputes(2, 2))
	cfg.CollectTrace = true
	r := mustRun(t, w, cfg)
	if len(r.Trace) != r.Tasks {
		t.Fatalf("trace should record every task: %d vs %d", len(r.Trace), r.Tasks)
	}
	// Records carry valid process ids and class labels.
	for _, rec := range r.Trace[:10] {
		if rec.Worker < 0 || rec.Worker >= 4 {
			t.Fatalf("bad process id %d", rec.Worker)
		}
		if rec.Label == "" {
			t.Fatalf("missing label")
		}
	}
	// Without the flag no trace is kept.
	cfg.CollectTrace = false
	if r2 := mustRun(t, w, cfg); r2.Trace != nil {
		t.Fatalf("trace collected without the flag")
	}
}

// TestSimPathNodes: CollectTrace exports the simulated schedule as an
// executed DAG whose critical-path analysis is consistent with the
// simulated makespan.
func TestSimPathNodes(t *testing.T) {
	model := testModel(14)
	cfg := cfgFor(ShaheenII, 4, ownerComputes(2, 2))
	cfg.CollectTrace = true
	w := NewWorkload(model, &model, true)
	r := mustRun(t, w, cfg)
	if len(r.PathNodes) != r.Tasks {
		t.Fatalf("%d path nodes for %d tasks", len(r.PathNodes), r.Tasks)
	}
	for _, n := range r.PathNodes {
		for _, p := range n.Preds {
			if r.PathNodes[p].Finish > n.Start {
				t.Fatalf("pred %q finished after %q started", r.PathNodes[p].Label, n.Label)
			}
		}
	}
	cp := obs.CriticalPath(r.PathNodes)
	if len(cp.Steps) == 0 {
		t.Fatalf("empty critical path")
	}
	makespan := cp.Makespan.Seconds()
	if makespan <= 0 || makespan > r.Makespan+1e-9 {
		t.Fatalf("path makespan %g outside simulated makespan %g", makespan, r.Makespan)
	}
	// The path must be at least the cost-weighted DAG lower bound.
	if cp.Work.Seconds() > r.Makespan {
		t.Fatalf("path work %v exceeds makespan %g", cp.Work, r.Makespan)
	}
	// Without trace collection the export stays off.
	cfg.CollectTrace = false
	if r2 := mustRun(t, NewWorkload(model, &model, true), cfg); r2.PathNodes != nil {
		t.Fatalf("PathNodes should be nil without CollectTrace")
	}
}

// mustRun runs the simulation, failing the test on configuration errors.
func mustRun(t *testing.T, w Workload, cfg Config) Result {
	t.Helper()
	r, err := Run(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}
