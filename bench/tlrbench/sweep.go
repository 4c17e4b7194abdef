package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"tlrchol/internal/core"
	"tlrchol/internal/dense"
	"tlrchol/internal/obs"
	"tlrchol/internal/rbf"
	"tlrchol/internal/serve"
	"tlrchol/internal/tilemat"
	"tlrchol/internal/tlr"
)

// The layer sweep of a traced run walks the workload's primary problem
// once through every layer on the measured path, from the geometry to an
// HTTP answer, and emits the per-layer metrics. It runs on all four
// workloads so that each emits every name; the layers a workload stresses
// in its timed rounds are the ones whose numbers explain that workload.
//
// A repeated operation is read at its fastest repetition, like the
// end-to-end metrics; medians and tails are emitted beside it where the
// list in BENCHMARK.json names them.

// timeMin returns the fastest of reps runs of f in seconds.
func timeMin(reps int, f func()) float64 {
	best := 0.0
	for i := 0; i < reps; i++ {
		start := time.Now()
		f()
		if dt := time.Since(start).Seconds(); i == 0 || dt < best {
			best = dt
		}
	}
	return best
}

func sweep(sp spec, rc runConfig, r *report) error {
	rec := r.rec
	op := int32(r.attempted)
	root := rec.open("sweep", 0, op, 0)
	defer rec.close(root)

	// rbf: the geometry, then the assembler under the tile builder.
	id := rec.open("rbf.points", root, op, 0)
	start := time.Now()
	prob := geometry(sp)
	r.set("rbf.points_s", "s", time.Since(start).Seconds())
	rec.close(id)

	// tilemat: assembly and compression at two workers.
	start = time.Now()
	a, cs, cid, err := compress(rec, prob, sp, root, op)
	if err != nil {
		return fmt.Errorf("sweep: compression: %w", err)
	}
	compressS := time.Since(start).Seconds()
	var blockBusy time.Duration
	blockCalls := 0
	for _, s := range rec.spans {
		if s.parent == cid {
			blockBusy += s.end - s.start
			blockCalls++
		}
	}
	r.set("rbf.block_busy_s", "s", blockBusy.Seconds())
	r.set("rbf.block_calls", "count", float64(blockCalls))
	r.set("tilemat.compress_s", "s", compressS)
	r.set("tilemat.compress_self_s", "s", rec.selfOf(cid).Seconds())
	st := a.Stats()
	r.set("tilemat.lowrank_tiles", "count", float64(cs.LowRankTiles))
	r.set("tilemat.zero_tiles", "count", float64(cs.ZeroTiles))
	r.set("tilemat.max_rank", "count", float64(st.Max))
	r.set("tilemat.avg_rank", "count", st.Avg)
	r.set("tilemat.compressed_bytes", "B", float64(cs.CompressedBytes))

	// core, trim, runtime: the factorization at two workers and at one.
	f := a.Clone()
	rep, err := factorize(rec, f, sp, workers, root, op)
	if err != nil {
		return fmt.Errorf("sweep: factorization: %w", err)
	}
	rep1, err := factorize(rec, a.Clone(), sp, 1, root, op)
	if err != nil {
		return fmt.Errorf("sweep: factorization at one worker: %w", err)
	}
	factorizeS := (rep.Analysis + rep.Elapsed).Seconds()
	factorize1S := (rep1.Analysis + rep1.Elapsed).Seconds()
	r.set("trim.analyze_ms", "ms", rep.Analysis.Seconds()*1e3)
	r.set("trim.analysis_bytes", "B", float64(rep.AnalysisBytes))
	r.set("trim.tasks_trimmed", "count", float64(rep.TasksTrimmed))
	r.set("trim.final_density", "ratio", rep.FinalDensity)
	rt := rep.Runtime
	r.set("runtime.tasks_executed", "count", float64(rt.Executed))
	r.set("runtime.critical_path_tasks", "count", float64(rt.CriticalPathTasks))
	r.set("runtime.max_ready", "count", float64(rt.MaxReady))
	r.set("runtime.busy_ratio", "ratio", rt.BusyTime.Seconds()/(rt.Elapsed.Seconds()*float64(rt.Workers)))
	r.set("runtime.task_rate_per_s", "1/s", float64(rt.Executed)/rt.Elapsed.Seconds())
	busy := map[string]time.Duration{}
	for _, t := range rep.Trace {
		busy[obs.ClassOf(t.Label)] += t.Duration
	}
	r.set("core.factorize_s", "s", factorizeS)
	r.set("core.factorize_w1_s", "s", factorize1S)
	r.set("core.factorize_speedup", "ratio", factorize1S/factorizeS)
	for _, class := range []string{"potrf", "trsm", "syrk", "gemm"} {
		r.set("core."+class+"_busy_s", "s", busy[class].Seconds())
	}
	r.set("core.eff_gflop", "GFLOP", rep.EffFlops/1e9)
	r.set("core.dense_gflop", "GFLOP", rep.DenseFlops/1e9)
	effRate := rep.EffFlops / 1e9 / factorizeS
	r.set("core.eff_gflops", "GFLOP/s", effRate)

	// core: the solve plan and the solves, planned and sequential.
	var plan *core.SolvePlan
	id = rec.open("core.plan_build", root, op, 0)
	r.set("core.plan_build_ms", "ms", 1e3*timeMin(3, func() { plan = core.BuildSolvePlan(f) }))
	rec.close(id)
	fwd, bwd := plan.Levels()
	r.set("core.plan_bytes", "B", float64(plan.Bytes()))
	r.set("core.plan_tasks", "count", float64(plan.Tasks()))
	r.set("core.plan_levels", "count", float64(fwd+bwd))
	r.set("core.plan_max_width", "count", float64(plan.MaxWidth()))

	ctx := context.Background()
	b1, b16 := randomRHS(rhsSeed(rc.seed, 1), sp.N, 1), randomRHS(rhsSeed(rc.seed, 2), sp.N, 16)
	x1, x16 := dense.NewMatrix(sp.N, 1), dense.NewMatrix(sp.N, 16)
	solve := func(x, b *dense.Matrix, f func(*dense.Matrix) error) float64 {
		x.CopyFrom(b)
		start := time.Now()
		if err := f(x); err != nil {
			r.fail("sweep: solve: %v", err)
		}
		return time.Since(start).Seconds() * 1e3
	}
	plannedSolve := func(x *dense.Matrix) error { return plan.SolveCtx(ctx, f, x, workers) }
	id = rec.open("core.solve", root, op, 0)
	const narrow, wide = 200, 10
	planned, sequential := plannedRuns(), sequentialRuns()
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	var plannedMS []float64
	for i := 0; i < narrow; i++ {
		plannedMS = append(plannedMS, solve(x1, b1, plannedSolve))
	}
	runtime.ReadMemStats(&mem1)
	wideMS := make([]float64, wide)
	for i := range wideMS {
		wideMS[i] = solve(x16, b16, plannedSolve)
	}
	planned, sequential = plannedRuns()-planned, sequentialRuns()-sequential
	rec.close(id)
	id = rec.open("core.solve_sequential", root, op, 0)
	seqMS := make([]float64, 50)
	for i := range seqMS {
		seqMS[i] = solve(x1, b1, func(x *dense.Matrix) error { return core.SolveSequentialCtx(ctx, f, x) })
	}
	rec.close(id)
	sorted := sortedCopy(plannedMS)
	r.set("core.solve_p50_ms", "ms", quantile(sorted, 0.5))
	r.set("core.solve_p95_ms", "ms", quantile(sorted, 0.95))
	r.set("core.solve_seq_ms", "ms", minOf(seqMS))
	r.set("core.solve_speedup", "ratio", minOf(seqMS)/sorted[0])
	r.set("core.solve_nrhs16_ms", "ms", minOf(wideMS))
	ratio := float64(planned) / float64(planned+sequential)
	r.set("core.solve_planned_ratio", "ratio", ratio)
	r.check(ratio == 1 || f.NT < 8, "sweep: %d of %d planned solves ran the sequential sweep", sequential, planned+sequential)
	r.set("core.solve_allocs", "count", float64(mem1.Mallocs-mem0.Mallocs)/narrow)
	res := worst(exactResiduals(prob, x1, b1, false))
	r.op(accepted(res, sp.Tol), "sweep: residual %.3g against the exact operator exceeds %g·tol", res, float64(tolFactor))
	r.set("core.residual", "ratio", res)
	y := dense.NewMatrix(sp.N, 1)
	r.set("core.operator_apply_ms", "ms", 1e3*timeMin(5, func() { core.TLROperator{M: a}.Apply(x1, y) }))

	gemmRate, err := kernelProbes(prob, a, sp, r)
	if err != nil {
		return err
	}
	r.set("core.peak_fraction", "ratio", effRate/gemmRate)
	return serveSweep(sp, rc.seed, r, root)
}

// kernelProbes times single kernels of tlr and dense on the shapes the
// primary problem produces: the compression of the assembled block of
// highest rank, the low-rank GEMM of the heaviest tile triple and the
// recompression inside it, and the dense kernels at the tile size and at
// that recompression's stacked rank. It returns the dense GEMM rate.
func kernelProbes(prob *rbf.Problem, a *tilemat.Matrix, sp spec, r *report) (float64, error) {
	rank := func(i, j int) int {
		if t := a.At(i, j); t.Kind == tlr.LowRank {
			return t.Rank()
		}
		return 0
	}
	hi, hj, heavy, hm, hn, hk := 0, 0, 0, 0, 0, 0
	for i := 1; i < a.NT; i++ {
		for j := 0; j < i; j++ {
			if rank(i, j) > rank(hi, hj) {
				hi, hj = i, j
			}
			for k := 0; k < j; k++ {
				if rank(i, k) > 0 && rank(j, k) > 0 && rank(i, k)+rank(j, k)+rank(i, j) > heavy {
					heavy, hm, hn, hk = rank(i, k)+rank(j, k)+rank(i, j), i, j, k
				}
			}
		}
	}
	if rank(hi, hj) == 0 {
		return 0, fmt.Errorf("sweep: the primary problem has no low-rank tile to probe")
	}
	block := prob.Block(a.RowStart(hi), a.RowStart(hi)+a.TileRows(hi), a.RowStart(hj), a.RowStart(hj)+a.TileRows(hj))
	r.set("tlr.compress_tile_ms", "ms", 1e3*timeMin(3, func() { tlr.Compress(block.Clone(), sp.Tol, sp.MaxRank) }))

	// The triple (m,n,k): C(m,n) −= A(m,k)·B(n,k)ᵀ. A problem so sparse
	// that no column holds two low-rank tiles is probed on the fill-in of
	// its highest-rank tile against itself.
	ta, tb, tc := a.At(hi, hj), a.At(hi, hj), tlr.NewZero(a.TileRows(hi), a.TileRows(hi))
	if heavy > 0 {
		ta, tb, tc = a.At(hm, hk), a.At(hn, hk), a.At(hm, hn)
	}
	cfg := tlr.GemmConfig{Tol: sp.Tol, MaxRank: sp.MaxRank}
	gemmMS := 1e3 * timeMin(5, func() { tlr.Gemm(ta, tb, tc, cfg) })
	// The stacked factors tlr.Gemm hands to the recompression.
	w := dense.NewMatrix(ta.Rank(), tb.Rank())
	dense.Gemm(dense.Trans, dense.NoTrans, 1, ta.V, tb.V, 0, w)
	u, v := dense.NewMatrix(ta.Rows, tb.Rank()), tb.U
	dense.Gemm(dense.NoTrans, dense.NoTrans, -1, ta.U, w, 0, u)
	if tc.Kind == tlr.LowRank {
		u, v = hcat(tc.U, u), hcat(tc.V, v)
	}
	recompressMS := 1e3 * timeMin(5, func() { tlr.Recompress(u.Clone(), v.Clone(), sp.Tol, sp.MaxRank) })
	r.set("tlr.gemm_ms", "ms", gemmMS)
	r.set("tlr.recompress_ms", "ms", recompressMS)
	r.set("tlr.recompress_share", "ratio", recompressMS/gemmMS)

	// The dense kernels under the recompression, at its stacked rank. A
	// stack wider than the tile is compressed from its dense product and
	// never reaches them; the probes then run at the tile's width.
	k := min(u.Cols, u.Rows, v.Rows)
	qu, qv := u.View(0, 0, u.Rows, k), v.View(0, 0, v.Rows, k)
	_, ru := dense.QR(qu.Clone())
	_, rv := dense.QR(qv.Clone())
	inner := dense.NewMatrix(k, k)
	dense.Gemm(dense.NoTrans, dense.Trans, 1, ru, rv, 0, inner)
	r.set("dense.qr_ms", "ms", 1e3*timeMin(5, func() { dense.QR(qu.Clone()) }))
	r.set("dense.svd_ms", "ms", 1e3*timeMin(3, func() { dense.SVD(inner.Clone()) }))

	b := sp.Tile
	rng := rand.New(rand.NewSource(1))
	ga, gb, gc := dense.Random(rng, b, b), dense.Random(rng, b, b), dense.NewMatrix(b, b)
	const calls = 8 // one timing covers several calls: a 128³ GEMM is a fraction of a millisecond
	gemmS := timeMin(5, func() {
		for i := 0; i < calls; i++ {
			dense.Gemm(dense.NoTrans, dense.NoTrans, 1, ga, gb, 0, gc)
		}
	}) / calls
	gemmRate := 2 * float64(b) * float64(b) * float64(b) / gemmS / 1e9
	r.set("dense.gemm_gflops", "GFLOP/s", gemmRate)
	spd := dense.RandomSPD(rng, b)
	work := dense.NewMatrix(b, b)
	potrfS := timeMin(5, func() {
		work.CopyFrom(spd)
		if err := dense.Potrf(work); err != nil {
			r.fail("sweep: dense.Potrf probe: %v", err)
		}
	})
	r.set("dense.potrf_gflops", "GFLOP/s", float64(b)*float64(b)*float64(b)/3/potrfS/1e9)
	return gemmRate, nil
}

// hcat returns [a | b].
func hcat(a, b *dense.Matrix) *dense.Matrix {
	out := dense.NewMatrix(a.Rows, a.Cols+b.Cols)
	out.CopyBlock(0, 0, a)
	out.CopyBlock(0, a.Cols, b)
	return out
}

// serveSweep holds the primary problem in a Server and in a two-shard
// Fleet and sends both the same single-column hits, in alternating blocks
// so that a slow minute of the host falls on both alike. What the router
// costs is the difference between the quietest block medians. On a library
// workload, whose rounds never touch the service, the Server's requests
// also supply the serve metrics.
func serveSweep(sp spec, seed int64, r *report, root int32) error {
	const blocks, blockHits = 10, 20
	sh := shape{cols: 1}
	id := r.rec.open("sweep.serve", root, int32(r.attempted), 0)
	defer r.rec.close(id)
	direct := startService(serve.New(serviceConfig(0)).Handler())
	defer direct.stop()
	routed := startService(serve.NewFleet(serve.FleetConfig{Shards: 2, Shard: serviceConfig(0)}).Handler())
	defer routed.stop()

	// The first request of each builds the factor, a /v1/factorize reads
	// the build's statistics back, and one block warms the connection.
	block := func(s *service, n int) []sample {
		samples := make([]sample, n)
		for i := range samples {
			samples[i] = s.solve(r.rec, 0, sh.request(sp, seed, s.solves))
			s.solves++
		}
		s.judge(r.rec, samples, sh, sp.Tol, r)
		return samples
	}
	var misses []sample
	for _, s := range []*service{direct, routed} {
		misses = append(misses, block(s, 1)...)
		fr, err := s.factorize(sp)
		if err != nil {
			return fmt.Errorf("sweep: %w", err)
		}
		s.builds = append(s.builds, fr.Stats)
		block(s, blockHits)
	}
	var hits []sample
	var directMS, routedMS []float64
	for i := 0; i < blocks; i++ {
		b := block(direct, blockHits)
		hits = append(hits, b...)
		directMS = append(directMS, median(latencies(b)))
		routedMS = append(routedMS, median(latencies(block(routed, blockHits))))
	}
	r.set("serve.fleet_overhead_ms", "ms", minOf(routedMS)-minOf(directMS))
	st, err := direct.stats()
	if err != nil {
		return fmt.Errorf("sweep: %w", err)
	}
	direct.accounted(st, r)
	if _, own := r.metrics["serve.request_p50_ms"]; !own {
		r.serveMetrics(append(hits, misses[0]), direct.builds, serve.StatsResponse{}, st)
	}
	return nil
}

// serveMetrics emits the serve layer's metrics from the solve requests of
// a measured phase, the builds the service reported, and /v1/stats before
// and after the phase. The *_p50 phase metrics are the breakdown of the
// request at the median of the server's recent end-to-end latencies, as
// /v1/stats reports it.
func (r *report) serveMetrics(samples []sample, builds []serve.FactorStats, before, after serve.StatsResponse) {
	// overhead is what a hit's client waits for that the server reports
	// as neither batch wait nor solve: HTTP and JSON on both sides,
	// admission and the look-up of the factor.
	var misses, overhead, batchCols []float64
	for _, sm := range samples {
		if sm.resp.Cached {
			overhead = append(overhead, sm.ms-sm.resp.WaitMS-sm.resp.SolveMS)
		} else {
			misses = append(misses, sm.ms)
		}
		batchCols = append(batchCols, float64(sm.resp.BatchCols))
	}
	all := sortedCopy(latencies(samples))
	r.set("serve.request_p50_ms", "ms", quantile(all, 0.5))
	r.set("serve.request_p95_ms", "ms", quantile(all, 0.95))
	r.set("serve.request_p99_ms", "ms", quantile(all, 0.99))
	p50 := after.Request.P50
	r.set("serve.queue_ms_p50", "ms", p50.QueueMS)
	r.set("serve.batch_wait_ms_p50", "ms", p50.BatchWaitMS)
	r.set("serve.subst_ms_p50", "ms", p50.SubstMS)
	r.set("serve.resid_ms_p50", "ms", p50.ResidMS+p50.RefineMS)
	r.set("serve.other_ms_p50", "ms", p50.OtherMS+p50.FactorMS)
	r.set("serve.client_overhead_ms_p50", "ms", median(overhead))
	r.set("serve.batch_cols_mean", "count", mean(batchCols))
	hits, lookups := after.Cache.Hits-before.Cache.Hits, after.Cache.Misses-before.Cache.Misses
	r.set("serve.cache_hit_ratio", "ratio", float64(hits)/float64(hits+lookups))
	r.set("serve.cache_evictions", "count", float64(after.Cache.Evictions-before.Cache.Evictions))
	r.set("serve.factor_builds", "count", float64(after.Totals["serve.factorize.runs"]-before.Totals["serve.factorize.runs"]))
	r.set("serve.singleflight_waits", "count", float64(after.Cache.Waits-before.Cache.Waits))
	r.set("serve.miss_ms_p50", "ms", median(misses))
	var compressMS, factorizeMS []float64
	for _, b := range builds {
		compressMS = append(compressMS, b.CompressMS)
		factorizeMS = append(factorizeMS, b.ElapsedMS-b.CompressMS-b.PlanBuildMS)
	}
	r.set("serve.build_compress_ms_p50", "ms", median(compressMS))
	r.set("serve.build_factorize_ms_p50", "ms", median(factorizeMS))
	admitted, rejected := after.Admission.Accepted-before.Admission.Accepted, after.Admission.Rejected-before.Admission.Rejected
	r.set("serve.rejected_ratio", "ratio", float64(rejected)/float64(admitted+rejected))
}
