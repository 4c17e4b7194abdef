// Command tlrchol factorizes a synthetic RBF mesh-deformation operator
// with the TLR Cholesky framework: it generates the virus-population
// geometry, orders it by KD bisection, assembles and compresses the
// kernel matrix tile by tile, runs the (optionally trimmed)
// factorization on the task runtime, solves a deformation system, and
// reports the rank statistics, task counts and accuracy.
package main

import (
	"context"
	"expvar"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	_ "net/http/pprof"
	"os"
	"time"

	"tlrchol/internal/core"
	"tlrchol/internal/dense"
	"tlrchol/internal/dist"
	"tlrchol/internal/obs"
	"tlrchol/internal/ranks"
	"tlrchol/internal/rbf"
	"tlrchol/internal/runtime"
	"tlrchol/internal/sim"
	"tlrchol/internal/tilemat"
	sverify "tlrchol/internal/verify"
)

// distRemap maps a -dist name to the paper's distributions over the
// squarest P×Q grid for the node count: plain 2DBC, the Lorapo hybrid,
// and the band / diamond execution remaps of Section VII (data stays
// 2DBC; band and band+diamond give the executing ranks).
func distRemap(name string, nodes int) (dist.Remap, error) {
	p, q := dist.Grid(nodes)
	switch name {
	case "2dbc":
		return dist.Remap{Data: dist.TwoDBC{P: p, Q: q}}, nil
	case "lorapo":
		return dist.Remap{Data: dist.NewHybrid(p, q, 1)}, nil
	case "band":
		return dist.Remap{Data: dist.TwoDBC{P: p, Q: q}, Exec: dist.NewBand(p, q)}, nil
	case "diamond":
		return dist.Remap{Data: dist.TwoDBC{P: p, Q: q}, Exec: dist.BandDiamond(p, q)}, nil
	}
	return dist.Remap{}, fmt.Errorf("unknown distribution %q (want 2dbc, lorapo, band or diamond)", name)
}

func main() {
	n := flag.Int("n", 2048, "matrix size (number of boundary mesh points)")
	b := flag.Int("b", 128, "tile size")
	deltaFactor := flag.Float64("delta-factor", 2, "shape parameter as a multiple of ½·min distance")
	tol := flag.Float64("tol", 1e-6, "accuracy threshold")
	trim := flag.Bool("trim", true, "enable DAG trimming (Algorithm 1)")
	workers := flag.Int("workers", 0, "worker threads (0 = GOMAXPROCS)")
	seq := flag.Bool("sequential", false, "bypass the runtime (reference loop order)")
	verify := flag.Bool("verify", true, "verify the factor against the dense operator (costs O(n^3) memory/time)")
	check := flag.Bool("check", false, "statically verify the trimming analysis and task graph before executing (package verify)")
	showTrace := flag.Bool("trace", false, "print a per-class time breakdown and an ASCII Gantt chart")
	kernelName := flag.String("kernel", "gaussian", "RBF kernel: gaussian (global support) or wendland (compact support)")
	traceOut := flag.String("trace-out", "", "write a Chrome/Perfetto trace-event JSON file of the execution")
	showMetrics := flag.Bool("metrics", false, "print the metrics registry (counters, gauges, histograms) after the run")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof and expvar metrics on this address (e.g. localhost:6060)")
	nodes := flag.Int("nodes", 0, "virtual cluster nodes for distributed execution (0 = shared memory)")
	distName := flag.String("dist", "2dbc", "distribution for -nodes: 2dbc, lorapo, band or diamond")
	solveK := flag.Int("solve", 0, "after factorizing, solve this many random RHS in one blocked solve and report residuals (works without -verify's dense operator)")
	factorKind := flag.String("factor", "chol", "factorization: chol (SPD only) or ldlt (signed, symmetric indefinite)")
	augmented := flag.Bool("augmented", false, "factor the polynomial-augmented saddle-point system [K P; P^T 0] (indefinite; requires -factor ldlt)")
	flag.Parse()

	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "tlrchol: "+format+"\n", args...)
		os.Exit(2)
	}
	if *n <= 0 {
		fail("-n must be positive, got %d", *n)
	}
	if *b <= 0 {
		fail("-b must be positive, got %d", *b)
	}
	if *b > *n {
		fail("-b (%d) must not exceed -n (%d)", *b, *n)
	}
	if *tol <= 0 || math.IsNaN(*tol) {
		fail("-tol must be positive, got %g", *tol)
	}
	if *workers < 0 {
		fail("-workers must be ≥ 0 (0 = GOMAXPROCS), got %d", *workers)
	}
	if *nodes < 0 {
		fail("-nodes must be ≥ 0 (0 = shared memory), got %d", *nodes)
	}
	if *solveK < 0 {
		fail("-solve must be ≥ 0, got %d", *solveK)
	}
	switch *factorKind {
	case "chol", "ldlt":
	default:
		fail("unknown -factor %q (want chol or ldlt)", *factorKind)
	}
	ldlt := *factorKind == "ldlt"
	if *augmented && !ldlt {
		fail("-augmented builds an indefinite saddle-point system; it requires -factor ldlt")
	}
	if ldlt && *nodes > 0 {
		fail("-factor ldlt is not supported under -nodes (distributed execution factors Cholesky only)")
	}
	if *nodes > 0 {
		if _, err := distRemap(*distName, *nodes); err != nil {
			fail("%v", err)
		}
		if *seq {
			fail("-nodes and -sequential are mutually exclusive")
		}
	}

	if *pprofAddr != "" {
		expvar.Publish("tlrchol.metrics", expvar.Func(func() any { return obs.Default.Map() }))
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "pprof server: %v\n", err)
			}
		}()
		fmt.Printf("pprof/expvar serving on http://%s/debug/pprof and /debug/vars\n", *pprofAddr)
	}

	fmt.Printf("generating %d mesh points (virus population)...\n", *n)
	pts := rbf.VirusPopulation(rbf.DefaultVirusConfig(*n))[:*n]
	delta := *deltaFactor * rbf.DefaultShape(pts)
	var kernel rbf.Kernel
	switch *kernelName {
	case "gaussian":
		kernel = rbf.Gaussian{Delta: delta, Nugget: 100 * *tol}
	case "wendland":
		kernel = rbf.WendlandC2{Delta: 3 * delta, Nugget: 100 * *tol}
	default:
		fmt.Fprintf(os.Stderr, "unknown kernel %q\n", *kernelName)
		os.Exit(2)
	}
	prob, _ := rbf.NewProblem(pts, kernel)
	fmt.Printf("kernel %s, shape parameter delta=%.3e, tol=%.0e\n", *kernelName, delta, *tol)

	// The augmented system appends the 4 polynomial constraint rows, so
	// the factored operator is slightly larger than the point count.
	dim := *n
	asm := tilemat.Assembler(prob.Block)
	if *augmented {
		dim = prob.AugmentedDim()
		asm = prob.AugmentedBlock
		fmt.Printf("augmented saddle-point system: dim=%d (%d points + 4 polynomial constraints)\n", dim, *n)
	}

	start := time.Now()
	m, st := tilemat.FromAssembler(dim, *b, asm, *tol, 0)
	compT := time.Since(start)
	stats := m.Stats()
	fmt.Printf("compression: %v  (dense %.1f MB -> TLR %.1f MB, %.1fx)\n",
		compT.Round(time.Millisecond),
		float64(st.DenseBytes)/1e6, float64(st.CompressedBytes)/1e6,
		float64(st.DenseBytes)/float64(st.CompressedBytes))
	fmt.Printf("initial structure: density=%.3f  ranks max/avg/min = %d/%.1f/%d  (NT=%d)\n",
		stats.Density, stats.Max, stats.Avg, stats.Min, m.NT)
	rankBounds := []float64{0, 2, 4, 8, 16, 32, 64, 128, 256}
	m.ObserveRanks(obs.Default.Histogram("tilerank.before", rankBounds...))
	obs.Default.Counter("bytes.dense").Add(0, uint64(st.DenseBytes))
	obs.Default.Counter("bytes.compressed").Add(0, uint64(st.CompressedBytes))

	var op *tilemat.Matrix
	if *solveK > 0 {
		// Keep the unfactorized compressed operator for residual
		// evaluation: -solve must work without -verify's dense matrix.
		op = m.Clone()
	}

	if *check && !*seq {
		s := core.Structure(m, *trim)
		var fs sverify.Findings
		if *trim {
			fs = append(fs, sverify.CheckTrim(s, core.Ranks(m))...)
		}
		form := tilemat.FormCholesky
		if ldlt {
			form = tilemat.FormLDLt
		}
		g, _ := core.BuildGraph(m, s, core.Options{Tol: *tol}, form)
		fs = append(fs, sverify.CheckGraph(g)...)
		for _, f := range fs {
			fmt.Fprintf(os.Stderr, "static check: %v\n", f)
		}
		if err := fs.Err(); err != nil {
			fmt.Fprintln(os.Stderr, "static verification failed; refusing to execute")
			os.Exit(1)
		}
		passes := "graph acyclic and hazard-complete"
		if *trim {
			passes = "trim sound, " + passes
		}
		fmt.Printf("static verification: %s (%d tasks, %d edges)\n", passes, g.Tasks(), g.Edges())
	}

	var ref *dense.Matrix
	if *verify {
		if *augmented {
			ref = prob.AugmentedBlock(0, dim, 0, dim)
		} else {
			ref = prob.Dense()
		}
	}
	if *traceOut != "" && *seq {
		fmt.Fprintln(os.Stderr, "-trace-out requires the task runtime; ignoring under -sequential")
		*traceOut = ""
	}
	var rep core.Report
	var err error
	if *nodes > 0 {
		remap, _ := distRemap(*distName, *nodes)
		// Predict the communication of this exact configuration from the
		// pre-factorization rank structure, before execution mutates it.
		w := sim.NewWorkload(ranks.FromMatrix{M: m}, nil, *trim)
		pred, perr := sim.Run(w, sim.Config{Machine: sim.ShaheenII, Nodes: *nodes, Remap: remap})
		if perr != nil {
			fmt.Fprintf(os.Stderr, "sim prediction failed: %v\n", perr)
			os.Exit(1)
		}
		comm := obs.NewCommTracker(*nodes)
		var drep core.DistReport
		drep, err = core.FactorizeDistributed(m, core.DistOptions{
			Tol: *tol, Trim: *trim, Nodes: *nodes, WorkersPerNode: *workers,
			Remap: remap, Comm: comm,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "factorization failed: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("distributed factorization: %v on %d nodes × %d workers (%s)  tasks potrf/trsm/syrk/gemm = %d/%d/%d/%d\n",
			drep.Elapsed.Round(time.Millisecond), *nodes, drep.Cluster.Workers, *distName,
			drep.Potrf, drep.Trsm, drep.Syrk, drep.Gemm)
		if *trim {
			fmt.Printf("trimming analysis: %v\n", drep.Analysis.Round(time.Microsecond))
		}
		fmt.Print(drep.Cluster.Comm.String())
		meas := drep.Cluster.Comm.Totals()
		fmt.Printf("measured comm volume: %d msgs, %.2f MB moved (%.2f MB remap ship)\n",
			meas.MsgsSent, float64(meas.BytesSent)/1e6, float64(meas.ShipBytes)/1e6)
		fmt.Printf("sim prediction (%s): %d msgs, %.2f MB moved (%.2f MB remap ship)\n",
			sim.ShaheenII.Name, pred.Msgs, pred.CommVolume/1e6, pred.ShipVolume/1e6)
		rep.EffFlops, rep.DenseFlops = drep.EffFlops, drep.DenseFlops
		rep.TasksExecuted = drep.Cluster.Executed
		rep.TasksTrimmed = drep.TasksTrimmed
		rep.Trace = drep.Cluster.Trace
	} else {
		opts := core.Options{
			Tol: *tol, Trim: *trim, Workers: *workers, Sequential: *seq,
			CollectTrace: (*showTrace || *traceOut != "") && !*seq,
		}
		diagClass := "potrf"
		if ldlt {
			rep, err = core.FactorizeLDLt(m, opts)
			diagClass = "sytrf"
		} else {
			rep, err = core.Factorize(m, opts)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "factorization failed: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("factorization: %v  tasks %s/trsm/syrk/gemm = %d/%d/%d/%d\n",
			rep.Elapsed.Round(time.Millisecond), diagClass, rep.Potrf, rep.Trsm, rep.Syrk, rep.Gemm)
		if *trim {
			fmt.Printf("trimming analysis: %v, %.1f KB\n",
				rep.Analysis.Round(time.Microsecond), float64(rep.AnalysisBytes)/1e3)
		}
	}
	// The data-sparsity summary is the paper's headline number; print it
	// on every run, traced or not.
	effPct := 0.0
	if rep.DenseFlops > 0 {
		effPct = 100 * rep.EffFlops / rep.DenseFlops
	}
	// The SVD counters cover compression as well as factorization: a
	// capped SVD anywhere in the run returned factors short of working
	// precision.
	svds := obs.Default.Counter("dense.svd.calls").Value()
	sweepsPerSVD := 0.0
	if svds > 0 {
		sweepsPerSVD = float64(obs.Default.Counter("dense.svd.sweeps").Value()) / float64(svds)
	}
	fmt.Printf("data sparsity: %d tasks executed, %d trimmed away; effective flops %.3g of dense %.3g (%.1f%%); recompress calls %d, %.1f sweeps/SVD, capped %d\n",
		rep.TasksExecuted, rep.TasksTrimmed, rep.EffFlops, rep.DenseFlops, effPct,
		obs.Default.Counter("tlr.recompress.calls").Value(), sweepsPerSVD,
		obs.Default.Counter("dense.svd.capped").Value())
	final := m.Stats()
	fmt.Printf("final structure: density=%.3f  ranks max/avg/min = %d/%.1f/%d\n",
		final.Density, final.Max, final.Avg, final.Min)
	m.ObserveRanks(obs.Default.Histogram("tilerank.after", rankBounds...))
	if !*seq && *nodes == 0 {
		obs.Default.Gauge("sched.ready.highwater").Set(int64(rep.Runtime.MaxReady))
	}

	// The timeline: the runtime's task records, or on the virtual
	// cluster its node-worker and comm records.
	events := runtime.Events(rep.Trace)
	if *showTrace && len(events) > 0 {
		fmt.Println(obs.Summarize(events).String())
		fmt.Println(obs.Gantt(events, 100))
	}
	if rep.CritPath != nil {
		fmt.Print(rep.CritPath.String())
	}
	if *traceOut != "" {
		f, ferr := os.Create(*traceOut)
		if ferr != nil {
			fmt.Fprintf(os.Stderr, "trace-out: %v\n", ferr)
			os.Exit(1)
		}
		meta := map[string]any{
			"n": *n, "b": *b, "tol": *tol, "trim": *trim,
			"workers": rep.Runtime.Workers, "tasks": rep.TasksExecuted,
		}
		if werr := obs.WriteChromeTrace(f, events, meta); werr != nil {
			fmt.Fprintf(os.Stderr, "trace-out: %v\n", werr)
			os.Exit(1)
		}
		if cerr := f.Close(); cerr != nil {
			fmt.Fprintf(os.Stderr, "trace-out: %v\n", cerr)
			os.Exit(1)
		}
		// One span per record; the rest are ready-queue samples.
		fmt.Printf("trace: %d spans (%d events) -> %s\n", len(rep.Trace), len(events), *traceOut)
	}
	if *showMetrics {
		fmt.Print(obs.Default.Snapshot().String())
	}
	if *verify {
		if ldlt {
			fmt.Printf("factor error |LDL^T - A|/|A| = %.3e\n", core.FactorErrorLDLt(m, ref))
		} else {
			fmt.Printf("factor error |LL^T - A|/|A| = %.3e\n", core.FactorError(m, ref))
		}
		// Solve a deformation system and report the residual. Under
		// -augmented the constraint rows of b are zero: the right-hand
		// side is pure data, the trailing 4 solution rows are the
		// polynomial coefficients.
		rhs := dense.NewMatrix(dim, 3)
		for i := 0; i < *n; i++ {
			rhs.Set(i, 0, math.Sin(float64(i)))
			rhs.Set(i, 1, 0.5)
			rhs.Set(i, 2, math.Cos(float64(i)))
		}
		x := rhs.Clone()
		core.Solve(m, x)
		fmt.Printf("solve residual |Ax - b|/|b| = %.3e\n", core.ResidualNorm(ref, x, rhs))
	}
	if *solveK > 0 {
		rng := rand.New(rand.NewSource(7))
		rhs := dense.Random(rng, dim, *solveK)
		x := rhs.Clone()
		planStart := time.Now()
		plan := core.BuildSolvePlan(m)
		planT := time.Since(planStart)
		fwdLevels, bwdLevels := plan.Levels()
		fmt.Printf("solve plan: %d tasks, levels %d fwd / %d bwd, max width %d, %.1f KiB, built in %v\n",
			plan.Tasks(), fwdLevels, bwdLevels, plan.MaxWidth(),
			float64(plan.Bytes())/1024, planT.Round(time.Microsecond))
		sStart := time.Now()
		if err := plan.SolveCtx(context.Background(), m, x, 0); err != nil {
			fail("planned solve failed: %v", err)
		}
		solveT := time.Since(sStart)
		res := core.ColumnResiduals(core.TLROperator{M: op}, x, rhs)
		worst := 0.0
		for _, r := range res {
			if r > worst {
				worst = r
			}
		}
		fmt.Printf("blocked solve: %d RHS in %v (%.1f us/column), worst residual |Ax-b|/|b| = %.3e\n",
			*solveK, solveT.Round(time.Microsecond),
			float64(solveT.Microseconds())/float64(*solveK), worst)
	}
}
