// Command simulate drives the distributed performance models directly:
// pick a machine, node count, problem and configuration, and get the
// predicted time-to-solution with its resource breakdown — either from
// the discrete-event simulator (exact DAG, bounded sizes) or the
// analytic estimator (any size).
package main

import (
	"flag"
	"fmt"
	"os"

	"tlrchol/internal/dist"
	"tlrchol/internal/obs"
	"tlrchol/internal/ranks"
	"tlrchol/internal/runtime"
	"tlrchol/internal/sim"
)

func main() {
	machineName := flag.String("machine", "shaheen", "machine preset: shaheen or fugaku")
	nodes := flag.Int("nodes", 64, "number of nodes (one process per node)")
	n := flag.Int("n", 1_490_000, "matrix size")
	b := flag.Int("b", 4880, "tile size")
	delta := flag.Float64("delta", 3.7e-4, "Gaussian shape parameter")
	tol := flag.Float64("tol", 1e-4, "accuracy threshold")
	trimOn := flag.Bool("trim", true, "DAG trimming (Algorithm 1)")
	distName := flag.String("dist", "band+diamond", "execution distribution: 2dbc, band, band+diamond, lorapo")
	lorapo := flag.Bool("lorapo", false, "model the Lorapo baseline (untrimmed, floor-rank storage)")
	engine := flag.String("engine", "auto", "auto, event (exact DAG) or estimate (analytic)")
	gantt := flag.Bool("gantt", false, "print a per-process Gantt chart (event engine only)")
	critpath := flag.Bool("critpath", false, "print the realized critical-path attribution (event engine only)")
	traceOut := flag.String("trace-out", "", "write a Chrome/Perfetto trace-event JSON of the simulated schedule (event engine only)")
	flag.Parse()

	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "simulate: "+format+"\n", args...)
		os.Exit(2)
	}
	if *nodes <= 0 {
		fail("-nodes must be positive, got %d", *nodes)
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
	if *tol <= 0 {
		fail("-tol must be positive, got %g", *tol)
	}
	if *delta <= 0 {
		fail("-delta must be positive, got %g", *delta)
	}

	var machine sim.Machine
	switch *machineName {
	case "shaheen":
		machine = sim.ShaheenII
	case "fugaku":
		machine = sim.Fugaku
	default:
		fmt.Fprintf(os.Stderr, "unknown machine %q\n", *machineName)
		os.Exit(2)
	}
	p, q := dist.Grid(*nodes)
	data := dist.TwoDBC{P: p, Q: q}
	var remap dist.Remap
	switch *distName {
	case "2dbc":
		remap = dist.Remap{Data: data}
	case "band":
		remap = dist.Remap{Data: data, Exec: dist.NewBand(p, q)}
	case "band+diamond":
		remap = dist.Remap{Data: data, Exec: dist.BandDiamond(p, q)}
	case "lorapo":
		remap = dist.Remap{Data: dist.NewHybrid(p, q, 1)}
	default:
		fmt.Fprintf(os.Stderr, "unknown distribution %q\n", *distName)
		os.Exit(2)
	}
	cfg := sim.Config{Machine: machine, Nodes: *nodes, Remap: remap,
		CollectTrace: *gantt || *critpath || *traceOut != ""}

	model := ranks.FromShape(ranks.PaperGeometry(*n, *b, *delta, *tol))
	fmt.Printf("model: NT=%d, max rank %d, cutoff %d, density %.4f\n",
		model.NTiles, model.MaxRank, model.CutoffTiles, model.Density())

	// The event simulator materializes the DAG; refuse sizes that would
	// not fit and fall back to the estimator under -engine auto.
	potrf, trsm, syrk, gemm := 0, 0, 0, 0
	est := sim.Estimate(model, cfg, sim.EstOptions{Trimmed: *trimOn})
	potrf, trsm, syrk, gemm = est.Potrf, est.Trsm, est.Syrk, est.Gemm
	if !*trimOn {
		nt := model.NTiles
		gemm = nt * (nt - 1) * (nt - 2) / 6
	}
	tasks := potrf + trsm + syrk + gemm
	useEvent := *engine == "event" || (*engine == "auto" && tasks <= 6_000_000 && !*lorapo)

	var r sim.Result
	switch {
	case *lorapo:
		r = sim.Estimate(model, cfg, sim.EstOptions{Trimmed: false, LorapoFloor: 4})
		fmt.Println("engine: analytic estimator (Lorapo storage model)")
	case useEvent:
		w := sim.NewWorkload(model, &model, *trimOn)
		var err error
		r, err = sim.Run(w, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println("engine: discrete-event simulator")
	default:
		r = sim.Estimate(model, cfg, sim.EstOptions{Trimmed: *trimOn})
		fmt.Println("engine: analytic estimator")
	}

	fmt.Printf("time-to-solution: %.1fs (%.1f min)\n", r.Makespan, r.Makespan/60)
	fmt.Printf("tasks: %d (potrf/trsm/syrk/gemm = %d/%d/%d/%d, %d null)\n",
		r.Tasks, r.Potrf, r.Trsm, r.Syrk, r.Gemm, r.NullTasks)
	fmt.Printf("critical path (kernel roofline): %.1fs -> efficiency %.1f%%\n",
		r.CriticalPathTime, 100*r.Efficiency())
	fmt.Printf("load imbalance: %.2f | comm: %.1f GB", r.LoadImbalance(), r.CommVolume/1e9)
	if r.Msgs > 0 {
		fmt.Printf(" in %d messages", r.Msgs)
	}
	if r.ShipVolume > 0 {
		fmt.Printf(" | remap ship: %.1f GB", r.ShipVolume/1e9)
	}
	fmt.Println()
	if *gantt && len(r.Trace) > 0 {
		fmt.Println(obs.Gantt(runtime.Events(r.Trace), 100))
	}
	if *critpath && len(r.PathNodes) > 0 {
		fmt.Print(obs.CriticalPath(r.PathNodes).String())
	}
	if *traceOut != "" && len(r.Trace) > 0 {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "trace-out: %v\n", err)
			os.Exit(1)
		}
		meta := map[string]any{
			"machine": *machineName, "nodes": *nodes, "n": *n, "b": *b,
			"simulated": true,
		}
		if err := obs.WriteChromeTrace(f, runtime.Events(r.Trace), meta); err != nil {
			fmt.Fprintf(os.Stderr, "trace-out: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "trace-out: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("trace: %d simulated spans -> %s\n", len(r.Trace), *traceOut)
	}
}
