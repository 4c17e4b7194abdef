// Command tlrbench is the repository's benchmark. One invocation runs one
// named workload for a given seed and duration, checks every answer, and
// prints the end-to-end metrics (tracing off) or the per-layer metrics
// (tracing on) of BENCHMARK.json as the last line of standard output.
//
// Every layer is measured from outside: the program times calls into the
// public functions of the packages under internal/ and reads what they
// already return. bench/README.md holds the workload, metric and
// interaction tables and the rationale of the estimators.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// workers is the one parallelism setting of the benchmark: GOMAXPROCS,
// core.Options.Workers, serve.Config.Workers and SolveWorkers all take it,
// so a run on a wider machine measures the same configuration.
const workers = 2

// tolFactor bounds an accepted residual: an answer whose relative residual
// exceeds tolFactor·tol is a failed operation.
const tolFactor = 10

// workload is one entry of BENCHMARK.json's workload list.
type workload struct {
	name string
	// primary is the problem the layer sweep of a traced run walks.
	primary spec
	run     func(rc runConfig, r *report) error
}

var workloads = []workload{
	{"factor-rank", factorRank.spec, factorRank.run},
	{"factor-sparse", factorSparse.spec, factorSparse.run},
	{"serve-hot", serveHot.resident, serveHot.run},
	{"serve-churn", serveChurn.specs[0], serveChurn.run},
}

// runConfig is what the command line chooses.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	// outDir receives trace-<workload>.json in a traced run.
	outDir string
}

// window is the time a sequence of rounds may fill. A traced run gives a
// third of --seconds to untraced rounds, the base of the overhead ratio,
// and a third to the same rounds under spans; the layer sweep follows.
func (rc runConfig) window() time.Duration {
	w := time.Duration(rc.seconds * float64(time.Second))
	if rc.trace {
		w /= 3
	}
	return w
}

// setUps sets up from scratch three times and returns the last state
// with the time each took: setup_s is the fastest, like every other
// repeated operation. A traced run reports no set-up time and sets up once.
func setUps[T interface{ stop() }](rc runConfig, setUp func() (T, error)) (T, []float64, error) {
	var state T
	var times []float64
	for i := 0; i < 3 && (i == 0 || !rc.trace); i++ {
		if i > 0 {
			state.stop()
		}
		start := time.Now()
		var err error
		if state, err = setUp(); err != nil {
			return state, nil, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	return state, times, nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tlrbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "factor-rank, factor-sparse, serve-hot or serve-churn")
	seed := fs.Int64("seed", 1, "draws every right-hand side; geometry is a constant of the workload")
	seconds := fs.Float64("seconds", 24, "length of the measured window")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with the per-layer metrics")
	outDir := fs.String("out", ".bench_build", "directory for trace-<workload>.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "tlrbench: need --workload <name> --seed <n> --seconds <s> --trace <0|1>\n")
		return 2
	}
	// The planned solve and the task runtime fall back to their sequential
	// paths on one CPU; measuring that silently would mislabel every number.
	if runtime.NumCPU() < workers {
		fmt.Fprintf(stderr, "tlrbench: %d CPU(s), need %d: refusing to measure the sequential fallback\n", runtime.NumCPU(), workers)
		return 2
	}
	runtime.GOMAXPROCS(workers)

	rc := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, outDir: *outDir}
	r := newReport(stdout)
	r.printf("tlrbench %s seed=%d seconds=%g trace=%d gomaxprocs=%d workers=%d solve_workers=%d cpus=%d",
		w.name, rc.seed, rc.seconds, *trace, runtime.GOMAXPROCS(0), workers, workers, runtime.NumCPU())
	if err := execute(w, rc, r); err != nil {
		fmt.Fprintf(stderr, "tlrbench: %v\n", err)
		return 1
	}
	if err := r.emit(); err != nil {
		fmt.Fprintf(stderr, "tlrbench: %v\n", err)
		return 1
	}
	if r.failed > 0 {
		return 1
	}
	return 0
}

// execute runs the workload and, in a traced run, the layer sweep, and
// writes the trace file.
func execute(w *workload, rc runConfig, r *report) error {
	planned := plannedRuns()
	if rc.trace {
		r.rec = newRecorder()
	}
	if err := w.run(rc, r); err != nil {
		return err
	}
	// Every workload solves against factors of NT ≥ 8 with two workers, so
	// the planned executor must have run; if it did not, the solve numbers
	// above are those of the sequential sweep under another name.
	r.check(plannedRuns() > planned, "solve.run.planned did not advance: planned solves fell back to the sequential sweep")
	if !rc.trace {
		return nil
	}
	if err := sweep(w.primary, rc, r); err != nil {
		return err
	}
	r.spanMetrics()
	if err := os.MkdirAll(rc.outDir, 0o755); err != nil {
		return err
	}
	return r.rec.writeFile(filepath.Join(rc.outDir, "trace-"+w.name+".json"), map[string]any{
		"workload": w.name, "seed": rc.seed, "gomaxprocs": runtime.GOMAXPROCS(0),
		"args": "k = span id, m = parent span id (0: none), n = operation id",
	})
}

// metric is one value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects what a run prints: detail lines as they happen, then
// the one result object.
type report struct {
	out       io.Writer
	attempted int
	failed    int
	metrics   map[string]metric
	// rec is non-nil in a traced run; spans are recorded only while a
	// traced round or the sweep passes it on.
	rec *recorder
}

func newReport(out io.Writer) *report {
	return &report{out: out, metrics: map[string]metric{}}
}

func (r *report) printf(format string, args ...any) {
	fmt.Fprintf(r.out, format+"\n", args...)
}

// op counts one attempted operation; ok false counts it as failed and
// says why.
func (r *report) op(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.fail(format, args...)
	}
}

// check counts a violated run-level invariant as one failed operation.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.attempted++
		r.fail(format, args...)
	}
}

func (r *report) fail(format string, args ...any) {
	r.failed++
	if r.failed <= 20 {
		r.printf("FAILED: "+format, args...)
	}
}

func (r *report) set(name, unit string, v float64) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// setSeries records the quiet estimate of a series (the fastest sample)
// as the metric and prints the spread it was taken from.
func (r *report) setSeries(name, unit string, scale float64, s []float64) {
	scaled := make([]float64, len(s))
	for i, v := range s {
		scaled[i] = scale * v
	}
	r.set(name, unit, minOf(scaled))
	r.describe(name, scaled)
}

// describe prints n, min, quartiles and the highest percentile with ten
// samples beyond it, so a reader sees what the quiet estimate leaves out.
func (r *report) describe(name string, s []float64) {
	sorted := sortedCopy(s)
	tail := "-"
	for _, p := range []float64{99.9, 99, 95, 90} {
		if float64(len(sorted))*(100-p)/100 >= 10 {
			tail = fmt.Sprintf("p%g=%.6g", p, quantile(sorted, p/100))
			break
		}
	}
	r.printf("  %-28s n=%d min=%.6g q1=%.6g median=%.6g q3=%.6g %s", name, len(sorted),
		sorted[0], quantile(sorted, 0.25), quantile(sorted, 0.5), quantile(sorted, 0.75), tail)
}

// emit prints every metric by name with its unit, then the result line.
func (r *report) emit() error {
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		r.printf("%-32s %.9g %s", n, r.metrics[n].Value, r.metrics[n].Unit)
	}
	r.printf("attempted=%d failed=%d", r.attempted, r.failed)
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, r.metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(r.out, "%s\n", line)
	return err
}

func sortedCopy(s []float64) []float64 {
	c := append([]float64(nil), s...)
	sort.Float64s(c)
	return c
}

// quantile is the nearest-rank quantile of an ascending slice.
func quantile(sorted []float64, q float64) float64 {
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func median(s []float64) float64 { return quantile(sortedCopy(s), 0.5) }

func minOf(s []float64) float64 {
	m := s[0]
	for _, v := range s[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

func maxOf(s []float64) float64 {
	m := s[0]
	for _, v := range s[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

func mean(s []float64) float64 {
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t / float64(len(s))
}
