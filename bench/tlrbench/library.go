package main

import (
	"context"
	"fmt"
	"time"

	"tlrchol/internal/core"
	"tlrchol/internal/dense"
	"tlrchol/internal/obs"
	"tlrchol/internal/rbf"
	"tlrchol/internal/tilemat"
)

// libraryWorkload drives the library pipeline directly: a round is one
// pass (assemble and compress, factorize, build the solve plan, solve
// three right-hand sides) followed by warm planned solves against that
// factor, narrow (one column) and wide (sixteen).
type libraryWorkload struct {
	spec   spec
	warm1  int
	warm16 int
}

// Both library workloads run core.Factorize on the same geometry; the tile
// count is what differs. At 32 tiles of 128 most tiles keep a rank and
// low-rank GEMM with recompression is the pass; at 32 tiles of 256 over
// twice the points nine tiles in ten are null, trimming removes nine tasks
// in ten, and assembly and compression outweigh the factorization.
var (
	factorRank   = libraryWorkload{spec: gaussian(4096, 128, 2, 42), warm1: 200, warm16: 20}
	factorSparse = libraryWorkload{spec: gaussian(8192, 256, 2, 42), warm1: 40, warm16: 8}
)

// passColumns is the width of the block a pass solves.
const passColumns = 3

// library is the state a set-up leaves behind for the timed rounds.
type library struct {
	w    libraryWorkload
	prob *rbf.Problem
	// rhs and ref hold the pass block, the narrow block and the wide
	// block, and the checked solutions the timed ones must equal.
	rhs, ref [3]*dense.Matrix
	// m and plan are the factor in hand, those of the latest pass.
	m    *tilemat.Matrix
	plan *core.SolvePlan
}

var libraryWidths = [3]int{passColumns, 1, 16}

// setUp does everything that precedes the first timed operation: points,
// Hilbert ordering, right-hand sides, one untimed pass, and the check of
// every reference solution against the exact kernel operator.
func (w libraryWorkload) setUp(seed int64, r *report) (*library, error) {
	l := &library{w: w, prob: geometry(w.spec)}
	for i, cols := range libraryWidths {
		l.rhs[i] = randomRHS(rhsSeed(seed, i), w.spec.N, cols)
	}
	x, _, err := l.pass(nil, 0)
	if err != nil {
		return nil, err
	}
	l.ref[0] = x
	for i := 1; i < len(l.rhs); i++ {
		l.ref[i] = l.rhs[i].Clone()
		if err := l.plan.SolveCtx(context.Background(), l.m, l.ref[i], workers); err != nil {
			return nil, err
		}
	}
	// One application of the exact operator checks all three blocks.
	x, b := hcat(hcat(l.ref[0], l.ref[1]), l.ref[2]), hcat(hcat(l.rhs[0], l.rhs[1]), l.rhs[2])
	res := worst(exactResiduals(l.prob, x, b, false))
	r.op(accepted(res, w.spec.Tol), "set-up solves: residual %.3g against the exact operator exceeds %g·tol", res, float64(tolFactor))
	return l, nil
}

// compress assembles and compresses the operator. In a traced run every
// call the tile builder makes into rbf is a child span of the compression.
func compress(rec *recorder, prob *rbf.Problem, sp spec, parent, op int32) (*tilemat.Matrix, tilemat.CompressionStats, int32, error) {
	id := rec.open("tilemat.compress", parent, op, 0)
	asm := tilemat.Assembler(prob.Block)
	if rec != nil {
		asm = func(r0, r1, c0, c1 int) *dense.Matrix {
			start := rec.now()
			b := prob.Block(r0, r1, c0, c1)
			rec.add("rbf.block", id, op, 1, start, rec.now())
			return b
		}
	}
	m, cs, err := tilemat.FromAssemblerParallel(sp.N, sp.Tile, asm, sp.Tol, sp.MaxRank, workers)
	rec.close(id)
	return m, cs, id, err
}

// factorize runs core.Factorize in place. In a traced run the runtime's
// per-task records become child spans, one track per runtime worker.
func factorize(rec *recorder, m *tilemat.Matrix, sp spec, nworkers int, parent, op int32) (core.Report, error) {
	id := rec.open("core.factorize", parent, op, 0)
	rep, err := core.Factorize(m, core.Options{Tol: sp.Tol, MaxRank: sp.MaxRank, Trim: true,
		Workers: nworkers, CollectTrace: rec != nil})
	rec.close(id)
	if rec != nil {
		origin := rec.now() - rep.Runtime.Elapsed
		rec.add("trim.analyze", id, op, 0, origin-rep.Analysis, origin)
		for _, t := range rep.Trace {
			rec.add("core."+obs.ClassOf(t.Label), id, op, 2+int32(t.Worker), origin+t.Start, origin+t.Start+t.Duration)
		}
	}
	return rep, err
}

// pass takes the problem from its geometry to the solution of the pass
// block and leaves the factor and its plan in l. It is the operation
// time_to_solution_s times.
func (l *library) pass(rec *recorder, op int32) (*dense.Matrix, time.Duration, error) {
	sp := l.w.spec
	start := time.Now()
	root := rec.open("pass", 0, op, 0)
	m, _, _, err := compress(rec, l.prob, sp, root, op)
	if err != nil {
		return nil, 0, fmt.Errorf("compression: %w", err)
	}
	if _, err := factorize(rec, m, sp, workers, root, op); err != nil {
		return nil, 0, fmt.Errorf("factorization: %w", err)
	}
	id := rec.open("core.plan_build", root, op, 0)
	plan := core.BuildSolvePlan(m)
	rec.close(id)
	id = rec.open("core.solve", root, op, 0)
	x := l.rhs[0].Clone()
	err = plan.SolveCtx(context.Background(), m, x, workers)
	rec.close(id)
	rec.close(root)
	l.m, l.plan = m, plan
	return x, time.Since(start), err
}

// warmSolve times one planned solve of block i against the factor in hand
// and checks the solution bit for bit against the set-up's.
func (l *library) warmSolve(rec *recorder, op int32, i int, x *dense.Matrix, r *report) (time.Duration, error) {
	x.CopyFrom(l.rhs[i])
	id := rec.open("core.solve", 0, op, 0)
	start := time.Now()
	err := l.plan.SolveCtx(context.Background(), l.m, x, workers)
	dt := time.Since(start)
	rec.close(id)
	r.op(err == nil && sameBits(x, l.ref[i]), "warm solve of %d columns differs from the checked set-up solution (err=%v)", x.Cols, err)
	return dt, err
}

// libraryTimes are the series a sequence of rounds produces, in seconds.
type libraryTimes struct {
	pass, solve1, solve16 []float64
}

// rounds runs whole rounds until the window is used up: a round starts
// only if one more of the size of the last fits.
func (l *library) rounds(rec *recorder, window time.Duration, r *report) (libraryTimes, error) {
	var t libraryTimes
	x1, x16 := dense.NewMatrix(l.w.spec.N, 1), dense.NewMatrix(l.w.spec.N, 16)
	begin := time.Now()
	for last := time.Duration(0); len(t.pass) == 0 || time.Since(begin)+last <= window; {
		roundStart := time.Now()
		op := int32(r.attempted)
		x, dt, err := l.pass(rec, op)
		if err != nil {
			return t, err
		}
		r.op(sameBits(x, l.ref[0]), "pass solution differs from the set-up pass's")
		t.pass = append(t.pass, dt.Seconds())
		for i := 0; i < l.w.warm1; i++ {
			dt, err := l.warmSolve(rec, int32(r.attempted), 1, x1, r)
			if err != nil {
				return t, err
			}
			t.solve1 = append(t.solve1, dt.Seconds())
		}
		for i := 0; i < l.w.warm16; i++ {
			dt, err := l.warmSolve(rec, int32(r.attempted), 2, x16, r)
			if err != nil {
				return t, err
			}
			t.solve16 = append(t.solve16, dt.Seconds())
		}
		last = time.Since(roundStart)
	}
	return t, nil
}

// stop is what a service's set-up needs undone; a library's needs nothing.
func (l *library) stop() {}

func (w libraryWorkload) run(rc runConfig, r *report) error {
	l, setups, err := setUps(rc, func() (*library, error) { return w.setUp(rc.seed, r) })
	if err != nil {
		return err
	}
	t, err := l.rounds(nil, rc.window(), r)
	if err != nil {
		return err
	}
	r.printf("rounds=%d passes=%d narrow_solves=%d wide_solves=%d", len(t.pass), len(t.pass), len(t.solve1), len(t.solve16))
	if rc.trace {
		traced, err := l.rounds(r.rec, rc.window(), r)
		if err != nil {
			return err
		}
		r.set("bench.trace_overhead_ratio", "ratio", minOf(traced.pass)/minOf(t.pass))
		return nil
	}
	r.setSeries("setup_s", "s", 1, setups)
	r.setSeries("time_to_solution_s", "s", 1, t.pass)
	r.setSeries("solve_ms", "ms", 1e3, t.solve1)
	r.set("solve_rps", "1/s", 16/minOf(t.solve16))
	r.describe("solve_16_columns_s", t.solve16)
	r.set("factor_bytes", "B", float64(int64(l.m.Bytes())+l.plan.Bytes()))
	return nil
}
