package serve

import (
	"context"
	"fmt"
	"sync"
	"time"

	"tlrchol/internal/core"
	"tlrchol/internal/dense"
	"tlrchol/internal/obs"
)

// SolveParams are the solve-side options that must match for two
// requests to share a batch: refinement changes the algorithm, and
// maxiter/target change when columns freeze.
type SolveParams struct {
	Refine  bool
	MaxIter int
	Target  float64
}

// batchKey groups jobs that can legally share one blocked solve.
type batchKey struct {
	fp string
	p  SolveParams
}

// solveJob is one request's contribution to a batch.
type solveJob struct {
	cols  *dense.Matrix // n×k right-hand sides, solved in place
	done  chan solveOutcome
	start time.Time
	// rt is the submitting request's trace (nil when tracing is off).
	// The batch leader's trace receives the execution spans; followers
	// learn the leader's id through the outcome so the shared detail
	// stays findable from any member of the batch.
	rt *obs.ReqTrace
}

type solveOutcome struct {
	residuals  []float64
	iterations []int
	batchCols  int
	waited     time.Duration
	solved     time.Duration
	// subst is the time spent inside the substitution (or refinement)
	// itself — no batch assembly, no residual evaluation — the number
	// the solve-plan work targets and /v1/stats reports percentiles of.
	subst time.Duration
	// leader is the trace id of the batch leader, whose trace carries
	// the per-task execution spans for the whole batch ("" when tracing
	// is off).
	leader string
	err    error
}

// pendingBatch collects jobs for one key during its window.
type pendingBatch struct {
	jobs []*solveJob
	cols int
	full chan struct{} // closed when the batch reaches maxCols
}

// Batcher coalesces concurrent solve requests against the same factor
// into one blocked multi-column substitution, harvesting the BLAS-3
// advantage of wide right-hand sides (BenchmarkSolveMultiRHS measures
// it at several-fold). Correctness rests on the width-oblivious solve
// path: each column of the blocked result is bitwise identical to its
// solo solve, so batching is invisible to clients. The first request
// for a key becomes the leader: it waits up to window (or until
// maxCols columns have gathered), then executes the batch and
// distributes per-column results.
type Batcher struct {
	mu      sync.Mutex
	window  time.Duration
	maxCols int
	timeout time.Duration
	workers int
	pending map[batchKey]*pendingBatch

	batches    *obs.Counter
	columns    *obs.Counter
	promotions *obs.Counter
	width      *obs.Histogram
}

// NewBatcher returns a batcher with the given coalescing window
// (≤ 0 disables waiting: every request solves alone), per-batch column
// cap (≤ 0 means 64), solve timeout (≤ 0 means 1 minute) and solve
// worker count (≤ 0 means GOMAXPROCS), reporting to reg.
func NewBatcher(window time.Duration, maxCols int, timeout time.Duration, workers int, reg *obs.Registry) *Batcher {
	if maxCols <= 0 {
		maxCols = 64
	}
	if timeout <= 0 {
		timeout = time.Minute
	}
	return &Batcher{
		window:     window,
		maxCols:    maxCols,
		timeout:    timeout,
		workers:    workers,
		pending:    map[batchKey]*pendingBatch{},
		batches:    reg.Counter("serve.batch.count"),
		columns:    reg.Counter("serve.batch.columns"),
		promotions: reg.Counter("serve.batch.promotions"),
		width:      reg.Histogram("serve.batch.width", 1, 2, 4, 8, 16, 32, 64),
	}
}

// Solve submits cols (n×k, consumed and overwritten) against factor f
// and blocks until the batch containing it completes or ctx is done.
// If the caller abandons the wait, the batch still completes for its
// other members; the abandoned result is discarded.
func (b *Batcher) Solve(ctx context.Context, f *Factor, p SolveParams, cols *dense.Matrix) solveOutcome {
	key := batchKey{fp: f.FP, p: p}
	job := &solveJob{cols: cols, done: make(chan solveOutcome, 1), start: time.Now(), rt: obs.TraceFrom(ctx)}

	b.mu.Lock()
	if pb, ok := b.pending[key]; ok && pb.cols+cols.Cols <= b.maxCols {
		pb.jobs = append(pb.jobs, job)
		pb.cols += cols.Cols
		if pb.cols >= b.maxCols {
			close(pb.full) // wake the leader early
		}
		b.mu.Unlock()
		return b.wait(ctx, job)
	}
	pb := &pendingBatch{jobs: []*solveJob{job}, cols: cols.Cols, full: make(chan struct{})}
	b.pending[key] = pb
	alreadyFull := pb.cols >= b.maxCols // joiners mutate pb.cols under b.mu; don't read it unlocked below
	b.mu.Unlock()

	// Leader: hold the window open, then claim the batch and execute.
	// A batch filled by joiners closes pb.full and ends the wait early.
	// A leader whose own context dies mid-window must not strand the
	// followers that joined its batch: it claims the batch, excises its
	// own job, and promotes the survivors — the batch executes on a
	// detached goroutine (execute already runs under the batcher's own
	// timeout, not any request's), with the first surviving follower's
	// trace adopting leadership.
	if b.window > 0 && !alreadyFull {
		timer := time.NewTimer(b.window)
		select {
		case <-timer.C:
		case <-pb.full:
			timer.Stop()
		case <-ctx.Done():
			timer.Stop()
			b.mu.Lock()
			if b.pending[key] == pb {
				delete(b.pending, key)
			}
			rest := make([]*solveJob, 0, len(pb.jobs)-1)
			for _, j := range pb.jobs {
				if j != job {
					rest = append(rest, j)
				}
			}
			b.mu.Unlock()
			if len(rest) > 0 {
				b.promotions.Add(0, 1)
				// Pin the factor for the detached execution: the
				// cancelled leader releases its own pin when its
				// handler returns, and every follower may abandon too.
				f.Retain()
				go func() {
					defer f.Release()
					b.execute(f, p, rest)
				}()
			}
			return solveOutcome{err: ctx.Err()}
		}
	}
	b.mu.Lock()
	if b.pending[key] == pb {
		delete(b.pending, key)
	}
	jobs := pb.jobs
	b.mu.Unlock()

	b.execute(f, p, jobs)
	return b.wait(ctx, job)
}

func (b *Batcher) wait(ctx context.Context, job *solveJob) solveOutcome {
	select {
	case out := <-job.done:
		return out
	case <-ctx.Done():
		return solveOutcome{err: ctx.Err()}
	}
}

// execute runs one blocked solve over the batch's assembled columns
// and splits results back per job. It runs under the batcher's own
// timeout, detached from any single request context, because a batch
// serves several requests at once.
func (b *Batcher) execute(f *Factor, p SolveParams, jobs []*solveJob) {
	ctx, cancel := context.WithTimeout(context.Background(), b.timeout)
	defer cancel()

	// The batch leader's trace adopts the execution: per-task solve-plan
	// spans recorded by the workers land in its ring (the detached ctx
	// carries it down), and the coalescing window becomes a span so the
	// cost of waiting for company is visible next to the solve itself.
	lrt := jobs[0].rt
	ctx = obs.ContextWithTrace(ctx, lrt)
	execStart := lrt.Now()
	lrt.Span("batch.window", -1, lrt.Offset(jobs[0].start), execStart-lrt.Offset(jobs[0].start), obs.SpanInfo{}, false)

	n := f.L.N
	total := 0
	for _, j := range jobs {
		total += j.cols.Cols
	}
	b.batches.Add(0, 1)
	b.columns.Add(0, uint64(total))
	b.width.Observe(0, float64(total))

	wide := dense.NewMatrix(n, total)
	at := 0
	for _, j := range jobs {
		for c := 0; c < j.cols.Cols; c++ {
			for r := 0; r < n; r++ {
				wide.Set(r, at+c, j.cols.At(r, c))
			}
		}
		at += j.cols.Cols
	}

	waited := time.Now()
	var (
		residuals  []float64
		iterations []int
		subst      time.Duration
		err        error
	)
	if p.Refine {
		// Refinement interleaves substitutions with operator applies;
		// RefineResult.SubstTime isolates the pure substitution share so
		// the latency breakdown separates subst from refine overhead.
		var res core.RefineResult
		res, err = f.Plan.RefineCtx(ctx, f.L, core.TLROperator{M: f.Op}, wide, p.MaxIter, p.Target, b.workers)
		subst = res.SubstTime
		if err == nil {
			residuals, iterations = res.ColResiduals, res.ColIterations
		}
	} else {
		rhs := wide.Clone()
		substStart := time.Now()
		err = f.Plan.SolveCtx(ctx, f.L, wide, b.workers)
		subst = time.Since(substStart)
		if err == nil {
			residuals = core.ColumnResiduals(core.TLROperator{M: f.Op}, wide, rhs)
		}
	}
	if err != nil {
		err = fmt.Errorf("batched solve (%d columns): %w", total, err)
	}
	solved := time.Since(waited)
	lrt.Span("batch.exec", -1, execStart, lrt.Now()-execStart, obs.SpanInfo{N: int32(total)}, true)
	leader := ""
	if lrt != nil {
		leader = lrt.ID
	}

	at = 0
	for _, j := range jobs {
		k := j.cols.Cols
		out := solveOutcome{batchCols: total, waited: waited.Sub(j.start), solved: solved, subst: subst, leader: leader, err: err}
		if err == nil {
			for c := 0; c < k; c++ {
				for r := 0; r < n; r++ {
					j.cols.Set(r, c, wide.At(r, at+c))
				}
			}
			out.residuals = residuals[at : at+k]
			if iterations != nil {
				out.iterations = iterations[at : at+k]
			}
		}
		at += k
		j.done <- out
	}
}
