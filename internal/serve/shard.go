package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"time"

	"tlrchol/internal/core"
	"tlrchol/internal/dense"
	"tlrchol/internal/obs"
	"tlrchol/internal/rbf"
	"tlrchol/internal/tilemat"
)

// shard is one solve engine behind the front end: a factor cache with
// single-flight builds, a batcher and an admission gate, reporting to
// its own registry (or, in a single server, to the front end's). It
// has no HTTP surface: the front end decodes, routes and calls
// doFactorize and doSolve in process, and the shard records its work
// into the trace it finds in the context.
type shard struct {
	id      int
	cfg     Config
	reg     *obs.Registry
	cache   *FactorCache
	batcher *Batcher
	adm     *Admission

	// opReuse counts builds that reused a resident factor's operator.
	factorRuns, opReuse                       *obs.Counter
	factorLatency, solveLatency, substLatency *obs.Histogram
	// solveOnly tracks recent substitution-only latencies for the
	// /v1/stats percentile report and the Retry-After estimator.
	solveOnly *ring[float64]
}

// newShard builds shard id from cfg (defaults applied) on reg.
func newShard(id int, cfg Config, reg *obs.Registry) *shard {
	return &shard{
		id:            id,
		cfg:           cfg,
		reg:           reg,
		cache:         NewFactorCache(cfg.CacheBudget, reg),
		batcher:       NewBatcher(cfg.BatchWindow, cfg.MaxBatchCols, cfg.SolveTimeout, cfg.SolveWorkers, reg),
		adm:           NewAdmission(cfg.MaxInflight, reg),
		factorRuns:    reg.Counter("serve.factorize.runs"),
		opReuse:       reg.Counter("serve.factorize.op_reuse"),
		factorLatency: reg.Histogram("serve.factorize.latency_ms", 10, 100, 1000, 10000, 60000),
		solveLatency:  reg.Histogram("serve.solve.latency_ms", 1, 5, 10, 50, 100, 1000, 10000),
		substLatency:  reg.Histogram("serve.solve.subst_ms", 1, 5, 10, 50, 100, 1000, 10000),
		solveOnly:     newRing[float64](0),
	}
}

// problemKey is a normalized spec's fingerprint and the geometry it was
// computed from. The front end computes it to route the request, and a
// cache miss builds from the same points, so the geometry is generated
// once per request.
type problemKey struct {
	fp  string
	pts []rbf.Point
}

// retryAfterEstimate predicts, in whole seconds, when an admission
// slot should free: the recent median substitution latency times the
// current queue depth. A cold shard (no latency history) assumes a
// 25ms solve. Clamped to [1, 30] — the hint steers client backoff, it
// is not a promise. The client-facing header adds jitter on top (admit)
// to decorrelate retry storms.
func (sh *shard) retryAfterEstimate() int {
	st := solveLatencyStats(sh.solveOnly)
	p50 := st.P50MS
	if st.Count == 0 || p50 <= 0 {
		p50 = 25
	}
	inflight := float64(sh.adm.inflight.Load())
	if inflight < 1 {
		inflight = 1
	}
	secs := int(math.Ceil(p50 * inflight / 1000))
	if secs < 1 {
		secs = 1
	}
	if secs > 30 {
		secs = 30
	}
	return secs
}

// admit claims an admission slot, or returns the 429 for a full gate.
// The caller releases a claimed slot with adm.Release. The 429's hint
// is the estimate ±25% jitter, still clamped to ≥ 1.
func (sh *shard) admit() *apiError {
	if sh.adm.TryAcquire() {
		return nil
	}
	est := sh.retryAfterEstimate()
	if j := est / 4; j > 0 {
		est += rand.Intn(2*j+1) - j
	}
	if est < 1 {
		est = 1
	}
	return &apiError{
		code:       http.StatusTooManyRequests,
		retryAfter: est,
		msg:        fmt.Sprintf("shard %d at capacity (%d inflight); retry after backoff", sh.id, sh.cfg.MaxInflight),
	}
}

// doFactorize resolves the factor on this shard. It claims an
// admission slot unless the front end already holds one (held), and
// records the shard's work as a span on the request's trace.
func (sh *shard) doFactorize(ctx context.Context, req *FactorizeRequest, k problemKey, held bool) (*FactorizeResponse, *apiError) {
	rt := obs.TraceFrom(ctx)
	start := rt.Now()
	if !held {
		if aerr := sh.admit(); aerr != nil {
			return nil, aerr
		}
		defer sh.adm.Release()
	}
	defer func() { rt.Span("shard.factorize", int32(sh.id), start, rt.Now()-start, obs.SpanInfo{}, false) }()
	rt.Phase("queue", 0, rt.Now())
	resolveStart := rt.Now()
	f, cached, err := sh.resolveFactor(ctx, req.Problem, k)
	rt.Phase("factor", resolveStart, rt.Now()-resolveStart)
	if err != nil {
		return nil, factorAPIError(err)
	}
	defer f.Release()
	rt.Tag("fp", fpPrefix(f.FP))
	rt.Tag("cache", hitMiss(cached))
	return &FactorizeResponse{
		Fingerprint: f.FP,
		Cached:      cached,
		N:           f.Spec.N,
		Tile:        f.Spec.Tile,
		Bytes:       f.SizeBytes,
		Stats:       f.FactorStats,
	}, nil
}

// fpPrefix shortens a fingerprint for tags and log lines: enough to
// correlate, short enough to scan.
func fpPrefix(fp string) string {
	if len(fp) > 12 {
		return fp[:12]
	}
	return fp
}

func hitMiss(cached bool) string {
	if cached {
		return "hit"
	}
	return "miss"
}

// factorAPIError maps resolution errors onto HTTP codes.
func factorAPIError(err error) *apiError {
	switch {
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		return apiErrorf(http.StatusGatewayTimeout, "factorization did not complete: %v", err)
	case errors.Is(err, errBuildPanicked):
		return apiErrorf(http.StatusInternalServerError, "%v", err)
	}
	return apiErrorf(http.StatusBadRequest, "%v", err)
}

// resolveFactor gets-or-builds the factor for the normalized spec sp
// through the single-flight cache. The returned factor is pinned for
// the caller (Release when the solve is done).
func (sh *shard) resolveFactor(ctx context.Context, sp ProblemSpec, k problemKey) (*Factor, bool, error) {
	// The requester that wins the single-flight donates its trace to
	// the build: its /v1/trace shows compress/factorize/plan spans.
	// Waiters see the build only as their "factor" phase duration.
	rt := obs.TraceFrom(ctx)
	return sh.cache.Get(ctx, k.fp, func() (*Factor, error) {
		return sh.buildFactor(rt, sp, k.pts, k.fp)
	})
}

// buildFactor assembles, compresses and factorizes the problem. It
// runs under the shard's factorization budget, detached from any one
// request context: a single-flight build may be serving many waiters,
// so the first requester hanging up must not kill it for the rest.
func (sh *shard) buildFactor(rt *obs.ReqTrace, sp ProblemSpec, pts []rbf.Point, fp string) (*Factor, error) {
	ctx, cancel := context.WithTimeout(context.Background(), sh.cfg.FactorizeTimeout)
	defer cancel()
	// The build runs detached from the request's cancellation but keeps
	// its trace: core.Factorize records analyze/run spans against it.
	ctx = obs.ContextWithTrace(ctx, rt)
	sh.factorRuns.Add(0, 1)
	start := time.Now()

	// Hashed in generation order, before sp.problem sorts pts.
	opKey := operatorKey(sp, pts)
	op, prob, delta, err := sh.operator(rt, sp, pts, opKey)
	if err != nil {
		return nil, err
	}
	compress := time.Since(start)
	// Op's tiles may be shared with other factors' operators; the
	// factorization writes only into this deep copy.
	m := op.Clone()

	opts := core.Options{
		Tol:     sp.Tol,
		MaxRank: sp.MaxRank,
		Trim:    *sp.Trim,
		Workers: sh.cfg.Workers,
		Context: ctx,
		Metrics: sh.reg,
	}
	var rep core.Report
	if sp.Factor == "ldlt" {
		rep, err = core.FactorizeLDLt(m, opts)
	} else {
		rep, err = core.Factorize(m, opts)
	}
	if err != nil {
		return nil, fmt.Errorf("factorization failed: %w", err)
	}
	// Build the substitution schedule alongside the factor, still under
	// the single-flight: every solve against this entry reuses it, and
	// its bytes ride the same cache budget (evicted together).
	planStart := time.Now()
	planSpanStart := rt.Now()
	plan := core.BuildSolvePlan(m)
	planBuild := time.Since(planStart)
	rt.Span("factor.plan", -1, planSpanStart, rt.Now()-planSpanStart, obs.SpanInfo{}, false)
	fwdLevels, _ := plan.Levels()

	elapsed := time.Since(start)
	sh.factorLatency.Observe(0, float64(elapsed.Milliseconds()))
	st := m.Stats()
	return &Factor{
		FP:        fp,
		Spec:      sp,
		L:         m,
		Op:        op,
		Plan:      plan,
		SizeBytes: int64(m.Bytes()+op.Bytes()) + plan.Bytes(),
		FactorStats: FactorStats{
			ElapsedMS:     float64(elapsed.Milliseconds()),
			CompressMS:    float64(compress.Milliseconds()),
			Density:       st.Density,
			MaxRank:       st.Max,
			TasksTrimmed:  rep.TasksTrimmed,
			TasksExecuted: rep.TasksExecuted,
			PlanBuildMS:   float64(planBuild) / float64(time.Millisecond),
			PlanLevels:    fwdLevels,
			PlanMaxWidth:  plan.MaxWidth(),
		},
		opKey: opKey,
		prob:  prob,
		delta: delta,
	}, nil
}

// operator returns the spec's compressed operator, the KD-ordered
// problem it was assembled from and its shape parameter δ. A resident
// factor with the same operator key (the spec up to its nugget) lends
// its operator: the off-diagonal tiles are shared, the diagonal tiles
// are assembled anew at this spec's nugget, and the result is bit for
// bit what a full build gives. Otherwise the problem is built from pts
// and every tile assembled and compressed.
func (sh *shard) operator(rt *obs.ReqTrace, sp ProblemSpec, pts []rbf.Point, opKey string) (*tilemat.Matrix, *rbf.Problem, float64, error) {
	spanStart := rt.Now()
	if src := sh.cache.lookupOperator(opKey); src != nil {
		defer src.Release()
		prob := &rbf.Problem{Points: src.prob.Points, Kernel: sp.kernel(src.delta)}
		op, err := tilemat.WithDiagonal(src.Op, sp.assembler(prob), sh.cfg.Workers)
		if err != nil {
			return nil, nil, 0, fmt.Errorf("diagonal assembly failed: %w", err)
		}
		sh.opReuse.Add(0, 1)
		rt.Span("factor.reuse", -1, spanStart, rt.Now()-spanStart, obs.SpanInfo{}, false)
		return op, prob, src.delta, nil
	}
	prob, delta := sp.problem(pts)
	op, _, err := tilemat.FromAssemblerParallel(sp.Dim(), sp.Tile, sp.assembler(prob), sp.Tol, sp.MaxRank, sh.cfg.Workers)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("compression failed: %w", err)
	}
	rt.Span("factor.compress", -1, spanStart, rt.Now()-spanStart, obs.SpanInfo{}, false)
	return op, prob, delta, nil
}

// assembler returns the tile assembler of the spec's operator over
// prob: the kernel matrix, or the augmented saddle-point system.
func (sp ProblemSpec) assembler(prob *rbf.Problem) tilemat.Assembler {
	if sp.Augmented {
		return prob.AugmentedBlock
	}
	return prob.Block
}

// doSolve runs one solve on this shard. It claims an admission slot
// unless the front end already holds one (held), and records the
// shard's work as a span on the request's trace. The request names its
// factor by a normalized spec (keyed by k) or by a fingerprint. The
// factor stays pinned from acquisition to the end of response assembly,
// so concurrent eviction can drop it from the cache but never free it
// mid-substitution.
func (sh *shard) doSolve(ctx context.Context, req *SolveRequest, k problemKey, held bool) (resp *SolveResponse, aerr *apiError) {
	rt := obs.TraceFrom(ctx)
	start := rt.Now()
	if !held {
		if aerr := sh.admit(); aerr != nil {
			return nil, aerr
		}
		defer sh.adm.Release()
	}
	defer func() { rt.Span("shard.solve", int32(sh.id), start, rt.Now()-start, obs.SpanInfo{}, false) }()
	reqStart := time.Now()

	// Validate the RHS shape before paying for any factorization the
	// request might trigger.
	var (
		f      *Factor
		cached bool
		n      int
	)
	defer func() {
		if f != nil {
			f.Release()
		}
	}()
	if req.Problem != nil {
		n = req.Problem.N
	} else {
		// A fingerprint names a factor this shard already holds.
		var ok bool
		if f, ok = sh.cache.Lookup(req.Fingerprint); !ok {
			return nil, apiErrorf(http.StatusNotFound, "no cached factor for fingerprint %q; send a problem spec", req.Fingerprint)
		}
		cached = true
		n = f.Spec.N
	}
	cols, err := buildRHS(req, n, sh.cfg.MaxBatchCols)
	if err != nil {
		return nil, apiErrorf(http.StatusBadRequest, "%v", err)
	}
	// Queue covers everything up to factor resolution: admission,
	// decode, routing, validation, RHS materialization.
	rt.Phase("queue", 0, rt.Now())
	resolveStart := rt.Now()
	if f == nil {
		f, cached, err = sh.resolveFactor(ctx, *req.Problem, k)
		if err != nil {
			return nil, factorAPIError(err)
		}
	}
	rt.Phase("factor", resolveStart, rt.Now()-resolveStart)
	rt.Tag("fp", fpPrefix(f.FP))
	rt.Tag("cache", hitMiss(cached))
	if d := f.Spec.Dim(); d != cols.Rows {
		// Augmented factor: the request's columns carry the N data rows;
		// the 4 polynomial constraint rows of the saddle-point system are
		// identically zero. Pad here so the whole solve pipeline sees the
		// factor's dimension (the response assembly below reads only the
		// first N rows back, which drops the padding again).
		padded := dense.NewMatrix(d, cols.Cols)
		for i := 0; i < cols.Rows; i++ {
			copy(padded.Row(i), cols.Row(i))
		}
		cols = padded
	}
	p := SolveParams{Refine: req.Refine, MaxIter: req.MaxIter, Target: req.Target}
	if p.Refine {
		if p.MaxIter <= 0 {
			p.MaxIter = 20
		}
		if p.Target <= 0 {
			p.Target = f.Spec.Tol / 10
		}
	} else {
		p.MaxIter, p.Target = 0, 0
	}

	sctx, cancel := context.WithTimeout(ctx, sh.cfg.SolveTimeout)
	defer cancel()
	submitAt := rt.Now()
	out := sh.batcher.Solve(sctx, f, p, cols)
	if out.err != nil {
		code := http.StatusInternalServerError
		if errors.Is(out.err, context.Canceled) || errors.Is(out.err, context.DeadlineExceeded) {
			code = http.StatusGatewayTimeout
		}
		return nil, apiErrorf(code, "%v", out.err)
	}
	sh.solveLatency.Observe(0, float64(time.Since(reqStart).Milliseconds()))
	substMS := float64(out.subst) / float64(time.Millisecond)
	sh.substLatency.Observe(0, substMS)
	sh.solveOnly.Record(substMS)

	// Breakdown phases partition submit→completion: the batch wait, the
	// pure substitution, and the rest of the solve (residual check in
	// direct mode, operator applies and convergence logic under
	// refinement). Together with queue and factor above they account
	// for the request's full timeline.
	rt.Phase("batch_wait", submitAt, out.waited)
	rt.Phase("subst", submitAt+out.waited, out.subst)
	solveRest := out.solved - out.subst
	if req.Refine {
		rt.Phase("refine", submitAt+out.waited+out.subst, solveRest)
	} else {
		rt.Phase("resid", submitAt+out.waited+out.subst, solveRest)
	}
	rt.Tag("batch", strconv.Itoa(out.batchCols))

	resp = &SolveResponse{
		Fingerprint: f.FP,
		Cached:      cached,
		Columns:     cols.Cols,
		BatchCols:   out.batchCols,
		WaitMS:      float64(out.waited) / float64(time.Millisecond),
		SolveMS:     float64(out.solved) / float64(time.Millisecond),
		SubstMS:     substMS,
		Residuals:   out.residuals,
		Iterations:  out.iterations,
		LeaderTrace: out.leader,
	}
	if rt != nil {
		resp.TraceID = rt.ID
	}
	if req.ReturnSolution {
		resp.Solution = make([][]float64, cols.Cols)
		for j := 0; j < cols.Cols; j++ {
			col := make([]float64, f.Spec.N)
			for i := range col {
				col[i] = cols.At(i, j)
			}
			resp.Solution[j] = col
		}
	}
	return resp, nil
}

// buildRHS materializes the request's right-hand sides as an n×k
// matrix.
func buildRHS(req *SolveRequest, n, maxCols int) (*dense.Matrix, error) {
	if len(req.RHS) > 0 {
		if len(req.RHS) > maxCols {
			return nil, fmt.Errorf("%d RHS columns exceed the per-request limit %d", len(req.RHS), maxCols)
		}
		m := dense.NewMatrix(n, len(req.RHS))
		for j, col := range req.RHS {
			if len(col) != n {
				return nil, fmt.Errorf("rhs column %d has %d entries, want n=%d", j, len(col), n)
			}
			for i, v := range col {
				m.Set(i, j, v)
			}
		}
		return m, nil
	}
	if req.NRHS <= 0 {
		return nil, fmt.Errorf("request must carry rhs columns or nrhs > 0")
	}
	if req.NRHS > maxCols {
		return nil, fmt.Errorf("nrhs=%d exceeds the per-request limit %d", req.NRHS, maxCols)
	}
	seed := req.RHSSeed
	if seed == 0 {
		seed = 1
	}
	return dense.Random(rand.New(rand.NewSource(seed)), n, req.NRHS), nil
}
