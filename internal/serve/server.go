// Package serve turns the TLR Cholesky library into a long-running
// solve service. The economics come from the paper's workload shape:
// factorization costs O(n²·k) and is worth minutes; a solve against a
// cached factor costs O(n·k·nrhs) and is worth milliseconds. The
// service therefore (1) caches factors by problem fingerprint with
// single-flight deduplication and LRU eviction under a byte budget,
// (2) coalesces concurrent solves against the same factor into one
// blocked multi-column substitution, and (3) applies admission
// control so overload degrades into fast 429s instead of queue
// collapse.
//
// It is one HTTP front end (Server: mux, tracing, decoding, the error
// envelope, routing, stats) over N shards (shard.go), each with its own
// cache, batcher and admission gate. New builds one shard; NewFleet
// builds several behind a fingerprint router (router.go) that sends
// each problem to its one owner shard.
package serve

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"tlrchol/internal/obs"
)

// Config tunes the service. The zero value is usable: every field has
// a production-shaped default applied by New.
type Config struct {
	// CacheBudget bounds factor-cache memory in bytes (default 1 GiB).
	CacheBudget int64
	// BatchWindow is how long the first solve of a batch waits for
	// company (default 2ms; negative disables batching).
	BatchWindow time.Duration
	// MaxBatchCols caps columns per blocked solve (default 64).
	MaxBatchCols int
	// MaxInflight bounds concurrently admitted requests (default 64).
	MaxInflight int
	// MaxN rejects absurd problem sizes up front (default 16384).
	MaxN int
	// FactorizeTimeout bounds one factorization (default 5 minutes).
	FactorizeTimeout time.Duration
	// SolveTimeout bounds one batched solve (default 1 minute).
	SolveTimeout time.Duration
	// Workers is the factorization worker count (0 = GOMAXPROCS).
	Workers int
	// SolveWorkers is the worker count for planned parallel
	// substitutions (0 = GOMAXPROCS; the executor further clamps to the
	// plan's widest level set).
	SolveWorkers int
	// Metrics selects the registry (nil = obs.Default).
	Metrics *obs.Registry
	// DisableTracing turns off per-request span detail. Requests still
	// get trace ids and the always-on latency breakdown; what goes away
	// is the span ring (and with it the per-task solve-plan spans), so
	// the warm solve path runs with zero tracing work.
	DisableTracing bool
	// TraceSpanCap sizes each detailed request's span ring (default
	// 4096; overflow is counted, not recorded).
	TraceSpanCap int
	// FlightSlow is how many of the slowest traces the flight recorder
	// keeps per endpoint (0 = default 32).
	FlightSlow int
	// AccessLog, when non-nil, receives one structured JSON line per
	// completed request. Lines are written whole under a server mutex,
	// so any io.Writer is safe.
	AccessLog io.Writer
}

func (c *Config) defaults() {
	if c.CacheBudget == 0 {
		c.CacheBudget = 1 << 30
	}
	if c.BatchWindow == 0 {
		c.BatchWindow = 2 * time.Millisecond
	}
	if c.MaxBatchCols <= 0 {
		c.MaxBatchCols = 64
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 64
	}
	if c.MaxN <= 0 {
		c.MaxN = 16384
	}
	if c.FactorizeTimeout <= 0 {
		c.FactorizeTimeout = 5 * time.Minute
	}
	if c.SolveTimeout <= 0 {
		c.SolveTimeout = time.Minute
	}
	if c.Metrics == nil {
		c.Metrics = obs.Default
	}
	if c.TraceSpanCap <= 0 {
		c.TraceSpanCap = 4096
	}
}

// FleetConfig sizes a multi-shard service.
type FleetConfig struct {
	// Shards is the shard count (0 = default 3).
	Shards int
	// Shard is the per-shard config. Shard.Metrics is ignored: each
	// shard, and the front end, gets a registry of its own so per-shard
	// counters never collide.
	Shard Config
}

// Server is the HTTP solve service: one front end over one shard (New)
// or several (NewFleet). Mount Handler on an http.Server and drain with
// http.Server.Shutdown — in-flight requests (including batch leaders
// mid-window) run to completion.
//
// The front end owns everything HTTP-facing: the mux, request tracing,
// decoding and the error envelope, and the rendezvous router. It calls
// the shards in process. The router hashes the problem fingerprint to
// its owner shard, and every factorize and solve for that fingerprint
// goes there and nowhere else, so:
//
//   - that shard's single-flight collapses concurrent builds — exactly
//     one factorization per fingerprint service-wide;
//   - cache capacity partitions instead of duplicating: S shards hold
//     S distinct working sets;
//   - a saturated owner's 429 reaches the client with the owner's own
//     Retry-After hint.
//
// One trace id covers the router hop and the shard's work: the front
// end records a router.route span, the shard a shard.solve or
// shard.factorize span.
type Server struct {
	cfg     Config // per-shard template with defaults applied
	reg     *obs.Registry
	shards  []*shard
	tr      *tracer
	mux     *http.ServeMux
	started time.Time

	httpErrors, factorReqs, solveReqs, routeRejected *obs.Counter

	statsMu    sync.Mutex
	lastTotals map[string]uint64
}

// New builds a single server from cfg (the zero value is fine): one
// shard, reporting to cfg.Metrics like the front end.
func New(cfg Config) *Server {
	cfg.defaults()
	return newServer(1, cfg, func() *obs.Registry { return cfg.Metrics })
}

// NewFleet builds a service of cfg.Shards shards behind the fingerprint
// router, the front end and each shard on a registry of its own.
func NewFleet(cfg FleetConfig) *Server {
	if cfg.Shards <= 0 {
		cfg.Shards = 3
	}
	cfg.Shard.Metrics = obs.NewRegistry(4)
	return newServer(cfg.Shards, cfg.Shard, func() *obs.Registry { return obs.NewRegistry(4) })
}

// newServer builds a front end reporting to cfg.Metrics over shards
// shards, each reporting to a registry from shardReg.
func newServer(shards int, cfg Config, shardReg func() *obs.Registry) *Server {
	cfg.defaults()
	reg := cfg.Metrics
	s := &Server{
		cfg:           cfg,
		reg:           reg,
		shards:        make([]*shard, shards),
		mux:           http.NewServeMux(),
		started:       time.Now(),
		httpErrors:    reg.Counter("serve.http.errors"),
		factorReqs:    reg.Counter("serve.factorize.requests"),
		solveReqs:     reg.Counter("serve.solve.requests"),
		routeRejected: reg.Counter("fleet.route.rejected"),
	}
	s.tr = newTracer(&cfg)
	for i := range s.shards {
		s.shards[i] = newShard(i, cfg, shardReg())
	}

	s.mux.HandleFunc("POST /v1/factorize", s.tr.traced("/v1/factorize", true, s.handleFactorize))
	s.mux.HandleFunc("POST /v1/solve", s.tr.traced("/v1/solve", true, s.handleSolve))
	s.mux.HandleFunc("GET /v1/trace/{id}", s.handleTrace)
	s.mux.HandleFunc("GET /v1/stats", s.tr.traced("/v1/stats", false, s.handleStats))
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.Handle("GET /debug/vars", expvar.Handler())
	return s
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// errorBody is the uniform error envelope.
type errorBody struct {
	Error string `json:"error"`
}

// apiError carries an HTTP status (plus an optional Retry-After hint)
// from a shard back through the router to the client.
type apiError struct {
	code       int
	retryAfter int // seconds; > 0 emits a Retry-After header
	msg        string
}

func (e *apiError) Error() string { return e.msg }

func apiErrorf(code int, format string, args ...any) *apiError {
	return &apiError{code: code, msg: fmt.Sprintf(format, args...)}
}

// fail writes the uniform error envelope and counts the error.
func (s *Server) fail(w http.ResponseWriter, code int, format string, args ...any) {
	s.httpErrors.Add(0, 1)
	writeJSON(w, code, errorBody{Error: fmt.Sprintf(format, args...)})
}

// failAPI writes an apiError, propagating its Retry-After hint.
func (s *Server) failAPI(w http.ResponseWriter, e *apiError) {
	if e.retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(e.retryAfter))
	}
	s.fail(w, e.code, "%s", e.msg)
}

func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, 64<<20)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		s.fail(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

// admitFirst takes the only shard's admission slot before the body is
// read: with one shard the owner is known without a fingerprint, so
// overload sheds with a 429 without paying for a JSON parse. With
// several shards it holds nothing; the owner admits once the request
// is routed. ok is false when the 429 has been sent; held
// reports a slot on shard 0 that the caller must release.
func (s *Server) admitFirst(w http.ResponseWriter) (held, ok bool) {
	if len(s.shards) > 1 {
		return false, true
	}
	if aerr := s.shards[0].admit(); aerr != nil {
		s.routeRejected.Add(0, 1)
		s.failAPI(w, aerr)
		return false, false
	}
	return true, true
}

// key normalizes the spec and fingerprints it — once, at the front
// end. The shard it routes to builds from the same points on a miss.
func (s *Server) key(sp *ProblemSpec) (problemKey, error) {
	if err := sp.normalize(s.cfg.MaxN); err != nil {
		return problemKey{}, err
	}
	pts := sp.points()
	if err := validatePoints(pts); err != nil {
		return problemKey{}, err
	}
	return problemKey{fp: Fingerprint(*sp, pts), pts: pts}, nil
}

// FactorizeRequest is the /v1/factorize body: just a problem spec.
type FactorizeRequest struct {
	Problem ProblemSpec `json:"problem"`
}

// FactorizeResponse reports the cached or freshly built factor.
type FactorizeResponse struct {
	Fingerprint string      `json:"fingerprint"`
	Cached      bool        `json:"cached"`
	N           int         `json:"n"`
	Tile        int         `json:"tile"`
	Bytes       int64       `json:"bytes"`
	Stats       FactorStats `json:"stats"`
	// Shard names the shard that did the work.
	Shard *int `json:"shard,omitempty"`
}

func (s *Server) handleFactorize(w http.ResponseWriter, r *http.Request) {
	s.factorReqs.Add(0, 1)
	held, ok := s.admitFirst(w)
	if !ok {
		return
	}
	if held {
		defer s.shards[0].adm.Release()
	}
	var req FactorizeRequest
	if !s.decode(w, r, &req) {
		return
	}
	rt := obs.TraceFrom(r.Context())
	routeStart := rt.Now()
	k, err := s.key(&req.Problem)
	if err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Factorizations route to the owner only: building on any other
	// shard would break the one-factorization-per-fingerprint guarantee.
	owner := s.owner(k.fp)
	rt.Span("router.route", -1, routeStart, rt.Now()-routeStart, obs.SpanInfo{}, false)
	rt.Tag("shard", strconv.Itoa(owner))
	resp, aerr := s.shards[owner].doFactorize(r.Context(), &req, k, held)
	if aerr != nil {
		if aerr.code == http.StatusTooManyRequests {
			s.routeRejected.Add(0, 1)
		}
		s.failAPI(w, aerr)
		return
	}
	resp.Shard = &owner
	writeJSON(w, http.StatusOK, resp)
}

// SolveRequest is the /v1/solve body. The factor is named either by a
// full problem spec (built on miss) or by a fingerprint from a prior
// factorize (404 on miss). Right-hand sides come as explicit columns
// or as a server-generated seeded random block.
type SolveRequest struct {
	Problem     *ProblemSpec `json:"problem,omitempty"`
	Fingerprint string       `json:"fingerprint,omitempty"`
	// RHS holds explicit right-hand-side columns, each of length n.
	RHS [][]float64 `json:"rhs,omitempty"`
	// NRHS with RHSSeed asks the server to generate random columns.
	NRHS    int   `json:"nrhs,omitempty"`
	RHSSeed int64 `json:"rhs_seed,omitempty"`
	// Refine runs iterative refinement to Target (default tol/10,
	// capped at MaxIter sweeps, default 20).
	Refine  bool    `json:"refine,omitempty"`
	MaxIter int     `json:"maxiter,omitempty"`
	Target  float64 `json:"target,omitempty"`
	// ReturnSolution includes the solution columns in the response.
	ReturnSolution bool `json:"return_solution,omitempty"`
}

// SolveResponse reports per-column results plus batching evidence.
type SolveResponse struct {
	Fingerprint string  `json:"fingerprint"`
	Cached      bool    `json:"cached"`
	Columns     int     `json:"columns"`
	BatchCols   int     `json:"batch_columns"`
	WaitMS      float64 `json:"wait_ms"`
	SolveMS     float64 `json:"solve_ms"`
	// SubstMS is the time inside the triangular substitution alone —
	// no batching wait, no residual evaluation.
	SubstMS    float64     `json:"subst_ms"`
	Residuals  []float64   `json:"residuals"`
	Iterations []int       `json:"iterations,omitempty"`
	Solution   [][]float64 `json:"solution,omitempty"`
	// TraceID names this request's trace (also in the X-Trace-Id
	// header); LeaderTrace names the batch leader's trace, which holds
	// the per-task execution spans when this request rode a shared
	// batch (equal to TraceID when this request led).
	TraceID     string `json:"trace_id,omitempty"`
	LeaderTrace string `json:"leader_trace,omitempty"`
	// Shard names the shard that served the solve.
	Shard *int `json:"shard,omitempty"`
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	s.solveReqs.Add(0, 1)
	held, ok := s.admitFirst(w)
	if !ok {
		return
	}
	if held {
		defer s.shards[0].adm.Release()
	}
	var req SolveRequest
	if !s.decode(w, r, &req) {
		return
	}
	rt := obs.TraceFrom(r.Context())
	routeStart := rt.Now()
	var k problemKey
	switch {
	case req.Problem != nil:
		var err error
		if k, err = s.key(req.Problem); err != nil {
			s.fail(w, http.StatusBadRequest, "%v", err)
			return
		}
	case req.Fingerprint != "":
		k.fp = req.Fingerprint
	default:
		s.fail(w, http.StatusBadRequest, "request must carry a problem spec or a fingerprint")
		return
	}
	owner := s.owner(k.fp)
	rt.Span("router.route", -1, routeStart, rt.Now()-routeStart, obs.SpanInfo{}, false)
	rt.Tag("shard", strconv.Itoa(owner))
	resp, aerr := s.shards[owner].doSolve(r.Context(), &req, k, held)
	if aerr != nil {
		if aerr.code == http.StatusTooManyRequests {
			s.routeRejected.Add(0, 1)
		}
		s.failAPI(w, aerr)
		return
	}
	resp.Shard = &owner
	writeJSON(w, http.StatusOK, resp)
}

// SingleFlightStats aggregates the service-wide factorization economy.
type SingleFlightStats struct {
	// FactorizeRuns is the total number of factorizations actually
	// executed across all shards — the keystone number: a burst of
	// identical requests should move it by exactly one.
	FactorizeRuns uint64 `json:"factorize_runs"`
	CacheHits     uint64 `json:"cache_hits"`
	Waits         uint64 `json:"singleflight_waits"`
}

// RouterStats counts routing outcomes.
type RouterStats struct {
	Requests uint64 `json:"requests"`
	Rejected uint64 `json:"rejected"`
}

// ShardStatsEntry is one shard's slice of the stats.
type ShardStatsEntry struct {
	ID            int            `json:"id"`
	FactorizeRuns uint64         `json:"factorize_runs"`
	Cache         CacheStats     `json:"cache"`
	Admission     AdmissionStats `json:"admission"`
}

// StatsResponse is the /v1/stats body. The top-level cache, admission,
// solve-only, totals and window views are service-wide: sums
// over the shards (percentiles over the union of their windows), with
// the counters of every registry summed by name. Totals are lifetime
// values; Window is the delta since the previous stats scrape —
// Snapshot/Delta semantics built for exactly this long-lived process.
type StatsResponse struct {
	UptimeSec float64           `json:"uptime_sec"`
	Cache     CacheStats        `json:"cache"`
	Admission AdmissionStats    `json:"admission"`
	SolveOnly SolveLatencyStats `json:"solve_only"`
	// Request covers end-to-end /v1/solve latency (routing, queueing,
	// batching and response overhead included) with a per-percentile
	// breakdown; SolveOnly above remains the substitution-only series.
	Request RequestLatencyStats `json:"request"`
	// Flight summarizes the trace recorder: how many traces are
	// retained and which retained request was slowest.
	Flight obs.FlightStats   `json:"flight"`
	Totals map[string]uint64 `json:"totals"`
	Window map[string]uint64 `json:"window"`

	Shards       []ShardStatsEntry `json:"shards"`
	SingleFlight SingleFlightStats `json:"single_flight"`
	Router       RouterStats       `json:"router"`
}

// Stats assembles the /v1/stats body. Each call closes the counter
// window the previous call opened.
func (s *Server) Stats() StatsResponse {
	totals := map[string]uint64{}
	addCounters := func(reg *obs.Registry) {
		for _, c := range reg.Snapshot().Counters {
			totals[c.Name] += c.Value
		}
	}
	addCounters(s.reg)
	resp := StatsResponse{
		UptimeSec: time.Since(s.started).Seconds(),
		Shards:    make([]ShardStatsEntry, len(s.shards)),
		Request:   requestLatencyStats(s.tr.reqLatency),
		Flight:    s.tr.flight.Stats(),
		Router: RouterStats{
			Requests: s.factorReqs.Value() + s.solveReqs.Value(),
			Rejected: s.routeRejected.Value(),
		},
	}
	rings := make([]*ring[float64], len(s.shards))
	for i, sh := range s.shards {
		if sh.reg != s.reg {
			addCounters(sh.reg)
		}
		e := ShardStatsEntry{
			ID:            i,
			FactorizeRuns: sh.factorRuns.Value(),
			Cache:         sh.cache.Stats(),
			Admission:     sh.adm.Stats(),
		}
		resp.Shards[i] = e
		rings[i] = sh.solveOnly
		c, a := &resp.Cache, &resp.Admission
		c.Entries += e.Cache.Entries
		c.Bytes += e.Cache.Bytes
		c.Budget += e.Cache.Budget
		c.Hits += e.Cache.Hits
		c.Misses += e.Cache.Misses
		c.Waits += e.Cache.Waits
		c.Evictions += e.Cache.Evictions
		a.MaxInflight += e.Admission.MaxInflight
		a.Inflight += e.Admission.Inflight
		a.Accepted += e.Admission.Accepted
		a.Rejected += e.Admission.Rejected
		resp.SingleFlight.FactorizeRuns += e.FactorizeRuns
	}
	resp.SolveOnly = solveLatencyStats(rings...)
	resp.SingleFlight.CacheHits = resp.Cache.Hits
	resp.SingleFlight.Waits = resp.Cache.Waits

	window := make(map[string]uint64, len(totals))
	s.statsMu.Lock()
	for name, v := range totals {
		window[name] = v - min(v, s.lastTotals[name])
	}
	s.lastTotals = totals
	s.statsMu.Unlock()
	resp.Totals, resp.Window = totals, window
	return resp
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// handleMetrics prints the front end's registry, then every shard
// registry that is not that same registry under a shardN. prefix: a
// single server prints one unprefixed scrape.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, s.reg.Snapshot().String())
	var inflight int64
	for i, sh := range s.shards {
		if sh.reg != s.reg {
			fmt.Fprint(w, sh.reg.Snapshot().StringPrefix(fmt.Sprintf("shard%d.", i)))
		}
		inflight += sh.adm.inflight.Load()
	}
	fmt.Fprintf(w, "  %-28s %s\n", "serve.uptime", time.Since(s.started).Round(time.Second))
	fmt.Fprintf(w, "  %-28s %d\n", "serve.inflight", inflight)
}
