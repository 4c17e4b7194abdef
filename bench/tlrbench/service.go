package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"tlrchol/internal/dense"
	"tlrchol/internal/obs"
	"tlrchol/internal/serve"
)

// service is one serve.Server or serve.Fleet behind a loopback HTTP
// listener, with the client that drives it. The workloads pay for HTTP and
// JSON on every request, as a user of the service does.
type service struct {
	ts *httptest.Server
	// gets counts the requests sent that resolve a factor through the
	// cache; the cache's hits, misses and waits must add up to it.
	gets int
	// solves numbers the solve requests: each draws its own right-hand
	// sides from --seed.
	solves int
	// builds holds what /v1/factorize reported of each factor it built,
	// bytes the sum of their sizes.
	builds []serve.FactorStats
	bytes  int64
}

func startService(h http.Handler) *service {
	return &service{ts: httptest.NewServer(h)}
}

func (s *service) stop() { s.ts.Close() }

// serviceConfig is the configuration every service of the benchmark runs
// with: the pinned worker counts, the default 2 ms batch window, request
// span detail off, and a registry of its own so that counters of earlier
// set-ups do not leak into the measured one.
func serviceConfig(cacheBudget int64) serve.Config {
	return serve.Config{CacheBudget: cacheBudget, Workers: workers, SolveWorkers: workers,
		Metrics: obs.NewRegistry(workers), DisableTracing: true}
}

// call sends one JSON request and decodes a 200 answer into out.
func (s *service) call(method, path string, in, out any) (int, error) {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return 0, err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, s.ts.URL+path, body)
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.ts.Client().Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512)) // best effort: the status already says it failed
		return resp.StatusCode, fmt.Errorf("%s", bytes.TrimSpace(msg))
	}
	return resp.StatusCode, json.NewDecoder(resp.Body).Decode(out)
}

// stats reads /v1/stats.
func (s *service) stats() (serve.StatsResponse, error) {
	var st serve.StatsResponse
	_, err := s.call(http.MethodGet, "/v1/stats", nil, &st)
	return st, err
}

// factorize posts /v1/factorize for the spec.
func (s *service) factorize(sp spec) (serve.FactorizeResponse, error) {
	var fr serve.FactorizeResponse
	s.gets++
	_, err := s.call(http.MethodPost, "/v1/factorize", serve.FactorizeRequest{Problem: sp}, &fr)
	if err == nil && !fr.Cached {
		s.builds = append(s.builds, fr.Stats)
		s.bytes += fr.Bytes
	}
	return fr, err
}

// sample is one solve request as its client saw it.
type sample struct {
	client int32
	// start and end are on the recorder's clock; zero in untraced rounds.
	start, end time.Duration
	ms         float64
	status     int
	err        error
	resp       serve.SolveResponse
}

// shape is what every solve request of a workload has in common.
type shape struct {
	cols   int
	refine bool
}

// request builds the n-th solve request of a run. The server draws the
// right-hand sides from rhs_seed, which is all that --seed decides.
func (sh shape) request(sp spec, seed int64, n int) *serve.SolveRequest {
	return &serve.SolveRequest{Problem: &sp, NRHS: sh.cols, RHSSeed: rhsSeed(seed, n), Refine: sh.refine}
}

// solve sends one solve and times it from the marshalling of the request
// to the decoded answer. It is safe to call from several clients at once;
// the caller numbers and judges the samples afterwards.
func (s *service) solve(rec *recorder, client int32, req *serve.SolveRequest) sample {
	sm := sample{client: client, start: rec.now()}
	start := time.Now()
	sm.status, sm.err = s.call(http.MethodPost, "/v1/solve", req, &sm.resp)
	sm.ms = float64(time.Since(start)) / float64(time.Millisecond)
	sm.end = rec.now()
	return sm
}

// latencies returns the client-side latencies of the samples in ms.
func latencies(samples []sample) []float64 {
	ms := make([]float64, len(samples))
	for i, sm := range samples {
		ms[i] = sm.ms
	}
	return ms
}

// judge counts the samples as operations: each must be a 200 with the
// columns asked for and every server-reported residual within bounds. In
// a traced round each becomes a request span whose children are the
// phases the server reported. The server reports durations, not instants,
// so the phases are laid out back to back up to the end of the request;
// what precedes them, the request's self time, is HTTP, JSON, admission
// and the look-up of the factor.
func (s *service) judge(rec *recorder, samples []sample, sh shape, tol float64, r *report) {
	ms := func(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }
	for _, sm := range samples {
		s.gets++
		op := int32(r.attempted)
		res := worst(sm.resp.Residuals)
		r.op(sm.err == nil && sm.resp.Columns == sh.cols && len(sm.resp.Residuals) == sh.cols && accepted(res, tol),
			"solve: status %d, %d columns, residual %.3g, err=%v", sm.status, sm.resp.Columns, res, sm.err)
		if rec == nil {
			continue
		}
		track := 2 + sm.client
		id := rec.add("request", 0, op, track, sm.start, sm.end)
		solveStart := max(sm.start, sm.end-ms(sm.resp.SolveMS))
		rec.add("serve.batch_wait", id, op, track, max(sm.start, solveStart-ms(sm.resp.WaitMS)), solveStart)
		solve := rec.add("serve.solve", id, op, track, solveStart, sm.end)
		rec.add("serve.subst", solve, op, track, solveStart, min(sm.end, solveStart+ms(sm.resp.SubstMS)))
	}
}

// checkedSolve sends one solve that returns its solution and checks it
// against the exact operator of the spec's geometry.
func (s *service) checkedSolve(sp spec, sh shape, seed int64, r *report) {
	req := sh.request(sp, seed, s.solves)
	s.solves++
	req.ReturnSolution = true
	sm := s.solve(nil, 0, req)
	s.judge(nil, []sample{sm}, sh, sp.Tol, r)
	if sm.err != nil || len(sm.resp.Solution) != sh.cols {
		return
	}
	x := dense.NewMatrix(sp.N, sh.cols)
	for j, col := range sm.resp.Solution {
		for i, v := range col {
			x.Set(i, j, v)
		}
	}
	res := worst(exactResiduals(geometry(sp), x, randomRHS(req.RHSSeed, sp.N, sh.cols), sp.Augmented))
	r.op(accepted(res, sp.Tol), "set-up solve on geometry %d: residual %.3g against the exact operator exceeds %g·tol",
		sp.Seed, res, float64(tolFactor))
}

// accounted checks that the cache saw every request the benchmark sent.
func (s *service) accounted(st serve.StatsResponse, r *report) {
	seen := st.Cache.Hits + st.Cache.Misses + st.Cache.Waits
	r.check(seen == uint64(s.gets), "cache hits+misses+waits = %d, requests sent = %d", seen, s.gets)
}

// hotWorkload is the read path: one resident factor, closed-loop clients
// that only ever hit it, then a tail of cold requests, each against a spec
// the cache has not seen.
type hotWorkload struct {
	resident spec
	clients  int
	// hits is the number of requests each client sends in a round.
	hits int
	// coldShare is the share of the window the cold tail takes.
	coldShare float64
}

var serveHot = hotWorkload{resident: gaussian(4096, 256, 2, 42), clients: 2, hits: 25, coldShare: 0.25}

var hotShape = shape{cols: 1}

type hotService struct {
	*service
	w     hotWorkload
	colds int
}

// setUp starts a server, makes the one spec resident, checks one solve
// against the exact operator and warms the clients' connections.
func (w hotWorkload) setUp(seed int64, r *report) (*hotService, error) {
	h := &hotService{service: startService(serve.New(serviceConfig(0)).Handler()), w: w}
	if _, err := h.factorize(w.resident); err != nil {
		h.stop()
		return nil, err
	}
	h.checkedSolve(w.resident, hotShape, seed, r)
	h.hitRound(nil, seed, r)
	return h, nil
}

// hitRound lets every client send its hits, one after the other, and
// returns the samples and the round's wall time.
func (h *hotService) hitRound(rec *recorder, seed int64, r *report) ([]sample, time.Duration) {
	perClient := make([][]sample, h.w.clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := range perClient {
		wg.Add(1)
		go func(c, first int) {
			defer wg.Done()
			for i := 0; i < h.w.hits; i++ {
				perClient[c] = append(perClient[c], h.solve(rec, int32(c), hotShape.request(h.w.resident, seed, first+i)))
			}
		}(c, h.solves+c*h.w.hits)
	}
	wg.Wait()
	wall := time.Since(start)
	h.solves += h.w.clients * h.w.hits
	var all []sample
	for _, samples := range perClient {
		h.judge(rec, samples, hotShape, h.w.resident.Tol, r)
		for _, sm := range samples {
			r.check(sm.resp.Cached, "hit round: request was not served from the cache")
		}
		all = append(all, samples...)
	}
	return all, wall
}

// coldRequest solves against a spec the cache has not seen: the resident
// geometry with the nugget moved by one part in a million per request, a
// new fingerprint at the cost of the old.
func (h *hotService) coldRequest(rec *recorder, seed int64, r *report) sample {
	h.colds++
	sp := h.w.resident
	sp.Nugget *= 1 + float64(h.colds)/(1<<20)
	sm := h.solve(rec, 0, hotShape.request(sp, seed, h.solves))
	h.solves++
	h.judge(rec, []sample{sm}, hotShape, sp.Tol, r)
	r.check(!sm.resp.Cached, "cold request was served from the cache")
	return sm
}

// hotTimes are the series of a hit phase and a cold tail.
type hotTimes struct {
	hitMedianMS, rate []float64
	hits, colds       []sample
}

// rounds fills hitWindow with hit rounds and coldWindow with cold requests.
func (h *hotService) rounds(rec *recorder, seed int64, hitWindow, coldWindow time.Duration, r *report) hotTimes {
	var t hotTimes
	begin := time.Now()
	for last := time.Duration(0); len(t.rate) == 0 || time.Since(begin)+last <= hitWindow; {
		var hits []sample
		hits, last = h.hitRound(rec, seed, r)
		t.hitMedianMS = append(t.hitMedianMS, median(latencies(hits)))
		t.rate = append(t.rate, float64(len(hits)*hotShape.cols)/last.Seconds())
		t.hits = append(t.hits, hits...)
	}
	begin = time.Now()
	for last := 0.0; len(t.colds) == 0 || time.Since(begin).Seconds()+last/1e3 <= coldWindow.Seconds(); {
		sm := h.coldRequest(rec, seed, r)
		last = sm.ms
		t.colds = append(t.colds, sm)
	}
	return t
}

func (w hotWorkload) run(rc runConfig, r *report) error {
	h, setups, err := setUps(rc, func() (*hotService, error) { return w.setUp(rc.seed, r) })
	if err != nil {
		return err
	}
	defer h.stop()
	window := rc.window()
	cold := time.Duration(float64(window) * w.coldShare)
	t := h.rounds(nil, rc.seed, window-cold, cold, r)
	r.printf("rounds=%d hits=%d cold_requests=%d", len(t.rate), len(t.hits), len(t.colds))
	if rc.trace {
		before, err := h.stats()
		if err != nil {
			return err
		}
		traced := h.rounds(r.rec, rc.seed, window-cold, cold, r)
		after, err := h.stats()
		if err != nil {
			return err
		}
		h.accounted(after, r)
		r.set("bench.trace_overhead_ratio", "ratio", minOf(traced.hitMedianMS)/minOf(t.hitMedianMS))
		r.serveMetrics(append(traced.hits, traced.colds...), h.builds, before, after)
		return nil
	}
	st, err := h.stats()
	if err != nil {
		return err
	}
	h.accounted(st, r)
	r.setSeries("setup_s", "s", 1, setups)
	r.setSeries("time_to_solution_s", "s", 1e-3, latencies(t.colds))
	r.setSeries("solve_ms", "ms", 1, t.hitMedianMS)
	r.set("solve_rps", "1/s", maxOf(t.rate))
	r.describe("round_columns_per_s", t.rate)
	r.describe("hit_ms", latencies(t.hits))
	r.set("factor_bytes", "B", float64(h.bytes))
	return nil
}

// churnWorkload is the write path beside the read path: six specs of about
// 6.5 MB each share a cache that holds three, one client replays a fixed request
// sequence, and every miss rebuilds a factor while hits go on.
type churnWorkload struct {
	specs []spec
	// cacheBudget is a constant of the workload, not a function of the
	// factors' sizes: a change that makes factors bigger must show up here
	// as evictions and a lower hit ratio.
	cacheBudget int64
	// sequence indexes specs, one entry per request of a round.
	sequence []int
}

var churnShape = shape{cols: 8, refine: true}

var serveChurn = newChurnWorkload()

func newChurnWorkload() churnWorkload {
	w := churnWorkload{cacheBudget: 20 << 20}
	for seed := int64(43); seed <= 48; seed++ {
		w.specs = append(w.specs, gaussian(2048, 128, 2, seed))
	}
	// Two of the six take the other pipeline: the augmented saddle-point
	// system, ARA compression, LDLᵀ. They sit at ranks 3 and 6 of the
	// popularity order, so both a warm and a cold one occur.
	for _, i := range []int{2, 5} {
		w.specs[i].Augmented, w.specs[i].Factor, w.specs[i].Compress = true, "ldlt", "ara"
	}
	// The request sequence is part of the dataset: drawn once from a fixed
	// seed, Zipf 1.3 over the specs, and replayed every round, so the hits,
	// misses and evictions of a round repeat exactly and --seed moves only
	// the right-hand sides.
	z := rand.NewZipf(rand.New(rand.NewSource(1)), 1.3, 1, uint64(len(w.specs)-1))
	for len(w.sequence) < 40 {
		w.sequence = append(w.sequence, int(z.Uint64()))
	}
	return w
}

type churnService struct {
	*service
	w churnWorkload
}

// setUp starts a server, factorizes every spec and checks one solve on
// each against the exact operator while it is still resident, then
// replays the sequence once so the cache enters the timed rounds in the
// state every round leaves it in.
func (w churnWorkload) setUp(seed int64, r *report) (*churnService, error) {
	c := &churnService{service: startService(serve.New(serviceConfig(w.cacheBudget)).Handler()), w: w}
	for _, sp := range w.specs {
		if _, err := c.factorize(sp); err != nil {
			c.stop()
			return nil, err
		}
		c.checkedSolve(sp, churnShape, seed, r)
	}
	c.round(nil, seed, r)
	return c, nil
}

// churnRound is what one replay of the sequence measured.
type churnRound struct {
	hits, misses []sample
	wall         time.Duration
}

func (c *churnService) round(rec *recorder, seed int64, r *report) churnRound {
	var cr churnRound
	samples := make([]sample, 0, len(c.w.sequence))
	start := time.Now()
	for _, i := range c.w.sequence {
		samples = append(samples, c.solve(rec, 0, churnShape.request(c.w.specs[i], seed, c.solves)))
		c.solves++
	}
	cr.wall = time.Since(start)
	c.judge(rec, samples, churnShape, c.w.specs[0].Tol, r)
	for _, sm := range samples {
		if sm.resp.Cached {
			cr.hits = append(cr.hits, sm)
		} else {
			cr.misses = append(cr.misses, sm)
		}
	}
	return cr
}

// churnTimes are the per-round estimates of a sequence of rounds.
type churnTimes struct {
	hitMedianMS, missMeanMS, rate []float64
	hits, misses                  []sample
}

func (c *churnService) rounds(rec *recorder, seed int64, window time.Duration, r *report) churnTimes {
	var t churnTimes
	begin := time.Now()
	for last := time.Duration(0); len(t.rate) == 0 || time.Since(begin)+last <= window; {
		cr := c.round(rec, seed, r)
		last = cr.wall
		r.check(len(cr.hits) > 0 && len(cr.misses) > 0, "churn round with %d hits and %d misses", len(cr.hits), len(cr.misses))
		if len(cr.hits) == 0 || len(cr.misses) == 0 {
			continue
		}
		t.hitMedianMS = append(t.hitMedianMS, median(latencies(cr.hits)))
		t.missMeanMS = append(t.missMeanMS, mean(latencies(cr.misses)))
		t.rate = append(t.rate, float64(len(c.w.sequence)*churnShape.cols)/cr.wall.Seconds())
		t.hits = append(t.hits, cr.hits...)
		t.misses = append(t.misses, cr.misses...)
	}
	return t
}

func (w churnWorkload) run(rc runConfig, r *report) error {
	c, setups, err := setUps(rc, func() (*churnService, error) { return w.setUp(rc.seed, r) })
	if err != nil {
		return err
	}
	defer c.stop()
	t := c.rounds(nil, rc.seed, rc.window(), r)
	r.printf("rounds=%d hits=%d misses=%d", len(t.rate), len(t.hits), len(t.misses))
	if rc.trace {
		before, err := c.stats()
		if err != nil {
			return err
		}
		traced := c.rounds(r.rec, rc.seed, rc.window(), r)
		after, err := c.stats()
		if err != nil {
			return err
		}
		c.accounted(after, r)
		r.set("bench.trace_overhead_ratio", "ratio", minOf(traced.hitMedianMS)/minOf(t.hitMedianMS))
		r.serveMetrics(append(traced.hits, traced.misses...), c.builds, before, after)
		return nil
	}
	st, err := c.stats()
	if err != nil {
		return err
	}
	c.accounted(st, r)
	r.setSeries("setup_s", "s", 1, setups)
	r.setSeries("time_to_solution_s", "s", 1e-3, t.missMeanMS)
	r.setSeries("solve_ms", "ms", 1, t.hitMedianMS)
	r.set("solve_rps", "1/s", maxOf(t.rate))
	r.describe("round_columns_per_s", t.rate)
	r.describe("hit_ms", latencies(t.hits))
	r.describe("miss_ms", latencies(t.misses))
	r.set("factor_bytes", "B", float64(c.bytes))
	return nil
}
