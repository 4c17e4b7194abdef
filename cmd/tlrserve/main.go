// Command tlrserve runs the TLR Cholesky solve service: an HTTP server
// that factorizes kernel operators on demand, caches the factors by
// problem fingerprint, coalesces concurrent solves into blocked
// multi-RHS substitutions and sheds load with 429s when full. With
// -shards N the one front end routes each problem fingerprint to one
// of N shards, with service-wide single-flight. With -loadgen it
// instead drives such a server (its own in-process one by default)
// with an open-loop request stream — optionally multi-tenant, with
// Zipf-distributed problem popularity and mixed factorize/solve
// arrivals — and reports latency percentiles, per-shard load skew and
// cache effectiveness.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"expvar"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"sort"
	"sync"
	"syscall"
	"time"

	"tlrchol/internal/obs"
	"tlrchol/internal/serve"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	cacheMB := flag.Int("cache-mb", 1024, "factor cache budget in MiB (per shard in fleet mode)")
	batchWindow := flag.Duration("batch-window", 2*time.Millisecond, "RHS coalescing window (negative disables batching)")
	maxBatch := flag.Int("max-batch", 64, "max columns per blocked solve")
	maxInflight := flag.Int("max-inflight", 64, "admitted requests before 429 (per shard in fleet mode)")
	maxN := flag.Int("max-n", 16384, "largest accepted problem size")
	workers := flag.Int("workers", 0, "factorization workers (0 = GOMAXPROCS)")
	solveWorkers := flag.Int("solve-workers", 0, "planned-solve workers (0 = GOMAXPROCS)")
	factorTimeout := flag.Duration("factor-timeout", 5*time.Minute, "per-factorization budget")
	solveTimeout := flag.Duration("solve-timeout", time.Minute, "per-batch solve budget")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown budget")
	trace := flag.Bool("trace", true, "record per-request span detail for the flight recorder (/v1/trace/<id>)")
	traceSpans := flag.Int("trace-spans", 0, "span ring capacity per traced request (0 = default 4096)")
	flightSlow := flag.Int("flight-slow", 0, "slowest traces retained per endpoint (0 = default 32)")
	accessLog := flag.String("access-log", "", "structured JSON access log: file path, or - for stdout (empty disables)")

	shards := flag.Int("shards", 0, "run a fleet of N shards behind a router that sends each problem to one owner shard (0 = single server)")

	loadgen := flag.Bool("loadgen", false, "drive a server instead of being one")
	target := flag.String("target", "", "loadgen: base URL of the server (empty = start one in-process)")
	lgN := flag.Int("n", 2048, "loadgen: problem size")
	lgTile := flag.Int("tile", 128, "loadgen: tile size")
	lgTol := flag.Float64("tol", 1e-6, "loadgen: accuracy threshold")
	lgNRHS := flag.Int("nrhs", 1, "loadgen: RHS columns per request")
	lgRate := flag.Float64("rate", 50, "loadgen: request arrivals per second (open loop)")
	lgDur := flag.Duration("duration", 10*time.Second, "loadgen: run length")
	lgRefine := flag.Bool("refine", false, "loadgen: request iterative refinement")
	lgProblems := flag.Int("problems", 1, "loadgen: distinct problems (multi-tenant traffic)")
	lgZipf := flag.Float64("zipf", 1.3, "loadgen: Zipf skew of problem popularity (must be > 1)")
	lgFacFrac := flag.Float64("factorize-frac", 0, "loadgen: fraction of arrivals issued as /v1/factorize")
	flag.Parse()

	cfg := serve.Config{
		CacheBudget:      int64(*cacheMB) << 20,
		BatchWindow:      *batchWindow,
		MaxBatchCols:     *maxBatch,
		MaxInflight:      *maxInflight,
		MaxN:             *maxN,
		FactorizeTimeout: *factorTimeout,
		SolveTimeout:     *solveTimeout,
		Workers:          *workers,
		SolveWorkers:     *solveWorkers,
		DisableTracing:   !*trace,
		TraceSpanCap:     *traceSpans,
		FlightSlow:       *flightSlow,
	}
	switch *accessLog {
	case "":
	case "-":
		cfg.AccessLog = os.Stdout
	default:
		// Unbuffered appends: every line reaches the kernel as written,
		// so no close is needed before the os.Exit below.
		f, err := os.OpenFile(*accessLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tlrserve: cannot open access log: %v\n", err)
			os.Exit(1)
		}
		cfg.AccessLog = f
	}

	// newHandler builds the service: one shard, or a fleet of shards
	// behind the fingerprint router.
	newHandler := func() (http.Handler, string) {
		if *shards > 0 {
			s := serve.NewFleet(serve.FleetConfig{Shards: *shards, Shard: cfg})
			return s.Handler(), fmt.Sprintf("fleet of %d shards", *shards)
		}
		return serve.New(cfg).Handler(), "single server"
	}

	if *loadgen {
		os.Exit(runLoadgen(newHandler, *target, loadgenConfig{
			n: *lgN, tile: *lgTile, tol: *lgTol, nrhs: *lgNRHS,
			rate: *lgRate, duration: *lgDur, refine: *lgRefine,
			problems: *lgProblems, zipfS: *lgZipf, facFrac: *lgFacFrac,
		}))
	}
	os.Exit(runServer(newHandler, *addr, *drainTimeout))
}

func runServer(newHandler func() (http.Handler, string), addr string, drainTimeout time.Duration) int {
	expvar.Publish("tlrserve.metrics", expvar.Func(func() any { return obs.Default.Map() }))
	h, mode := newHandler()
	srv := &http.Server{Addr: addr, Handler: h}

	l, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tlrserve: %v\n", err)
		return 1
	}
	fmt.Printf("tlrserve listening on http://%s as %s (POST /v1/factorize, POST /v1/solve, GET /v1/stats, GET /metrics)\n",
		l.Addr(), mode)

	// SIGTERM/SIGINT drain: stop accepting, let in-flight requests
	// (including batch leaders mid-window) complete, then exit.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	select {
	case err := <-done:
		fmt.Fprintf(os.Stderr, "tlrserve: %v\n", err)
		return 1
	case <-ctx.Done():
	}
	stop()
	fmt.Println("tlrserve: draining...")
	sctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		fmt.Fprintf(os.Stderr, "tlrserve: drain incomplete: %v\n", err)
		return 1
	}
	fmt.Println("tlrserve: drained cleanly")
	return 0
}

type loadgenConfig struct {
	n, tile, nrhs int
	tol, rate     float64
	duration      time.Duration
	refine        bool
	// problems is the number of distinct tenant problems; zipfS skews
	// their popularity (rank-1 problem hottest); facFrac is the share
	// of arrivals issued as /v1/factorize instead of /v1/solve.
	problems int
	zipfS    float64
	facFrac  float64
}

// runLoadgen fires an open-loop request stream (arrivals on a fixed
// clock, independent of completions — the schedule a latency SLO is
// measured against) and reports percentiles plus server-side cache,
// batching and routing effectiveness.
func runLoadgen(newHandler func() (http.Handler, string), target string, lg loadgenConfig) int {
	if target == "" {
		h, mode := newHandler()
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fmt.Fprintf(os.Stderr, "tlrserve: %v\n", err)
			return 1
		}
		srv := &http.Server{Handler: h}
		go srv.Serve(l)
		defer srv.Close()
		target = fmt.Sprintf("http://%s", l.Addr())
		fmt.Printf("loadgen: started in-process %s on %s\n", mode, target)
	}
	if lg.problems < 1 {
		lg.problems = 1
	}

	// Distinct problems differ by geometry seed: same size and accuracy,
	// different operators — the multi-tenant shape where each tenant
	// brings their own boundary mesh.
	specs := make([]serve.ProblemSpec, lg.problems)
	for i := range specs {
		specs[i] = serve.ProblemSpec{N: lg.n, Tile: lg.tile, Tol: lg.tol, Seed: int64(42 + i)}
	}
	fmt.Printf("loadgen: priming %d factor(s) (n=%d tile=%d tol=%.0e)...\n", lg.problems, lg.n, lg.tile, lg.tol)
	primeStart := time.Now()
	for i, spec := range specs {
		code, body, err := postJSON(target+"/v1/factorize", serve.FactorizeRequest{Problem: spec})
		if err != nil || code != http.StatusOK {
			fmt.Fprintf(os.Stderr, "loadgen: prime factorize %d failed: code=%d err=%v body=%s\n", i, code, err, body)
			return 1
		}
		if i == 0 {
			var prime serve.FactorizeResponse
			if json.Unmarshal(body, &prime) == nil && !prime.Cached {
				fmt.Printf("loadgen: solve plan built in %.3fms (%d levels, max width %d)\n",
					prime.Stats.PlanBuildMS, prime.Stats.PlanLevels, prime.Stats.PlanMaxWidth)
			}
		}
	}
	fmt.Printf("loadgen: factors ready in %v; driving %.0f req/s for %v (nrhs=%d refine=%v zipf=%.2f factorize-frac=%.2f)\n",
		time.Since(primeStart).Round(time.Millisecond), lg.rate, lg.duration, lg.nrhs, lg.refine, lg.zipfS, lg.facFrac)

	// Popularity: Zipf over problem ranks, so problem 0 dominates and
	// the tail problems trickle — the distribution that loads one
	// owner shard hardest. rand.Zipf requires s > 1.
	rng := rand.New(rand.NewSource(7))
	var zipf *rand.Zipf
	if lg.problems > 1 {
		s := lg.zipfS
		if s <= 1 {
			s = 1.1
		}
		zipf = rand.NewZipf(rng, s, 1, uint64(lg.problems-1))
	}

	var (
		mu         sync.Mutex
		latencies  []time.Duration
		substMS    []float64
		rejected   int
		failed     int
		batchSum   int
		perProblem = make([]int, lg.problems)
		// Slowest successful request, tracked by trace id so the run's
		// tail is explainable offline via /v1/trace/<id>. When that
		// request rode a shared batch as a follower, the per-task span
		// detail sits on the batch leader's trace.
		slowest       time.Duration
		slowestID     string
		slowestLeader string
		slowestBatch  int
	)
	var wg sync.WaitGroup
	interval := time.Duration(float64(time.Second) / lg.rate)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	deadline := time.Now().Add(lg.duration)
	seed := int64(1)
	for time.Now().Before(deadline) {
		<-ticker.C
		seed++
		// Pick problem and request kind on the arrival clock's goroutine:
		// rand.Zipf is not safe for concurrent use.
		prob := 0
		if zipf != nil {
			prob = int(zipf.Uint64())
		}
		factorize := lg.facFrac > 0 && rng.Float64() < lg.facFrac
		perProblem[prob]++
		wg.Add(1)
		go func(seed int64, prob int, factorize bool) {
			defer wg.Done()
			var (
				code int
				body []byte
				err  error
			)
			start := time.Now()
			if factorize {
				code, body, err = postJSON(target+"/v1/factorize", serve.FactorizeRequest{Problem: specs[prob]})
			} else {
				code, body, err = postJSON(target+"/v1/solve", serve.SolveRequest{
					Problem: &specs[prob],
					NRHS:    lg.nrhs,
					RHSSeed: seed,
					Refine:  lg.refine,
				})
			}
			elapsed := time.Since(start)
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err != nil:
				failed++
			case code == http.StatusTooManyRequests:
				rejected++
			case code != http.StatusOK:
				failed++
			case factorize:
				latencies = append(latencies, elapsed)
			default:
				latencies = append(latencies, elapsed)
				var resp serve.SolveResponse
				if json.Unmarshal(body, &resp) == nil {
					batchSum += resp.BatchCols
					substMS = append(substMS, resp.SubstMS)
					if elapsed > slowest && resp.TraceID != "" {
						slowest, slowestID, slowestBatch = elapsed, resp.TraceID, resp.BatchCols
						slowestLeader = resp.LeaderTrace
					}
				}
			}
		}(seed, prob, factorize)
	}
	wg.Wait()

	if len(latencies) == 0 {
		fmt.Fprintf(os.Stderr, "loadgen: no successful requests (%d rejected, %d failed)\n", rejected, failed)
		return 1
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	pct := func(p float64) time.Duration {
		i := int(p * float64(len(latencies)-1))
		return latencies[i]
	}
	total := len(latencies) + rejected + failed
	fmt.Printf("loadgen: %d requests (%d ok, %d rejected/429, %d failed) over %v\n",
		total, len(latencies), rejected, failed, lg.duration)
	fmt.Printf("latency  p50 %v   p95 %v   p99 %v   max %v\n",
		pct(0.50).Round(time.Microsecond), pct(0.95).Round(time.Microsecond),
		pct(0.99).Round(time.Microsecond), latencies[len(latencies)-1].Round(time.Microsecond))
	// Substitution-only latency: time inside the triangular sweeps as
	// reported per response — no cache waits, no batching window, no
	// residual evaluation. The gap between this line and the one above
	// is queueing and service overhead, not solve work.
	if len(substMS) > 0 {
		sort.Float64s(substMS)
		spct := func(p float64) float64 { return substMS[int(p*float64(len(substMS)-1))] }
		fmt.Printf("solve-only  p50 %.3fms   p95 %.3fms   p99 %.3fms   max %.3fms\n",
			spct(0.50), spct(0.95), spct(0.99), substMS[len(substMS)-1])
	}
	fmt.Printf("mean batch width %.1f columns\n", float64(batchSum)/float64(len(latencies)))
	if lg.problems > 1 {
		top := perProblem[0]
		sent := 0
		for _, c := range perProblem {
			sent += c
		}
		fmt.Printf("tenancy: %d problems, hottest got %d/%d arrivals (%.1f%%)\n",
			lg.problems, top, sent, 100*float64(top)/float64(sent))
	}

	// Tail report: name the slowest request and pull its retained trace
	// so the run's worst case is explainable after the fact.
	if slowestID != "" {
		fmt.Printf("slowest request: trace %s e2e %v batch %d — GET /v1/trace/%s\n",
			slowestID, slowest.Round(time.Microsecond), slowestBatch, slowestID)
		fetchTrace := func(label, id string) {
			resp, err := http.Get(target + "/v1/trace/" + id)
			if err != nil {
				return
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				fmt.Printf("%s: not retained (status %d — aged out of the flight recorder)\n", label, resp.StatusCode)
				return
			}
			if tc, err := obs.ValidateChromeTrace(body); err == nil {
				fmt.Printf("%s: %d spans across %d tracks (valid Chrome/Perfetto trace, %d bytes)\n",
					label, tc.Spans, tc.Workers, len(body))
			} else {
				fmt.Fprintf(os.Stderr, "loadgen: %s invalid: %v\n", label, err)
			}
		}
		fetchTrace("slowest trace", slowestID)
		if slowestLeader != "" && slowestLeader != slowestID {
			// The slowest request followed another request's batch; its
			// per-task execution spans are on the leader's trace.
			fetchTrace("its batch leader trace "+slowestLeader, slowestLeader)
		}
	}

	// Server-side accounting: cache economy, per-shard skew, routing
	// and the p99 breakdown.
	if resp, err := http.Get(target + "/v1/stats"); err == nil {
		var st serve.StatsResponse
		err := json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err == nil {
			report(st)
		}
	}
	return 0
}

// report prints the service-side view of the run: the cache hit rate,
// the per-shard load split (skew = hottest shard over the mean), the
// router's counts, and the p99 breakdown.
func report(st serve.StatsResponse) {
	if refs := st.Cache.Hits + st.Cache.Waits + st.Cache.Misses; refs > 0 {
		fmt.Printf("factor cache: %.1f%% hit rate (%d hits, %d singleflight waits, %d misses, %d factorization runs)\n",
			100*float64(st.Cache.Hits+st.Cache.Waits)/float64(refs),
			st.Cache.Hits, st.Cache.Waits, st.Cache.Misses, st.SingleFlight.FactorizeRuns)
	}
	var max uint64
	for _, sh := range st.Shards {
		acc := sh.Admission.Accepted
		if acc > max {
			max = acc
		}
		fmt.Printf("  shard %d: accepted %d, rejected %d, cache %d entries %d evictions, factorizations %d\n",
			sh.ID, acc, sh.Admission.Rejected, sh.Cache.Entries, sh.Cache.Evictions, sh.FactorizeRuns)
	}
	if sum := st.Admission.Accepted; sum > 0 && len(st.Shards) > 0 {
		mean := float64(sum) / float64(len(st.Shards))
		fmt.Printf("load skew: hottest shard %.2fx mean (%d of %d accepted)\n", float64(max)/mean, max, sum)
	}
	fmt.Printf("router: %d requests, %d rejections\n", st.Router.Requests, st.Router.Rejected)
	if st.Request.Count > 0 {
		p := st.Request.P99
		fmt.Printf("p99 breakdown (trace %s): e2e %.3fms = queue %.3f + factor %.3f + batch-wait %.3f + subst %.3f + refine %.3f + resid %.3f + other %.3f\n",
			p.TraceID, p.E2EMS, p.QueueMS, p.FactorMS, p.BatchWaitMS, p.SubstMS, p.RefineMS, p.ResidMS, p.OtherMS)
	}
}

func postJSON(url string, v any) (int, []byte, error) {
	buf, err := json.Marshal(v)
	if err != nil {
		return 0, nil, err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}
