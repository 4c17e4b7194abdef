package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"tlrchol/internal/obs"
)

func newTestServer(t *testing.T, mut func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	cfg := Config{
		Metrics:      obs.NewRegistry(4),
		BatchWindow:  150 * time.Millisecond,
		MaxBatchCols: 16,
		Workers:      2,
	}
	if mut != nil {
		mut(&cfg)
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func scrapeMetric(t *testing.T, baseURL, name string) string {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	for _, line := range strings.Split(string(body), "\n") {
		fields := strings.Fields(line)
		if len(fields) >= 2 && fields[0] == name {
			return fields[1]
		}
	}
	return ""
}

// TestServerKeystone is the acceptance scenario of the serve subsystem:
// 16 concurrent solve requests for a problem nobody has factorized yet
// must trigger exactly one factorization (single-flight), coalesce
// into blocked solves, and return columns bitwise identical to the
// same requests issued sequentially afterwards. Runs under -race via
// scripts/check.sh.
func TestServerKeystone(t *testing.T) {
	_, ts := newTestServer(t, nil)
	const n, k = 256, 16
	spec := ProblemSpec{N: n, Tile: 64, Tol: 1e-7}

	rng := rand.New(rand.NewSource(11))
	cols := make([][]float64, k)
	for j := range cols {
		col := make([]float64, n)
		for i := range col {
			col[i] = rng.Float64() - 0.5
		}
		cols[j] = col
	}

	type result struct {
		status int
		resp   SolveResponse
		body   string
	}
	results := make([]result, k)
	var wg sync.WaitGroup
	for j := 0; j < k; j++ {
		j := j
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, body := postJSON(t, ts.URL+"/v1/solve", SolveRequest{
				Problem:        &spec,
				RHS:            [][]float64{cols[j]},
				ReturnSolution: true,
			})
			results[j] = result{status: resp.StatusCode, body: string(body)}
			json.Unmarshal(body, &results[j].resp)
		}()
	}
	wg.Wait()

	maxBatch := 0
	for j, r := range results {
		if r.status != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", j, r.status, r.body)
		}
		if len(r.resp.Solution) != 1 || len(r.resp.Solution[0]) != n {
			t.Fatalf("request %d: malformed solution", j)
		}
		if len(r.resp.Residuals) != 1 || r.resp.Residuals[0] > 1e-4 {
			t.Fatalf("request %d: residuals %v", j, r.resp.Residuals)
		}
		if r.resp.BatchCols > maxBatch {
			maxBatch = r.resp.BatchCols
		}
	}
	if maxBatch < 2 {
		t.Fatalf("no coalescing happened: max batch width %d", maxBatch)
	}
	t.Logf("max batch width: %d of %d", maxBatch, k)

	if runs := scrapeMetric(t, ts.URL, "serve.factorize.runs"); runs != "1" {
		t.Fatalf("want exactly 1 factorization for %d concurrent requests, metrics say %q", k, runs)
	}

	// The same requests sequentially: each solves alone (or in a tiny
	// batch of one), against the same cached factor. Bitwise equality
	// with the concurrent batched results is the width-obliviousness
	// guarantee surfaced at the API level. encoding/json renders float64
	// with shortest-roundtrip precision, so the comparison is exact.
	for j := 0; j < k; j++ {
		resp, body := postJSON(t, ts.URL+"/v1/solve", SolveRequest{
			Problem:        &spec,
			RHS:            [][]float64{cols[j]},
			ReturnSolution: true,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("sequential request %d: status %d: %s", j, resp.StatusCode, body)
		}
		var sr SolveResponse
		if err := json.Unmarshal(body, &sr); err != nil {
			t.Fatal(err)
		}
		if !sr.Cached {
			t.Fatalf("sequential request %d missed the factor cache", j)
		}
		for i := 0; i < n; i++ {
			got := results[j].resp.Solution[0][i]
			want := sr.Solution[0][i]
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("request %d row %d: batched %x vs solo %x", j, i, math.Float64bits(got), math.Float64bits(want))
			}
		}
	}
	if runs := scrapeMetric(t, ts.URL, "serve.factorize.runs"); runs != "1" {
		t.Fatalf("sequential re-solves must reuse the factor, metrics say %q runs", runs)
	}

	// Stats endpoint: totals vs delta window. The first scrape opens a
	// window; the second, with no traffic in between, must report an
	// empty window while totals persist.
	r1, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, r1.Body)
	r1.Body.Close()
	r2, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(r2.Body)
	r2.Body.Close()
	var st StatsResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Totals["serve.solve.requests"] != 2*k {
		t.Fatalf("stats totals: %v", st.Totals)
	}
	if st.Window["serve.solve.requests"] != 0 {
		t.Fatalf("second scrape's window must be empty of solves: %v", st.Window)
	}
	if st.Cache.Misses != 1 || st.Cache.Hits == 0 {
		t.Fatalf("cache stats: %+v", st.Cache)
	}
}

// TestServerBackpressure: with one admission slot, a request arriving
// while another is in flight is rejected with 429 and a Retry-After
// hint instead of queueing.
func TestServerBackpressure(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) {
		c.MaxInflight = 1
		c.BatchWindow = 400 * time.Millisecond
	})
	spec := ProblemSpec{N: 192, Tile: 64, Tol: 1e-7}

	// Prime the factor so the slow part of the held request is the
	// batch window, not the factorization.
	if resp, body := postJSON(t, ts.URL+"/v1/factorize", FactorizeRequest{Problem: spec}); resp.StatusCode != http.StatusOK {
		t.Fatalf("prime factorize: %d: %s", resp.StatusCode, body)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	var heldStatus int
	go func() {
		defer wg.Done()
		resp, _ := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Problem: &spec, NRHS: 1})
		heldStatus = resp.StatusCode
	}()
	time.Sleep(100 * time.Millisecond) // the held request is inside its batch window

	resp, body := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Problem: &spec, NRHS: 1})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("want 429, got %d: %s", resp.StatusCode, body)
	}
	ra := resp.Header.Get("Retry-After")
	if ra == "" {
		t.Fatal("429 must carry a Retry-After hint")
	}
	// The hint is computed from inflight pressure and recent solve
	// latency (clamped to [1, 30] plus ±25% jitter), not hardcoded: it
	// must parse as a small positive integer.
	secs, err := strconv.Atoi(ra)
	if err != nil || secs < 1 || secs > 38 {
		t.Fatalf("Retry-After must be a small positive integer of seconds, got %q", ra)
	}
	wg.Wait()
	if heldStatus != http.StatusOK {
		t.Fatalf("held request should have succeeded, got %d", heldStatus)
	}
}

// TestServerShedsBeforeDecode pins the single-shard admission order:
// the only shard's slot is taken before the body is read, so with that
// slot held a request whose body is not even JSON is shed with 429,
// not parsed into a 400.
func TestServerShedsBeforeDecode(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) { c.MaxInflight = 1 })
	adm := s.shards[0].adm
	if !adm.TryAcquire() {
		t.Fatal("could not occupy the only admission slot")
	}
	defer adm.Release()
	resp, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader("not json"))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("want 429 before decode, got %d: %s", resp.StatusCode, body)
	}
}

// TestServerGracefulDrain: Shutdown lets an in-flight solve (parked in
// its batch window) finish before the listener closes.
func TestServerGracefulDrain(t *testing.T) {
	s := New(Config{
		Metrics:     obs.NewRegistry(4),
		BatchWindow: 300 * time.Millisecond,
		Workers:     2,
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: s.Handler()}
	go srv.Serve(l)
	base := fmt.Sprintf("http://%s", l.Addr())

	spec := ProblemSpec{N: 192, Tile: 64, Tol: 1e-7}
	if resp, body := postJSON(t, base+"/v1/factorize", FactorizeRequest{Problem: spec}); resp.StatusCode != http.StatusOK {
		t.Fatalf("prime factorize: %d: %s", resp.StatusCode, body)
	}

	var wg sync.WaitGroup
	var status int
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, _ := postJSON(t, base+"/v1/solve", SolveRequest{Problem: &spec, NRHS: 2})
		status = resp.StatusCode
	}()
	time.Sleep(100 * time.Millisecond) // request is inside its batch window

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("graceful shutdown failed: %v", err)
	}
	wg.Wait()
	if status != http.StatusOK {
		t.Fatalf("in-flight solve must complete during drain, got status %d", status)
	}
}

// TestServerValidation covers the 4xx surface.
func TestServerValidation(t *testing.T) {
	_, ts := newTestServer(t, nil)
	cases := []struct {
		name string
		url  string
		body any
		want int
	}{
		{"bad tol", "/v1/factorize", FactorizeRequest{Problem: ProblemSpec{N: 128, Tile: 64}}, 400},
		{"huge n", "/v1/factorize", FactorizeRequest{Problem: ProblemSpec{N: 1 << 30, Tile: 64, Tol: 1e-7}}, 400},
		{"bad kernel", "/v1/factorize", FactorizeRequest{Problem: ProblemSpec{N: 128, Tile: 64, Tol: 1e-7, Kernel: "nope"}}, 400},
		{"unknown fingerprint", "/v1/solve", SolveRequest{Fingerprint: "beef", NRHS: 1}, 404},
		{"no factor ref", "/v1/solve", SolveRequest{NRHS: 1}, 400},
		{"no rhs", "/v1/solve", SolveRequest{Problem: &ProblemSpec{N: 128, Tile: 64, Tol: 1e-7}}, 400},
		{"short rhs column", "/v1/solve", SolveRequest{Problem: &ProblemSpec{N: 128, Tile: 64, Tol: 1e-7}, RHS: [][]float64{{1, 2}}}, 400},
	}
	for _, tc := range cases {
		resp, body := postJSON(t, ts.URL+tc.url, tc.body)
		if resp.StatusCode != tc.want {
			t.Fatalf("%s: want %d, got %d: %s", tc.name, tc.want, resp.StatusCode, body)
		}
	}
}

// TestServerSolvePlan covers the solve-plan wiring end to end: the
// factorize response carries plan stats (built under the single-flight
// alongside the factor), solve responses report substitution-only
// latency, and /v1/stats serves solve-only percentiles from the
// latency ring.
func TestServerSolvePlan(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) {
		c.BatchWindow = -1 // solve alone: deterministic request counts
	})
	spec := ProblemSpec{N: 512, Tile: 64, Tol: 1e-7}

	resp, body := postJSON(t, ts.URL+"/v1/factorize", FactorizeRequest{Problem: spec})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("factorize: status %d: %s", resp.StatusCode, body)
	}
	var fr FactorizeResponse
	if err := json.Unmarshal(body, &fr); err != nil {
		t.Fatal(err)
	}
	if fr.Stats.PlanLevels < 1 {
		t.Fatalf("plan levels %d: every sweep has at least one level", fr.Stats.PlanLevels)
	}
	if fr.Stats.PlanMaxWidth < 1 {
		t.Fatalf("plan max width %d", fr.Stats.PlanMaxWidth)
	}
	if fr.Stats.PlanBuildMS < 0 {
		t.Fatalf("negative plan build time %g", fr.Stats.PlanBuildMS)
	}
	// The cached entry must actually carry the plan, and its bytes must
	// be charged to the cache budget.
	f, ok := s.shards[0].cache.Lookup(fr.Fingerprint)
	if !ok || f.Plan == nil {
		t.Fatalf("cached factor is missing its solve plan")
	}
	if f.SizeBytes <= int64(f.L.Bytes()+f.Op.Bytes()) {
		t.Fatalf("plan bytes not charged to the cache budget")
	}

	const solves = 5
	for i := 0; i < solves; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/solve", SolveRequest{
			Fingerprint: fr.Fingerprint,
			NRHS:        1,
			RHSSeed:     int64(i + 1),
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("solve %d: status %d: %s", i, resp.StatusCode, body)
		}
		var sr SolveResponse
		if err := json.Unmarshal(body, &sr); err != nil {
			t.Fatal(err)
		}
		if sr.SubstMS < 0 || sr.SubstMS > sr.SolveMS {
			t.Fatalf("solve %d: subst_ms %g outside [0, solve_ms=%g]", i, sr.SubstMS, sr.SolveMS)
		}
	}

	r, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(r.Body)
	r.Body.Close()
	var st StatsResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.SolveOnly.Count != solves {
		t.Fatalf("solve-only latency count %d, want %d", st.SolveOnly.Count, solves)
	}
	if st.SolveOnly.P50MS < 0 || st.SolveOnly.P95MS < st.SolveOnly.P50MS || st.SolveOnly.P99MS < st.SolveOnly.P95MS {
		t.Fatalf("solve-only percentiles not monotone: %+v", st.SolveOnly)
	}
}
