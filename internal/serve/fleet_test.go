package serve

import (
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func newTestFleet(t *testing.T, mut func(*FleetConfig)) (*Server, *httptest.Server) {
	t.Helper()
	cfg := FleetConfig{
		Shards: 3,
		Shard: Config{
			BatchWindow:  150 * time.Millisecond,
			MaxBatchCols: 16,
			Workers:      2,
		},
	}
	if mut != nil {
		mut(&cfg)
	}
	fl := NewFleet(cfg)
	ts := httptest.NewServer(fl.Handler())
	t.Cleanup(ts.Close)
	return fl, ts
}

// fleetFP computes the routing fingerprint for a spec the way the
// router does.
func fleetFP(t *testing.T, fl *Server, sp ProblemSpec) string {
	t.Helper()
	k, err := fl.key(&sp)
	if err != nil {
		t.Fatal(err)
	}
	return k.fp
}

// TestFleetKeystone is the fleet acceptance scenario: 16 concurrent
// solves for one new fingerprint through a 3-shard fleet all land on the
// owner, trigger exactly one factorization fleet-wide, and return
// solutions bitwise identical to a single standalone server. Runs under
// -race via scripts/check.sh.
func TestFleetKeystone(t *testing.T) {
	fl, ts := newTestFleet(t, nil)
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

	owner := fl.owner(fleetFP(t, fl, spec))
	for j, r := range results {
		if r.status != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", j, r.status, r.body)
		}
		if r.resp.Shard == nil || *r.resp.Shard != owner {
			t.Fatalf("request %d served by %v, want owner %d", j, r.resp.Shard, owner)
		}
		if len(r.resp.Residuals) != 1 || r.resp.Residuals[0] > 1e-4 {
			t.Fatalf("request %d: residuals %v", j, r.resp.Residuals)
		}
		if len(r.resp.Solution) != 1 || len(r.resp.Solution[0]) != n {
			t.Fatalf("request %d: malformed solution", j)
		}
	}
	st := fl.Stats()
	if st.SingleFlight.FactorizeRuns != 1 {
		t.Fatalf("want exactly 1 factorization fleet-wide for %d concurrent requests, got %d",
			k, st.SingleFlight.FactorizeRuns)
	}

	// Bitwise parity with a standalone server: the factorization's
	// write chains are schedule-deterministic, so an independent
	// single-shard build must produce identical solutions.
	_, solo := newTestServer(t, nil)
	for j := 0; j < k; j++ {
		resp, body := postJSON(t, solo.URL+"/v1/solve", SolveRequest{
			Problem:        &spec,
			RHS:            [][]float64{cols[j]},
			ReturnSolution: true,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("standalone request %d: status %d: %s", j, resp.StatusCode, body)
		}
		var sr SolveResponse
		if err := json.Unmarshal(body, &sr); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			got := results[j].resp.Solution[0][i]
			want := sr.Solution[0][i]
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("request %d row %d: fleet %x vs standalone %x",
					j, i, math.Float64bits(got), math.Float64bits(want))
			}
		}
	}

	// One trace id spans the router hop and the shard's work: the
	// retained trace of one of the concurrent requests carries both the
	// router.route and the shard.solve spans.
	id := results[k-1].resp.TraceID
	traceResp, traceBody := getURL(t, ts.URL+"/v1/trace/"+id)
	if traceResp.StatusCode != http.StatusOK {
		t.Fatalf("trace lookup: status %d: %s", traceResp.StatusCode, traceBody)
	}
	for _, span := range []string{"router.route", "shard.solve"} {
		if !strings.Contains(string(traceBody), span) {
			t.Fatalf("trace %s missing %q span", id, span)
		}
	}
}

func getURL(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, body
}

// TestFleetRetryAfterOn429: when the owner is saturated, the fleet's
// 429 carries a computed Retry-After hint and the rejection is counted;
// factorize requests reject the same way.
func TestFleetRetryAfterOn429(t *testing.T) {
	fl, ts := newTestFleet(t, func(c *FleetConfig) {
		c.Shard.MaxInflight = 1
	})
	spec := ProblemSpec{N: 192, Tile: 64, Tol: 1e-7}
	if resp, body := postJSON(t, ts.URL+"/v1/factorize", FactorizeRequest{Problem: spec}); resp.StatusCode != http.StatusOK {
		t.Fatalf("prime factorize: %d: %s", resp.StatusCode, body)
	}
	owner := fl.owner(fleetFP(t, fl, spec))
	if !fl.shards[owner].adm.TryAcquire() {
		t.Fatal("could not occupy the owner's slot")
	}
	defer fl.shards[owner].adm.Release()

	resp, body := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Problem: &spec, NRHS: 1})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("want 429 from a saturated fleet, got %d: %s", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatalf("fleet 429 must carry a Retry-After hint")
	}
	if st := fl.Stats(); st.Router.Rejected == 0 {
		t.Fatalf("fleet-wide rejection must be counted: %+v", st.Router)
	}
}

// TestStatsServiceWide: the top-level /v1/stats views are service-wide.
// A fleet's cache, admission and counter totals are the sums of its
// shards', and a single server's are its one shard's.
func TestStatsServiceWide(t *testing.T) {
	fl, fts := newTestFleet(t, nil)
	solo, sts := newTestServer(t, nil)
	for _, ts := range []string{fts.URL, sts.URL} {
		for seed := int64(42); seed < 45; seed++ {
			spec := ProblemSpec{N: 128, Tile: 64, Tol: 1e-7, Seed: seed}
			if resp, body := postJSON(t, ts+"/v1/solve", SolveRequest{Problem: &spec, NRHS: 1}); resp.StatusCode != http.StatusOK {
				t.Fatalf("solve: %d: %s", resp.StatusCode, body)
			}
		}
	}
	for name, s := range map[string]*Server{"fleet": fl, "single": solo} {
		st := s.Stats()
		var misses, accepted, runs uint64
		for _, sh := range st.Shards {
			misses += sh.Cache.Misses
			accepted += sh.Admission.Accepted
			runs += sh.FactorizeRuns
		}
		if st.Cache.Misses != 3 || misses != 3 || st.Admission.Accepted != accepted || runs != 3 {
			t.Fatalf("%s: top-level cache/admission must sum the shard rows: %+v vs %+v", name, st.Cache, st.Shards)
		}
		if st.Totals["serve.factorize.runs"] != 3 || st.SingleFlight.FactorizeRuns != 3 || st.SolveOnly.Count != 3 {
			t.Fatalf("%s: totals %v, single-flight %+v, solve-only %+v", name, st.Totals, st.SingleFlight, st.SolveOnly)
		}
		if st.Router.Requests != 3 || st.Window["serve.solve.requests"] != 3 {
			t.Fatalf("%s: router %+v, window %v", name, st.Router, st.Window)
		}
	}
	if got := len(solo.Stats().Shards); got != 1 {
		t.Fatalf("a single server reports %d shard rows, want 1", got)
	}
}
