package serve

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"strings"
	"testing"
)

// TestFingerprintPipelineFields is the collision regression for the
// build-pipeline spec fields. Before they entered the hash, a spec
// requesting factor=ldlt fingerprinted identically to the default chol
// spec, so the second request silently got the first one's cached
// factor — the wrong operator class entirely. Every pair of specs below
// differs in exactly one pipeline knob and must produce a distinct
// cache key. The compressor spellings are the converse: ara, svd and
// the elided default all build the same QRCP tiles, so they must share
// one key.
func TestFingerprintPipelineFields(t *testing.T) {
	base := ProblemSpec{N: 64, Tile: 16, Tol: 1e-6}
	if err := base.normalize(0); err != nil {
		t.Fatal(err)
	}
	pts := base.points()

	variants := map[string]ProblemSpec{"base": base}
	mut := func(name string, f func(*ProblemSpec)) {
		sp := base
		f(&sp)
		if err := sp.normalize(0); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		variants[name] = sp
	}
	mut("ldlt", func(sp *ProblemSpec) { sp.Factor = "ldlt" })
	mut("augmented", func(sp *ProblemSpec) { sp.Factor = "ldlt"; sp.Augmented = true })

	fps := make(map[string]string, len(variants))
	for name, sp := range variants {
		fps[name] = Fingerprint(sp, pts)
	}
	for a, fa := range fps {
		for b, fb := range fps {
			if a != b && fa == fb {
				t.Errorf("specs %q and %q collide on fingerprint %s", a, b, fa)
			}
		}
	}

	// Stability: the same normalized spec must keep hashing to the same
	// key (the fleet router and shards compute it independently).
	if Fingerprint(variants["augmented"], pts) != fps["augmented"] {
		t.Fatal("fingerprint is not deterministic")
	}

	for _, spelling := range []string{"ara", "svd"} {
		sp := ProblemSpec{N: 64, Tile: 16, Tol: 1e-6, Compress: spelling}
		if err := sp.normalize(0); err != nil {
			t.Fatalf("compress=%s: %v", spelling, err)
		}
		if fp := Fingerprint(sp, pts); fp != fps["base"] {
			t.Errorf("compress=%s fingerprints %s, want the default's %s", spelling, fp, fps["base"])
		}
	}
}

// TestServerValidationIndefinite: the pipeline-field validation errors
// must surface as 400s, not cache corruption or build failures.
func TestServerValidationIndefinite(t *testing.T) {
	_, ts := newTestServer(t, nil)
	cases := []struct {
		name string
		spec ProblemSpec
		want string
	}{
		{"bad compressor", ProblemSpec{N: 64, Tile: 16, Tol: 1e-6, Compress: "qr"}, "unknown compressor"},
		{"bad factor", ProblemSpec{N: 64, Tile: 16, Tol: 1e-6, Factor: "lu"}, "unknown factorization"},
		{"augmented without ldlt", ProblemSpec{N: 64, Tile: 16, Tol: 1e-6, Augmented: true}, "requires factor=ldlt"},
	}
	for _, tc := range cases {
		resp, body := postJSON(t, ts.URL+"/v1/solve", SolveRequest{
			Problem: &tc.spec,
			NRHS:    1,
		})
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", tc.name, resp.StatusCode, body)
			continue
		}
		if !strings.Contains(string(body), tc.want) {
			t.Errorf("%s: body %q does not mention %q", tc.name, body, tc.want)
		}
	}

	// ara_bs, the sampling block size of the deleted randomized
	// compressor, is no longer a spec field: any request carrying it is
	// refused by name, whatever the compressor spelling.
	for _, compress := range []string{"ara", "svd"} {
		raw := json.RawMessage(`{"problem":{"n":64,"tile":16,"tol":1e-6,"compress":"` + compress + `","ara_bs":32},"nrhs":1}`)
		resp, body := postJSON(t, ts.URL+"/v1/solve", raw)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("ara_bs with compress=%s: status %d, want 400: %s", compress, resp.StatusCode, body)
			continue
		}
		if !strings.Contains(string(body), `unknown field \"ara_bs\"`) {
			t.Errorf("ara_bs with compress=%s: body %q does not name the unknown field", compress, body)
		}
	}
}

// TestServerAugmentedLDLt solves the polynomial-augmented saddle-point
// system through the full service stack: QRCP compression (requested
// under its legacy ara spelling), LDLᵀ factorization, RHS padding on
// the way in and constraint-row truncation on the way out. The Cholesky path rejects this operator
// (it is indefinite by construction), so a 200 here means the whole
// indefinite pipeline is live behind the API.
func TestServerAugmentedLDLt(t *testing.T) {
	_, ts := newTestServer(t, nil)
	const n = 252 // dim 256 after the 4 constraint rows
	spec := ProblemSpec{
		N: n, Tile: 64, Tol: 1e-8,
		Compress: "ara", Factor: "ldlt", Augmented: true,
	}

	rng := rand.New(rand.NewSource(7))
	col := make([]float64, n)
	for i := range col {
		col[i] = rng.Float64() - 0.5
	}
	resp, body := postJSON(t, ts.URL+"/v1/solve", SolveRequest{
		Problem:        &spec,
		RHS:            [][]float64{col},
		ReturnSolution: true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var sr SolveResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	// The solution comes back at the request's length: the 4 constraint
	// rows are the server's implementation detail.
	if len(sr.Solution) != 1 || len(sr.Solution[0]) != n {
		t.Fatalf("solution shape %d×%d, want 1×%d", len(sr.Solution), len(sr.Solution[0]), n)
	}
	if len(sr.Residuals) != 1 || sr.Residuals[0] > 10*spec.Tol {
		t.Fatalf("residuals %v, want ≤ %g", sr.Residuals, 10*spec.Tol)
	}

	// The same operator under factor=chol must be refused by the
	// factorization (negative pivot), not mislabeled as a spec error —
	// and, per the fingerprint fix, must not collide with the ldlt
	// factor already in the cache.
	cholSpec := spec
	cholSpec.Augmented = false
	cholSpec.Factor = "chol"
	resp2, body2 := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Problem: &cholSpec, NRHS: 1})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("plain SPD chol spec must still work: status %d: %s", resp2.StatusCode, body2)
	}
	var sr2 SolveResponse
	if err := json.Unmarshal(body2, &sr2); err != nil {
		t.Fatal(err)
	}
	if sr2.Fingerprint == sr.Fingerprint {
		t.Fatalf("chol and augmented-ldlt specs share fingerprint %s", sr.Fingerprint)
	}

	// ara builds with QRCP, so the same spec spelled svd is the factor
	// already in the cache.
	svdSpec := spec
	svdSpec.Compress = "svd"
	resp3, body3 := postJSON(t, ts.URL+"/v1/factorize", FactorizeRequest{Problem: svdSpec})
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("factorize compress=svd: status %d: %s", resp3.StatusCode, body3)
	}
	var fr FactorizeResponse
	if err := json.Unmarshal(body3, &fr); err != nil {
		t.Fatal(err)
	}
	if !fr.Cached || fr.Fingerprint != sr.Fingerprint {
		t.Fatalf("compress=svd factorize: cached=%v fingerprint %s, want a hit on %s", fr.Cached, fr.Fingerprint, sr.Fingerprint)
	}
}
