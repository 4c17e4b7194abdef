package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sync"
	"testing"
	"time"

	"tlrchol/internal/core"
	"tlrchol/internal/dense"
	"tlrchol/internal/tilemat"
	"tlrchol/internal/tlr"
)

// tileHash digests a tile's kind, shape and the float64 bits of every
// matrix it holds.
func tileHash(t *tlr.Tile) [32]byte {
	h := sha256.New()
	var buf [8]byte
	w := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	w(uint64(t.Kind))
	w(uint64(t.Rows))
	w(uint64(t.Cols))
	for _, m := range []*dense.Matrix{t.D, t.U, t.V} {
		if m == nil {
			w(math.MaxUint64)
			continue
		}
		w(uint64(m.Rows))
		w(uint64(m.Cols))
		for i := 0; i < m.Rows; i++ {
			for j := 0; j < m.Cols; j++ {
				w(math.Float64bits(m.At(i, j)))
			}
		}
	}
	return [32]byte(h.Sum(nil))
}

// sameMatrix reports the first tile at which two tile matrices differ
// in any bit, or "" when they are identical.
func sameMatrix(got, want *tilemat.Matrix) string {
	if got.N != want.N || got.B != want.B || got.Form != want.Form {
		return fmt.Sprintf("layout n=%d b=%d form=%v, want n=%d b=%d form=%v", got.N, got.B, got.Form, want.N, want.B, want.Form)
	}
	for i := 0; i < got.NT; i++ {
		for j := 0; j <= i; j++ {
			if tileHash(got.At(i, j)) != tileHash(want.At(i, j)) {
				return fmt.Sprintf("tile (%d,%d)", i, j)
			}
		}
	}
	return ""
}

// libraryBuild builds the spec's operator and factor with the library
// alone, as the service did before it reused operators: compress every
// tile, keep a deep copy as the operator and factorize the original in
// place.
func libraryBuild(t *testing.T, sp ProblemSpec) (op, l *tilemat.Matrix) {
	t.Helper()
	prob, _ := sp.problem(sp.points())
	m, _, err := tilemat.FromAssemblerParallel(sp.Dim(), sp.Tile, sp.assembler(prob), sp.Tol, sp.MaxRank, 2)
	if err != nil {
		t.Fatal(err)
	}
	op = m.Clone()
	opts := core.Options{Tol: sp.Tol, MaxRank: sp.MaxRank, Trim: *sp.Trim, Workers: 2}
	if sp.Factor == "ldlt" {
		_, err = core.FactorizeLDLt(m, opts)
	} else {
		_, err = core.Factorize(m, opts)
	}
	if err != nil {
		t.Fatal(err)
	}
	return op, m
}

// factorizeSpec posts /v1/factorize and decodes the answer.
func factorizeSpec(t *testing.T, url string, sp ProblemSpec) FactorizeResponse {
	t.Helper()
	resp, body := postJSON(t, url+"/v1/factorize", FactorizeRequest{Problem: sp})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("factorize: status %d: %s", resp.StatusCode, body)
	}
	var fr FactorizeResponse
	if err := json.Unmarshal(body, &fr); err != nil {
		t.Fatal(err)
	}
	return fr
}

// solveSpec posts a solve request and returns the answer, reporting a
// failed request as a test error.
func solveSpec(t *testing.T, url string, req SolveRequest) SolveResponse {
	t.Helper()
	resp, body := postJSON(t, url+"/v1/solve", req)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("solve: status %d: %s", resp.StatusCode, body)
		return SolveResponse{}
	}
	var sr SolveResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Error(err)
	}
	return sr
}

// TestNuggetVariantReusesOperator is the keystone of operator reuse: a
// spec that differs from a resident factor's only in its nugget must
// borrow that factor's off-diagonal tiles, and what it builds must be
// the fresh build bit for bit: every tile of Op and L against the
// library's own build, and the returned solution against a server that
// built the variant from scratch. Cholesky runs on three kernels,
// LDLᵀ on the augmented system. A spec that differs in any other field
// must build from scratch.
func TestNuggetVariantReusesOperator(t *testing.T) {
	fast := func(c *Config) { c.BatchWindow = -1 }
	cases := []struct {
		name string
		spec ProblemSpec
	}{
		{"gaussian", ProblemSpec{N: 384, Tile: 64, Tol: 1e-7}},
		{"matern32", ProblemSpec{N: 384, Tile: 64, Tol: 1e-7, Kernel: "matern32"}},
		{"wendland", ProblemSpec{N: 384, Tile: 64, Tol: 1e-7, Kernel: "wendland"}},
		{"augmented-ldlt", ProblemSpec{N: 380, Tile: 64, Tol: 1e-8, Factor: "ldlt", Augmented: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv, ts := newTestServer(t, fast)
			sh := srv.shards[0]
			if fr := factorizeSpec(t, ts.URL, tc.spec); fr.Cached {
				t.Fatal("base spec reported cached on an empty server")
			}
			if n := sh.opReuse.Value(); n != 0 {
				t.Fatalf("op_reuse = %d after the first build, want 0", n)
			}
			for k, scale := range []float64{3, 0.5} {
				variant := tc.spec
				variant.Nugget = 100 * variant.Tol * scale
				fr := factorizeSpec(t, ts.URL, variant)
				if fr.Cached {
					t.Fatalf("nugget ×%g: reported cached", scale)
				}
				if got, want := sh.opReuse.Value(), uint64(k+1); got != want {
					t.Fatalf("nugget ×%g: op_reuse = %d, want %d", scale, got, want)
				}

				if err := variant.normalize(0); err != nil {
					t.Fatal(err)
				}
				wantOp, wantL := libraryBuild(t, variant)
				if st := wantOp.Stats(); st.ZeroTiles == st.Tiles {
					t.Fatal("every off-diagonal tile is zero: the operator shares nothing worth checking")
				}
				f, ok := sh.cache.Lookup(fr.Fingerprint)
				if !ok {
					t.Fatalf("nugget ×%g: factor %s not resident", scale, fr.Fingerprint)
				}
				opDiff, lDiff := sameMatrix(f.Op, wantOp), sameMatrix(f.L, wantL)
				f.Release()
				if opDiff != "" {
					t.Fatalf("nugget ×%g: Op differs from a fresh build at %s", scale, opDiff)
				}
				if lDiff != "" {
					t.Fatalf("nugget ×%g: L differs from a fresh build at %s", scale, lDiff)
				}
				if want := int64(wantOp.Bytes()+wantL.Bytes()) + core.BuildSolvePlan(wantL).Bytes(); fr.Bytes != want {
					t.Fatalf("nugget ×%g: factor bytes %d, want %d (shared tiles charged per factor)", scale, fr.Bytes, want)
				}

				// The same solve against a server that built the variant
				// from scratch returns the same bits.
				freshSrv, fresh := newTestServer(t, fast)
				req := SolveRequest{Problem: &variant, NRHS: 2, RHSSeed: 5, ReturnSolution: true}
				got, ref := solveSpec(t, ts.URL, req), solveSpec(t, fresh.URL, req)
				if n := freshSrv.shards[0].opReuse.Value(); n != 0 {
					t.Fatalf("a fresh server reused an operator %d times", n)
				}
				if !got.Cached || ref.Cached {
					t.Fatalf("cached: reused server %v, fresh server %v", got.Cached, ref.Cached)
				}
				if len(got.Solution) != 2 || len(ref.Solution) != 2 {
					t.Fatalf("solutions of %d and %d columns, want 2", len(got.Solution), len(ref.Solution))
				}
				for j := range got.Solution {
					for i, v := range got.Solution[j] {
						if math.Float64bits(v) != math.Float64bits(ref.Solution[j][i]) {
							t.Fatalf("nugget ×%g: solution (%d,%d) = %v, fresh build %v", scale, i, j, v, ref.Solution[j][i])
						}
					}
				}
			}
		})
	}

	t.Run("other fields", func(t *testing.T) {
		srv, ts := newTestServer(t, fast)
		sh := srv.shards[0]
		base := ProblemSpec{N: 256, Tile: 64, Tol: 1e-7}
		factorizeSpec(t, ts.URL, base)
		off := false
		muts := []struct {
			field string
			mut   func(*ProblemSpec)
		}{
			{"tol", func(sp *ProblemSpec) { sp.Tol = 1e-6 }},
			{"tile", func(sp *ProblemSpec) { sp.Tile = 32 }},
			{"maxrank", func(sp *ProblemSpec) { sp.MaxRank = 8 }},
			{"kernel", func(sp *ProblemSpec) { sp.Kernel = "matern52" }},
			{"delta_factor", func(sp *ProblemSpec) { sp.DeltaFactor = 3 }},
			{"seed", func(sp *ProblemSpec) { sp.Seed = 43 }},
			{"trim", func(sp *ProblemSpec) { sp.Trim = &off }},
			{"factor", func(sp *ProblemSpec) { sp.Factor = "ldlt" }},
			{"augmented", func(sp *ProblemSpec) { sp.Factor, sp.Augmented = "ldlt", true }},
		}
		for _, m := range muts {
			sp := base
			sp.Nugget = 300 * base.Tol
			m.mut(&sp)
			if fr := factorizeSpec(t, ts.URL, sp); fr.Cached {
				t.Fatalf("%s: reported cached", m.field)
			}
			if n := sh.opReuse.Value(); n != 0 {
				t.Fatalf("a spec differing in %s reused an operator (op_reuse = %d)", m.field, n)
			}
		}
		if got, want := sh.factorRuns.Value(), uint64(1+len(muts)); got != want {
			t.Fatalf("factorize runs = %d, want %d", got, want)
		}
	})
}

// TestDerivedFactorOutlivesSource pins that nothing writes a shared
// operator tile. A cache that holds one factor serves refined solves
// against three nugget variants of one spec, so every build borrows
// the operator of the factor it then evicts, while solves still run on
// the factors it evicts. At the end the resident factor's off-diagonal
// tiles must be the first build's tiles, hashing as they did before.
// scripts/check.sh runs it under -race.
func TestDerivedFactorOutlivesSource(t *testing.T) {
	srv, ts := newTestServer(t, func(c *Config) {
		c.CacheBudget = 1 // keep-at-least-one: exactly one resident factor
		c.BatchWindow = time.Millisecond
	})
	sh := srv.shards[0]
	base := ProblemSpec{N: 256, Tile: 64, Tol: 1e-7}
	fr := factorizeSpec(t, ts.URL, base)
	src, ok := sh.cache.Lookup(fr.Fingerprint)
	if !ok {
		t.Fatal("base factor not resident")
	}
	type tileRef struct {
		t    *tlr.Tile
		hash [32]byte
	}
	var shared []tileRef
	for i := 1; i < src.Op.NT; i++ {
		for j := 0; j < i; j++ {
			shared = append(shared, tileRef{src.Op.At(i, j), tileHash(src.Op.At(i, j))})
		}
	}
	src.Release()

	const clients, solves = 3, 4
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < solves; i++ {
				sp := base
				sp.Nugget = 100 * base.Tol * float64(2+(c+i)%3)
				sr := solveSpec(t, ts.URL, SolveRequest{Problem: &sp, NRHS: 2, RHSSeed: int64(1 + c*solves + i), Refine: true})
				for _, r := range sr.Residuals {
					if !(r <= base.Tol) {
						t.Errorf("client %d solve %d: refined residual %g above tol %g", c, i, r, base.Tol)
					}
				}
			}
		}(c)
	}
	wg.Wait()

	if !src.freed.Load() {
		t.Fatal("the source factor was never evicted and freed")
	}
	runs, reuse := sh.factorRuns.Value(), sh.opReuse.Value()
	if runs < 2 || reuse != runs-1 {
		t.Fatalf("runs = %d, op_reuse = %d: every build after the first must reuse the resident operator", runs, reuse)
	}
	sh.cache.mu.Lock()
	last := sh.cache.entries[sh.cache.lru.Front().Value.(string)].f
	last.Retain()
	sh.cache.mu.Unlock()
	defer last.Release()
	k := 0
	for i := 1; i < last.Op.NT; i++ {
		for j := 0; j < i; j++ {
			ref := shared[k]
			k++
			if last.Op.At(i, j) != ref.t {
				t.Fatalf("tile (%d,%d) is not the first build's tile", i, j)
			}
			if tileHash(ref.t) != ref.hash {
				t.Fatalf("shared tile (%d,%d) was written", i, j)
			}
		}
	}
}
