package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"

	"tlrchol/internal/rbf"
)

// ProblemSpec is the wire description of a kernel-matrix problem. Two
// requests with the same spec denote the same SPD operator, so its
// fingerprint is the factor-cache key: one factorization is amortized
// over every solve that names the same spec — the reuse pattern of the
// paper's mesh-deformation application, where one boundary operator
// serves many deformation right-hand sides.
type ProblemSpec struct {
	// N is the matrix dimension (number of boundary mesh points).
	N int `json:"n"`
	// Tile is the TLR tile size.
	Tile int `json:"tile"`
	// Tol is the compression/factorization accuracy threshold.
	Tol float64 `json:"tol"`
	// MaxRank caps stored tile ranks (0 = unlimited).
	MaxRank int `json:"maxrank,omitempty"`
	// Kernel selects the RBF: gaussian (default), wendland, matern32 or
	// matern52.
	Kernel string `json:"kernel,omitempty"`
	// DeltaFactor scales the shape parameter as a multiple of the
	// paper's default ½·min-distance (default 2).
	DeltaFactor float64 `json:"delta_factor,omitempty"`
	// Nugget is the diagonal regularization (default 100·Tol).
	Nugget float64 `json:"nugget,omitempty"`
	// Seed selects the synthetic virus-population geometry (default 42).
	Seed int64 `json:"seed,omitempty"`
	// Trim enables DAG trimming (default true).
	Trim *bool `json:"trim,omitempty"`
	// Compress names the tile compressor. Every off-diagonal tile is
	// built by truncated QRCP, spelled svd (the default); ara, the
	// randomized compressor the library no longer has, is still
	// accepted and builds with QRCP too. normalize stores svd for both.
	Compress string `json:"compress,omitempty"`
	// Factor selects the factorization: chol (default, SPD only) or
	// ldlt (signed, for symmetric indefinite operators).
	Factor string `json:"factor,omitempty"`
	// Augmented solves the saddle-point system [K P; Pᵀ 0] with the
	// linear polynomial constraint block P — the full RBF interpolant of
	// Section IV-C. Indefinite, so it requires factor=ldlt. Right-hand
	// sides keep length N; the server pads the 4 constraint rows with
	// zeros and returns length-N solutions.
	Augmented bool `json:"augmented,omitempty"`
}

// Dim returns the order of the operator the spec factorizes: N, or N+4
// when the polynomial-augmented system is requested.
func (sp ProblemSpec) Dim() int {
	if sp.Augmented {
		return sp.N + 4
	}
	return sp.N
}

// normalize applies defaults and validates the spec against the
// server's limits. It must run before fingerprinting so that specs
// differing only in elided defaults map to the same cache entry.
func (sp *ProblemSpec) normalize(maxN int) error {
	if sp.N <= 0 {
		return fmt.Errorf("n must be positive, got %d", sp.N)
	}
	if maxN > 0 && sp.N > maxN {
		return fmt.Errorf("n=%d exceeds the server limit %d", sp.N, maxN)
	}
	if sp.Tile <= 0 {
		sp.Tile = 128
	}
	if sp.Tile > sp.N {
		return fmt.Errorf("tile=%d must not exceed n=%d", sp.Tile, sp.N)
	}
	if sp.Tol <= 0 || math.IsNaN(sp.Tol) || math.IsInf(sp.Tol, 0) {
		return fmt.Errorf("tol must be positive and finite, got %g", sp.Tol)
	}
	if sp.MaxRank < 0 {
		return fmt.Errorf("maxrank must be ≥ 0, got %d", sp.MaxRank)
	}
	if sp.Kernel == "" {
		sp.Kernel = "gaussian"
	}
	switch sp.Kernel {
	case "gaussian", "wendland", "matern32", "matern52":
	default:
		return fmt.Errorf("unknown kernel %q", sp.Kernel)
	}
	if sp.DeltaFactor == 0 {
		sp.DeltaFactor = 2
	}
	if sp.DeltaFactor < 0 || math.IsNaN(sp.DeltaFactor) || math.IsInf(sp.DeltaFactor, 0) {
		return fmt.Errorf("delta_factor must be positive and finite, got %g", sp.DeltaFactor)
	}
	if sp.Nugget == 0 {
		sp.Nugget = 100 * sp.Tol
	}
	// Checked after the default: 100·tol overflows for tol near MaxFloat64.
	if math.IsNaN(sp.Nugget) || math.IsInf(sp.Nugget, 0) {
		return fmt.Errorf("nugget must be finite, got %g", sp.Nugget)
	}
	if sp.Seed == 0 {
		sp.Seed = 42
	}
	if sp.Trim == nil {
		t := true
		sp.Trim = &t
	}
	switch sp.Compress {
	case "", "svd", "ara":
		sp.Compress = "svd"
	default:
		return fmt.Errorf("unknown compressor %q (want svd)", sp.Compress)
	}
	if sp.Factor == "" {
		sp.Factor = "chol"
	}
	switch sp.Factor {
	case "chol", "ldlt":
	default:
		return fmt.Errorf("unknown factorization %q (want chol or ldlt)", sp.Factor)
	}
	if sp.Augmented && sp.Factor != "ldlt" {
		return fmt.Errorf("the augmented saddle-point system is indefinite; it requires factor=ldlt")
	}
	return nil
}

// points generates the spec's deterministic geometry.
func (sp ProblemSpec) points() []rbf.Point {
	cfg := rbf.DefaultVirusConfig(sp.N)
	cfg.Seed = sp.Seed
	return rbf.VirusPopulation(cfg)[:sp.N]
}

// problem builds the RBF problem for the spec's geometry and kernel,
// with the points in rbf.NewProblem's KD order, and returns its shape
// parameter δ.
func (sp ProblemSpec) problem(pts []rbf.Point) (*rbf.Problem, float64) {
	delta := sp.DeltaFactor * rbf.DefaultShape(pts)
	prob, _ := rbf.NewProblem(pts, sp.kernel(delta))
	return prob, delta
}

// kernel returns the spec's kernel at shape parameter delta.
func (sp ProblemSpec) kernel(delta float64) rbf.Kernel {
	switch sp.Kernel {
	case "wendland":
		return rbf.WendlandC2{Delta: 3 * delta, Nugget: sp.Nugget}
	case "matern32":
		return rbf.Matern32{Delta: delta, Nugget: sp.Nugget}
	case "matern52":
		return rbf.Matern52{Delta: delta, Nugget: sp.Nugget}
	}
	return rbf.Gaussian{Delta: delta, Nugget: sp.Nugget}
}

// canonFloat canonicalizes a float for hashing: negative zero compares
// equal to positive zero, so the two must not produce distinct cache
// keys — hash them as the same bit pattern. Non-finite values never
// reach the hash (validatePoints and normalize reject them), so every
// remaining distinct bit pattern denotes a genuinely distinct problem.
func canonFloat(v float64) float64 {
	if v == 0 {
		return 0 // collapses -0.0 onto +0.0
	}
	return v
}

// validatePoints rejects geometries with non-finite coordinates. A NaN
// coordinate would make the problem invalid while still hashing to a
// key (and distinct NaN payloads would hash to *different* keys for
// the same invalid problem), so the spec is refused before
// fingerprinting.
func validatePoints(pts []rbf.Point) error {
	finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
	for i, p := range pts {
		if !finite(p.X) || !finite(p.Y) || !finite(p.Z) {
			return fmt.Errorf("point %d has non-finite coordinates (%g, %g, %g)", i, p.X, p.Y, p.Z)
		}
	}
	return nil
}

// Fingerprint hashes the problem identity: the geometry (exact float
// bits of every generated point, with -0.0 canonicalized to +0.0), the
// kernel and its parameters, the discretization/accuracy knobs (tile,
// tol, maxrank, trim), and the build pipeline (factorization kind,
// augmentation). Every compressor spelling builds the same tiles, so
// the compressor is not hashed. Anything that changes
// the factor's bits is in the hash; request-side options (RHS,
// refinement) are not. Strings are length-prefixed so adjacent fields
// cannot alias across their boundary. Callers must validate the
// geometry first (validatePoints): the hash assumes every coordinate
// is finite.
func Fingerprint(sp ProblemSpec, pts []rbf.Point) string {
	h := sha256.New()
	var buf [8]byte
	w64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	wf := func(v float64) { w64(math.Float64bits(canonFloat(v))) }
	ws := func(s string) {
		w64(uint64(len(s)))
		h.Write([]byte(s))
	}
	w64(uint64(sp.N))
	w64(uint64(sp.Tile))
	wf(sp.Tol)
	w64(uint64(sp.MaxRank))
	ws(sp.Kernel)
	wf(sp.DeltaFactor)
	wf(sp.Nugget)
	w64(uint64(sp.Seed))
	if sp.Trim != nil && *sp.Trim {
		w64(1)
	} else {
		w64(0)
	}
	ws(sp.Factor)
	if sp.Augmented {
		w64(1)
	} else {
		w64(0)
	}
	for _, p := range pts {
		wf(p.X)
		wf(p.Y)
		wf(p.Z)
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// operatorKey fingerprints the spec with its nugget neutralized. The
// nugget enters only the diagonal entries, which the dense diagonal
// tiles hold, so two specs with one operator key have bit-identical
// off-diagonal tiles: a factor of one can lend its compressed operator
// to a build of the other.
func operatorKey(sp ProblemSpec, pts []rbf.Point) string {
	sp.Nugget = 0
	return Fingerprint(sp, pts)
}
