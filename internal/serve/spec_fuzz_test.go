package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"tlrchol/internal/rbf"
)

// FuzzSpecNormalize decodes arbitrary bytes as a ProblemSpec the way the
// server does (unknown fields refused) and checks normalize's contract:
// it never panics, a spec it accepts is its own normal form (normalizing
// it again succeeds and changes nothing), and the fingerprint of that
// normal form is stable across the second normalize. The geometry is a
// fixed point set: the property under test is the spec's normal form,
// and generating a virus population per input would bound the rate by N.
func FuzzSpecNormalize(f *testing.F) {
	// The benchmark's serve-churn specs (geometry seeds 43–48; 45 and 48
	// are the augmented LDLᵀ ones, which still spell the compressor ara).
	for seed := 43; seed <= 48; seed++ {
		spec := fmt.Sprintf(`{"n":2048,"tile":128,"tol":1e-6,"kernel":"gaussian","delta_factor":2,"nugget":0.0001,"seed":%d`, seed)
		if seed == 45 || seed == 48 {
			spec += `,"compress":"ara","factor":"ldlt","augmented":true`
		}
		f.Add([]byte(spec + `}`))
	}
	f.Add([]byte(`{"n":64,"tile":16,"tol":1e-6,"compress":"ara"}`))
	f.Add([]byte(`{"n":64,"tile":16,"tol":1e-6,"compress":"svd"}`))
	f.Add([]byte(`{"n":64,"tol":1e-6,"compress":"ara","ara_bs":32}`))
	f.Add([]byte(`{"n":300,"tol":1e300,"trim":false,"kernel":"matern52"}`))
	// The default nugget 100·tol overflowed to +Inf here and was stored.
	f.Add([]byte(`{"n":300,"tol":1e307}`))

	pts := []rbf.Point{{X: 0.25, Y: -1, Z: 2}, {X: 3}}
	f.Fuzz(func(t *testing.T, data []byte) {
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		var sp ProblemSpec
		if dec.Decode(&sp) != nil {
			return
		}
		if sp.normalize(16384) != nil {
			return
		}
		fp := Fingerprint(sp, pts)
		again := sp
		if err := again.normalize(16384); err != nil {
			t.Fatalf("normalized spec %+v fails to normalize again: %v", sp, err)
		}
		if !reflect.DeepEqual(again, sp) {
			t.Fatalf("normalize is not idempotent: %+v then %+v", sp, again)
		}
		if got := Fingerprint(again, pts); got != fp {
			t.Fatalf("fingerprint moved across a second normalize: %s then %s", fp, got)
		}
	})
}
