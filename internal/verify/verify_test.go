package verify

import (
	"math/rand"
	"testing"

	"tlrchol/internal/core"
	"tlrchol/internal/dense"
	"tlrchol/internal/tilemat"
	"tlrchol/internal/trim"
)

// TestVerifyCoreGraphs proves the factorization graphs of package core
// hazard-complete via their declared tile accesses — Cholesky and
// LDLᵀ, trimmed and not — the check that would have
// caught a forgotten edge the day it was written.
func TestVerifyCoreGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := dense.RandomSPD(rng, 192)
	m, _ := tilemat.FromDense(a, 32, 1e-8, 0)
	for _, tc := range []struct {
		name string
		opts core.Options
		trim bool
		form tilemat.Form
	}{
		{name: "full", opts: core.Options{Tol: 1e-8}},
		{name: "trimmed", opts: core.Options{Tol: 1e-8}, trim: true},
		{name: "ldlt-full", opts: core.Options{Tol: 1e-8}, form: tilemat.FormLDLt},
		{name: "ldlt-trimmed", opts: core.Options{Tol: 1e-8}, trim: true, form: tilemat.FormLDLt},
	} {
		s := core.Structure(m, tc.trim)
		g, _ := core.BuildGraph(m, s, tc.opts, tc.form)
		fs := CheckGraph(g)
		if err := fs.Err(); err != nil {
			t.Fatalf("%s: core graph rejected: %v", tc.name, err)
		}
		for _, f := range fs {
			t.Logf("%s: %v", tc.name, f)
		}
	}
}

// TestVerifyTrimPipeline runs the trim pass over the analysis the real
// driver would use for a sparse operator.
func TestVerifyTrimPipeline(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	r := randomRanks(rng, 12, 0.35)
	a := trim.Analyze(r, trim.AllLocal)
	if err := CheckTrim(a, r).Err(); err != nil {
		t.Fatalf("driver analysis rejected: %v", err)
	}
	// The graph built over the verified structure is itself clean. The
	// bodies never run, so an empty matrix stands in for the operator.
	g, _ := core.BuildGraph(tilemat.New(12*8, 8), a, core.Options{Tol: 1e-8}, tilemat.FormCholesky)
	if err := CheckGraph(g).Err(); err != nil {
		t.Fatalf("graph over verified structure rejected: %v", err)
	}
}
