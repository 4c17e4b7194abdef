package core

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	goruntime "runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"tlrchol/internal/dense"
	"tlrchol/internal/tilemat"
	"tlrchol/internal/tlr"
)

// TestBuildGraphDumpUnchanged pins the factorization graphs: every
// task's id, label, priority, sorted successors and declared accesses,
// hashed per graph on the keystone matrix. The expected hashes were
// computed with the same dump over the pointer-linked task graph the
// int32 CSR executor replaced, so a change to any graph — an edge, a
// label, a priority, an access — shows up here.
func TestBuildGraphDumpUnchanged(t *testing.T) {
	const tol = 1e-6
	m, _ := rbfMatrix(t, 640, 64, 2, tol)
	for _, tc := range []struct {
		name  string
		form  tilemat.Form
		trim  bool
		tasks int
		hash  string
	}{
		{"cholesky-trim", tilemat.FormCholesky, true, 61, "262799925881742c9ed705775a9676536b3245b67a2ac3161e1c5016a8c5a8a9"},
		{"cholesky-full", tilemat.FormCholesky, false, 220, "e90372f3daada3750785e6cdb7ea0f0ec7a8ab1e2278bd2942bcf3382f8bb233"},
		{"ldlt-trim", tilemat.FormLDLt, true, 61, "7c349ff7804ede6f75f3c4c9950820b73a1fb2306def03c96c1ceba3317d108d"},
		{"ldlt-full", tilemat.FormLDLt, false, 220, "0227aa930df2dce505c53cb3ade4811702cbbce40212a726430f88c40f7aa917"},
	} {
		g, _ := BuildGraph(m, Structure(m, tc.trim), Options{Tol: tol}, tc.form)
		var sb strings.Builder
		for id := 0; id < g.Tasks(); id++ {
			var succ []int
			for _, s := range g.Successors(id) {
				succ = append(succ, int(s))
			}
			slices.Sort(succ)
			fmt.Fprintf(&sb, "%d %s %d %v", id, g.Label(id), g.Priority(id), succ)
			for _, a := range g.AccessFunc(id) {
				fmt.Fprintf(&sb, " %v:%d", a.Data, a.Mode)
			}
			sb.WriteByte('\n')
		}
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(sb.String()))); g.Tasks() != tc.tasks || got != tc.hash {
			t.Errorf("%s: %d tasks hashing to %s, want %d tasks hashing to %s", tc.name, g.Tasks(), got, tc.tasks, tc.hash)
		}
	}
}

// TestFactorizeAllocs pins what the int32 CSR executor saves: the
// parallel factorization allocates at most 1.5× what the sequential
// reference does (the pointer-linked task graph cost about 5×).
func TestFactorizeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on otherwise allocation-free paths")
	}
	const tol = 1e-6
	base, _ := rbfMatrix(t, 640, 64, 2, tol)
	allocs := func(opts Options) float64 {
		const runs = 5
		// AllocsPerRun calls f once more to warm up; every call gets a
		// fresh copy made outside the measurement.
		ms := make([]*tilemat.Matrix, runs+1)
		for i := range ms {
			ms[i] = base.Clone()
		}
		next := 0
		return testing.AllocsPerRun(runs, func() {
			if _, err := Factorize(ms[next], opts); err != nil {
				t.Fatal(err)
			}
			next++
		})
	}
	seq := allocs(Options{Tol: tol, Trim: true, Sequential: true})
	par := allocs(Options{Tol: tol, Trim: true, Workers: 2})
	t.Logf("allocations per factorization: %.0f at 2 workers, %.0f sequential", par, seq)
	if par > 1.5*seq {
		t.Fatalf("parallel factorization allocates %.0f times, more than 1.5× the sequential %.0f", par, seq)
	}
}

// TestSolvePlannedPanicIsError: a kernel panic on a planned-solve
// worker is contained — SolveCtx returns an error naming the task, and
// every worker has exited — instead of killing the process.
func TestSolvePlannedPanicIsError(t *testing.T) {
	f, p := plannedFactor(t, 520, 64, true)
	// A dense tile of the wrong size makes its forward apply panic in
	// the GEMM dimension check.
	i, j := -1, -1
	for r := f.NT - 1; r > 0 && i < 0; r-- {
		for c := 0; c < r; c++ {
			if f.At(r, c).Kind != tlr.Zero {
				i, j = r, c
				break
			}
		}
	}
	if i < 0 {
		t.Fatal("factor has no non-zero off-diagonal tile")
	}
	f.Set(i, j, tlr.NewDense(dense.NewMatrix(3, 5)))
	rhs := dense.Random(rand.New(rand.NewSource(5)), 520, 2)

	before := goruntime.NumGoroutine()
	err := p.SolveCtx(context.Background(), f, rhs, 2)
	want := fmt.Sprintf("task fwd.apply(%d,%d): panic: ", i, j)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("want an error containing %q, got %v", want, err)
	}
	// The spawned worker is joined before SolveCtx returns.
	deadline := time.Now().Add(2 * time.Second)
	for goruntime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("workers leaked: %d goroutines before, %d after", before, goruntime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
