package serve

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"tlrchol/internal/core"
	"tlrchol/internal/dense"
	"tlrchol/internal/obs"
)

// buildTestFactor factorizes a small RBF problem through the shard's
// own build path, so it carries a SolvePlan like every served factor.
func buildTestFactor(t testing.TB, n int) *Factor {
	t.Helper()
	sp := testSpec(n)
	pts := sp.points()
	cfg := Config{Metrics: obs.NewRegistry(4)}
	cfg.defaults()
	f, err := newShard(0, cfg, cfg.Metrics).buildFactor(nil, sp, pts, Fingerprint(sp, pts))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestBatcherCoalesce: 8 concurrent single-column solves against one
// factor must coalesce into one blocked solve (the batch fills, so no
// window timing is involved) and every column must match its solo
// solve bit for bit.
func TestBatcherCoalesce(t *testing.T) {
	const n, k = 256, 8
	f := buildTestFactor(t, n)
	b := NewBatcher(2*time.Second, k, time.Minute, 0, obs.NewRegistry(4))
	rng := rand.New(rand.NewSource(3))
	rhs := dense.Random(rng, n, k)

	results := make([]*dense.Matrix, k)
	outs := make([]solveOutcome, k)
	var wg sync.WaitGroup
	for j := 0; j < k; j++ {
		j := j
		col := dense.NewMatrix(n, 1)
		for i := 0; i < n; i++ {
			col.Set(i, 0, rhs.At(i, j))
		}
		results[j] = col
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[j] = b.Solve(context.Background(), f, SolveParams{}, col)
		}()
	}
	wg.Wait()
	for j := 0; j < k; j++ {
		if outs[j].err != nil {
			t.Fatalf("job %d failed: %v", j, outs[j].err)
		}
		if outs[j].batchCols != k {
			t.Fatalf("job %d ran in a batch of %d, want %d", j, outs[j].batchCols, k)
		}
		if len(outs[j].residuals) != 1 || outs[j].residuals[0] > 1e-4 {
			t.Fatalf("job %d residuals: %v", j, outs[j].residuals)
		}
		solo := dense.NewMatrix(n, 1)
		for i := 0; i < n; i++ {
			solo.Set(i, 0, rhs.At(i, j))
		}
		core.Solve(f.L, solo)
		for i := 0; i < n; i++ {
			if math.Float64bits(results[j].At(i, 0)) != math.Float64bits(solo.At(i, 0)) {
				t.Fatalf("batched column %d differs bitwise from solo solve at row %d", j, i)
			}
		}
	}
}

// TestBatcherRefine checks the refinement path carries per-column
// iteration counts through the batch.
func TestBatcherRefine(t *testing.T) {
	const n = 256
	f := buildTestFactor(t, n)
	b := NewBatcher(0, 8, time.Minute, 0, obs.NewRegistry(4))
	rng := rand.New(rand.NewSource(4))
	cols := dense.Random(rng, n, 2)
	out := b.Solve(context.Background(), f, SolveParams{Refine: true, MaxIter: 10, Target: 1e-9}, cols)
	if out.err != nil {
		t.Fatal(out.err)
	}
	if len(out.iterations) != 2 || len(out.residuals) != 2 {
		t.Fatalf("refine outcome incomplete: %+v", out)
	}
	for j, r := range out.residuals {
		if r > 1e-9 {
			t.Fatalf("column %d did not refine to target: %g", j, r)
		}
	}
}

// TestBatcherCtxAbandon: a caller whose context dies mid-wait gets the
// context error while the batch still completes for the others.
func TestBatcherCtxAbandon(t *testing.T) {
	const n = 256
	f := buildTestFactor(t, n)
	b := NewBatcher(300*time.Millisecond, 8, time.Minute, 0, obs.NewRegistry(4))
	ctx, cancel := context.WithCancel(context.Background())

	var wg sync.WaitGroup
	var abandoned, kept solveOutcome
	wg.Add(2)
	go func() { // leader holds the window open
		defer wg.Done()
		cols := dense.NewMatrix(n, 1)
		cols.Set(0, 0, 1)
		kept = b.Solve(context.Background(), f, SolveParams{}, cols)
	}()
	time.Sleep(50 * time.Millisecond)
	go func() {
		defer wg.Done()
		cols := dense.NewMatrix(n, 1)
		cols.Set(1, 0, 1)
		abandoned = b.Solve(ctx, f, SolveParams{}, cols)
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	wg.Wait()
	if abandoned.err != context.Canceled {
		t.Fatalf("abandoned job: want context.Canceled, got %v", abandoned.err)
	}
	if kept.err != nil || len(kept.residuals) != 1 {
		t.Fatalf("surviving job must complete: %+v", kept)
	}
}

// TestBatcherLeaderCancelPromotion: a leader whose context dies
// mid-window must not strand the followers that joined its batch — the
// first surviving follower is promoted and the batch executes without
// the cancelled job, returning results bitwise identical to a solo
// solve.
func TestBatcherLeaderCancelPromotion(t *testing.T) {
	const n = 256
	f := buildTestFactor(t, n)
	reg := obs.NewRegistry(4)
	b := NewBatcher(time.Second, 16, time.Minute, 2, reg)

	rng := rand.New(rand.NewSource(5))
	leaderRHS := dense.Random(rng, n, 1)
	followerRHS := dense.Random(rng, n, 1)

	leaderCtx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	var leaderOut, followerOut solveOutcome
	wg.Add(1)
	go func() {
		defer wg.Done()
		leaderOut = b.Solve(leaderCtx, f, SolveParams{}, leaderRHS.Clone())
	}()
	time.Sleep(100 * time.Millisecond) // leader is parked in its window
	followerCols := followerRHS.Clone()
	wg.Add(1)
	go func() {
		defer wg.Done()
		followerOut = b.Solve(context.Background(), f, SolveParams{}, followerCols)
	}()
	time.Sleep(100 * time.Millisecond) // follower has joined the pending batch
	cancel()
	wg.Wait()

	if leaderOut.err == nil {
		t.Fatal("cancelled leader must return its context error")
	}
	if followerOut.err != nil {
		t.Fatalf("promoted follower failed: %v", followerOut.err)
	}
	if followerOut.batchCols != 1 {
		t.Fatalf("promoted batch should hold only the follower's column, got %d", followerOut.batchCols)
	}

	solo := followerRHS.Clone()
	if err := core.SolveCtx(context.Background(), f.L, solo); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if math.Float64bits(followerCols.At(i, 0)) != math.Float64bits(solo.At(i, 0)) {
			t.Fatalf("row %d: promoted-batch result differs bitwise from solo", i)
		}
	}
	if got := b.promotions.Value(); got != 1 {
		t.Fatalf("want 1 recorded promotion, got %d", got)
	}
	// The factor was pinned for the detached execution and released
	// after it; an unmanaged test factor must be left intact. The
	// detached goroutine releases after it has delivered the follower's
	// result, so the release may land just after wg.Wait returns.
	for deadline := time.Now().Add(5 * time.Second); f.refs.Load() != 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if f.L == nil || f.refs.Load() != 0 {
		t.Fatalf("factor lifetime mishandled after promotion (refs %d)", f.refs.Load())
	}
}

// TestBatcherPanicFailsEveryJob: a panic inside the batch (here the
// residual check, whose operator was built at another N than the
// factor) must reach every job of the batch as an error, promptly, for
// a batch run by its leader and for one promoted after the leader was
// cancelled, whose detached goroutine must not take the process down.
func TestBatcherPanicFailsEveryJob(t *testing.T) {
	const n = 256
	good := buildTestFactor(t, n)
	bad := &Factor{FP: "mismatched", L: good.L, Op: buildTestFactor(t, 2*n).Op, Plan: good.Plan}
	rng := rand.New(rand.NewSource(9))

	for _, promoted := range []bool{false, true} {
		// The window outlasts the test: the follower's column fills a
		// two-column batch, or the leader's cancellation promotes it.
		maxCols := 2
		if promoted {
			maxCols = 16
		}
		b := NewBatcher(time.Minute, maxCols, time.Minute, 2, obs.NewRegistry(4))
		leaderCtx, cancel := context.WithCancel(context.Background())
		followerCtx, stop := context.WithTimeout(context.Background(), 10*time.Second)
		var wg sync.WaitGroup
		var leaderOut, followerOut solveOutcome
		leaderCols, followerCols := dense.Random(rng, n, 1), dense.Random(rng, n, 1)
		start := time.Now()
		wg.Add(2)
		go func() {
			defer wg.Done()
			leaderOut = b.Solve(leaderCtx, bad, SolveParams{}, leaderCols)
		}()
		waitJobs(b, bad, 1) // the leader is parked in its window
		go func() {
			defer wg.Done()
			followerOut = b.Solve(followerCtx, bad, SolveParams{}, followerCols)
		}()
		if promoted {
			waitJobs(b, bad, 2)
			cancel()
		}
		wg.Wait()
		elapsed := time.Since(start)
		cancel()
		stop()

		if followerOut.err == nil || !strings.Contains(followerOut.err.Error(), "panic") {
			t.Fatalf("promoted=%v: follower got %v, want the batch's panic as an error", promoted, followerOut.err)
		}
		if promoted {
			if !errors.Is(leaderOut.err, context.Canceled) {
				t.Fatalf("cancelled leader: want context.Canceled, got %v", leaderOut.err)
			}
		} else if leaderOut.err == nil || !strings.Contains(leaderOut.err.Error(), "panic") {
			t.Fatalf("leader got %v, want the batch's panic as an error", leaderOut.err)
		}
		if elapsed > 5*time.Second {
			t.Fatalf("promoted=%v: jobs took %v to fail", promoted, elapsed)
		}
	}
}

// waitJobs returns once the pending batch for f holds n jobs.
func waitJobs(b *Batcher, f *Factor, n int) {
	for {
		b.mu.Lock()
		pb := b.pending[batchKey{fp: f.FP}]
		joined := pb != nil && len(pb.jobs) >= n
		b.mu.Unlock()
		if joined {
			return
		}
		time.Sleep(time.Millisecond)
	}
}
