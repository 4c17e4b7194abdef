package runtime

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// buildDeepGraph wires chains deep chains of length depth with cross
// edges between neighbours every few levels, so the DAG is both deep
// (long dependency spines keep workers blocking on releases) and wide
// enough that several workers are mid-task when an abort hits. Task
// (c, d) fails iff fail(c, d) returns a non-nil error.
func buildDeepGraph(chains, depth int, body func(c, d int) error) (*testGraph, int) {
	g := newTestGraph()
	prev := make([]int32, chains)
	for i := range prev {
		prev[i] = -1
	}
	for d := 0; d < depth; d++ {
		cur := make([]int32, chains)
		for c := 0; c < chains; c++ {
			c, d := c, d
			// Spread priorities so the heap ordering is exercised too.
			cur[c] = g.task(fmt.Sprintf("t(%d,%d)", c, d), int64((c*7+d*3)%13), func() error {
				return body(c, d)
			})
			if prev[c] >= 0 {
				g.Dep(prev[c], cur[c])
			}
			// Cross edge to the neighbouring chain every third level.
			if d%3 == 0 && c > 0 && prev[c-1] >= 0 {
				g.Dep(prev[c-1], cur[c])
			}
		}
		prev = cur
	}
	return g, chains * depth
}

// runWithTimeout runs the graph on a separate goroutine and fails the
// test if Run does not return within the deadline — the hang the abort
// path must never produce.
func runWithTimeout(t *testing.T, g *testGraph, workers int, deadline time.Duration) (Stats, error) {
	t.Helper()
	type result struct {
		st  Stats
		err error
	}
	done := make(chan result, 1)
	go func() {
		st, err := g.run(workers)
		done <- result{st, err}
	}()
	select {
	case r := <-done:
		return r.st, r.err
	case <-time.After(deadline):
		buf := make([]byte, 1<<20)
		t.Fatalf("Run hung past %v; goroutine dump:\n%s", deadline, buf[:runtime.Stack(buf, true)])
		return Stats{}, nil
	}
}

// TestAbortMidDeepGraph is the regression test for the abort path: a
// kernel failing halfway down a deep graph must surface its error
// promptly — no deadlocked workers waiting on successors that will
// never be released, no tasks running after their predecessor failed.
// Run it under -race; the repeated iterations vary the interleaving of
// the failing task against concurrently completing ones.
func TestAbortMidDeepGraph(t *testing.T) {
	const chains, depth = 8, 200
	boom := errors.New("boom")
	for iter := 0; iter < 20; iter++ {
		var after atomic.Int64
		g, total := buildDeepGraph(chains, depth, func(c, d int) error {
			if c == 3 && d == depth/2 {
				return boom
			}
			if d > depth/2+1 && (c == 3 || c == 4) {
				// Downstream of the failure (directly, or via the cross
				// edge into chain 4 at the next %3 level).
				after.Add(1)
			}
			return nil
		})
		st, err := runWithTimeout(t, g, 8, 10*time.Second)
		if !errors.Is(err, boom) {
			t.Fatalf("iter %d: want boom, got %v", iter, err)
		}
		if !strings.Contains(err.Error(), "t(3,100)") {
			t.Fatalf("iter %d: error does not name the failing task: %v", iter, err)
		}
		if st.Executed >= total {
			t.Fatalf("iter %d: abort executed the whole graph (%d tasks)", iter, st.Executed)
		}
		// Nothing strictly below the failed task may run: its successors
		// are never released, transitively pinning the rest of the chain.
		if n := after.Load(); n != 0 {
			t.Fatalf("iter %d: %d tasks downstream of the failure ran", iter, n)
		}
	}
}

// TestAbortConcurrentFailures: several tasks failing at once must not
// double-report or hang; exactly one error (the first observed) comes
// back.
func TestAbortConcurrentFailures(t *testing.T) {
	for iter := 0; iter < 10; iter++ {
		g, _ := buildDeepGraph(6, 120, func(c, d int) error {
			if d == 60 {
				return fmt.Errorf("fail-%d", c)
			}
			return nil
		})
		_, err := runWithTimeout(t, g, 6, 10*time.Second)
		if err == nil || !strings.Contains(err.Error(), "fail-") {
			t.Fatalf("iter %d: want some fail-* error, got %v", iter, err)
		}
	}
}

// TestAbortOnPanicMidDeepGraph: a panicking kernel is converted to an
// error and aborts like any other failure instead of killing the pool.
func TestAbortOnPanicMidDeepGraph(t *testing.T) {
	g, _ := buildDeepGraph(4, 150, func(c, d int) error {
		if c == 1 && d == 75 {
			panic("index out of range (simulated kernel bug)")
		}
		return nil
	})
	_, err := runWithTimeout(t, g, 4, 10*time.Second)
	if err == nil || !strings.Contains(err.Error(), "panic: index out of range") {
		t.Fatalf("want recovered panic error, got %v", err)
	}
}

// TestAbortWithSlowInFlightTasks: tasks already running when the abort
// hits must finish and be joined — Run returns only after every worker
// has exited, so no goroutines leak past it.
func TestAbortWithSlowInFlightTasks(t *testing.T) {
	before := runtime.NumGoroutine()
	for iter := 0; iter < 5; iter++ {
		g := newTestGraph()
		var slowDone atomic.Int64
		for i := 0; i < 8; i++ {
			g.task("slow", 0, func() error {
				time.Sleep(5 * time.Millisecond)
				slowDone.Add(1)
				return nil
			})
		}
		fail := g.task("fail", 100, func() error { return errors.New("boom") })
		tail := g.task("tail", 0, func() error { return errors.New("must not run") })
		g.Dep(fail, tail)
		_, err := runWithTimeout(t, g, 4, 10*time.Second)
		if err == nil || !strings.Contains(err.Error(), "boom") {
			t.Fatalf("iter %d: want boom, got %v", iter, err)
		}
		// Every slow task that started must have completed before Run
		// returned (wg.Wait joins in-flight work); the counter is stable
		// now, racing increments would trip -race here.
		_ = slowDone.Load()
	}
	// All worker goroutines must be gone; poll briefly for the runtime
	// to reap them.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}
