package serve

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tlrchol/internal/obs"
	"tlrchol/internal/tilemat"
)

func testSpec(n int) ProblemSpec {
	sp := ProblemSpec{N: n, Tile: 64, Tol: 1e-7}
	if err := sp.normalize(0); err != nil {
		panic(err)
	}
	return sp
}

// TestFingerprintIdentity pins the cache-key contract: identical specs
// collide, any factor-changing knob separates.
func TestFingerprintIdentity(t *testing.T) {
	sp := testSpec(256)
	fp1 := Fingerprint(sp, sp.points())
	fp2 := Fingerprint(sp, sp.points())
	if fp1 != fp2 {
		t.Fatalf("same spec must fingerprint identically: %s vs %s", fp1, fp2)
	}
	vary := []func(*ProblemSpec){
		func(s *ProblemSpec) { s.Tol = 1e-6 },
		func(s *ProblemSpec) { s.Tile = 32 },
		func(s *ProblemSpec) { s.MaxRank = 8 },
		func(s *ProblemSpec) { s.Kernel = "matern32" },
		func(s *ProblemSpec) { s.Seed = 7 },
		func(s *ProblemSpec) { f := false; s.Trim = &f },
	}
	for i, mut := range vary {
		s2 := testSpec(256)
		mut(&s2)
		if fp := Fingerprint(s2, s2.points()); fp == fp1 {
			t.Fatalf("variation %d must change the fingerprint", i)
		}
	}
}

func dummyFactor(fp string, bytes int64) *Factor {
	return &Factor{FP: fp, L: tilemat.New(64, 64), Op: tilemat.New(64, 64), SizeBytes: bytes}
}

// TestCacheSingleflight is the dedup contract: N concurrent Gets for
// one fingerprint run the build exactly once.
func TestCacheSingleflight(t *testing.T) {
	c := NewFactorCache(1<<20, obs.NewRegistry(4))
	var builds atomic.Int32
	const workers = 8
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f, _, err := c.Get(context.Background(), "fp", func() (*Factor, error) {
				builds.Add(1)
				time.Sleep(20 * time.Millisecond) // widen the race window
				return dummyFactor("fp", 100), nil
			})
			if err != nil || f == nil {
				t.Errorf("get failed: %v", err)
			}
		}()
	}
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("want exactly 1 build, got %d", n)
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits+st.Waits != workers-1 {
		t.Fatalf("stats: %+v", st)
	}
	if _, cached, _ := c.Get(context.Background(), "fp", nil); !cached {
		t.Fatal("second get must hit without building")
	}
}

// TestCacheEviction checks LRU order under the byte budget and the
// keep-at-least-one rule.
func TestCacheEviction(t *testing.T) {
	c := NewFactorCache(250, obs.NewRegistry(4))
	get := func(fp string, bytes int64) {
		t.Helper()
		if _, _, err := c.Get(context.Background(), fp, func() (*Factor, error) {
			return dummyFactor(fp, bytes), nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	get("a", 100)
	get("b", 100)
	if _, ok := c.Lookup("a"); !ok { // touch a: b becomes LRU
		t.Fatal("a must be cached")
	}
	get("c", 100) // 300 > 250: evicts b
	if _, ok := c.Lookup("b"); ok {
		t.Fatal("b should have been evicted")
	}
	if _, ok := c.Lookup("a"); !ok {
		t.Fatal("a (recently used) must survive")
	}
	get("huge", 1000) // over budget alone: evicts a and c, keeps itself
	if _, ok := c.Lookup("huge"); !ok {
		t.Fatal("an over-budget factor must still cache (keep-one rule)")
	}
	st := c.Stats()
	if st.Entries != 1 || st.Bytes != 1000 || st.Evictions != 3 {
		t.Fatalf("stats after eviction: %+v", st)
	}
}

// TestCacheBuildError checks failed builds propagate to all waiters
// and are not cached.
func TestCacheBuildError(t *testing.T) {
	c := NewFactorCache(1<<20, obs.NewRegistry(4))
	wantErr := context.DeadlineExceeded
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, err := c.Get(context.Background(), "bad", func() (*Factor, error) {
				time.Sleep(10 * time.Millisecond)
				return nil, wantErr
			})
			if err != wantErr {
				t.Errorf("want build error, got %v", err)
			}
		}()
	}
	wg.Wait()
	if _, ok := c.Lookup("bad"); ok {
		t.Fatal("failed build must not be cached")
	}
	// A later Get retries the build.
	f, cached, err := c.Get(context.Background(), "bad", func() (*Factor, error) {
		return dummyFactor("bad", 10), nil
	})
	if err != nil || cached || f == nil {
		t.Fatalf("retry after failure: f=%v cached=%v err=%v", f, cached, err)
	}
}

// TestCacheBuildPanic: a build that panics must not poison its entry.
// The builder and every waiter of that flight get an error (which the
// service answers with 500), and the next Get rebuilds instead of
// blocking on a ready channel that never closes.
func TestCacheBuildPanic(t *testing.T) {
	c := NewFactorCache(1<<20, obs.NewRegistry(4))
	release := make(chan struct{})
	building := make(chan struct{})
	var leaderErr error
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		defer func() {
			if p := recover(); p != nil {
				leaderErr = fmt.Errorf("panic escaped Get: %v", p)
			}
		}()
		_, _, leaderErr = c.Get(context.Background(), "boom", func() (*Factor, error) {
			close(building)
			<-release
			panic("kernel blew up")
		})
	}()
	<-building
	waiterErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_, _, err := c.Get(ctx, "boom", func() (*Factor, error) { return dummyFactor("boom", 10), nil })
		waiterErr <- err
	}()
	for c.Stats().Waits == 0 { // the waiter is parked on the flight
		time.Sleep(time.Millisecond)
	}
	close(release)
	<-leaderDone
	for _, err := range []error{leaderErr, <-waiterErr} {
		if err == nil || !strings.Contains(err.Error(), "kernel blew up") || strings.Contains(err.Error(), "escaped") {
			t.Fatalf("want the build's panic as an error from Get, got %v", err)
		}
		if code := factorAPIError(err).code; code != http.StatusInternalServerError {
			t.Fatalf("a panicked build must answer 500, got %d", code)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	f, cached, err := c.Get(ctx, "boom", func() (*Factor, error) { return dummyFactor("boom", 10), nil })
	if err != nil || cached || f == nil {
		t.Fatalf("Get after a panicked build must rebuild: f=%v cached=%v err=%v", f, cached, err)
	}
}
