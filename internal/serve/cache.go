package serve

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"tlrchol/internal/core"
	"tlrchol/internal/obs"
	"tlrchol/internal/rbf"
	"tlrchol/internal/tilemat"
)

// Factor is a cached factorization: the Cholesky factor itself plus
// the unfactorized compressed operator, which solves need for residual
// evaluation and iterative refinement. Both matrices are immutable
// once the entry is published (solves never write into the factor),
// so Op's off-diagonal tiles can be shared with the operators of the
// same spec's nugget variants (shard.operator).
//
// Lifetime is reference-counted: the owning cache holds one reference
// while the entry is resident, and every in-flight solve pins one between acquisition (Get/Lookup) and
// completion. Eviction therefore never frees a factor out from under a
// running solve — it only drops the cache's reference, and the actual
// release happens when the last pin goes away.
type Factor struct {
	FP   string
	Spec ProblemSpec
	// L is the factorized tile matrix.
	L *tilemat.Matrix
	// Op is the unfactorized compressed operator (for TLROperator).
	Op *tilemat.Matrix
	// Plan is the precomputed substitution schedule for L, built under
	// the same single-flight as the factor and evicted with it. Every
	// solve against this factor runs through it.
	Plan *core.SolvePlan
	// SizeBytes charges both matrices and the plan against the cache
	// budget. Off-diagonal tiles that Op shares with other factors'
	// operators are charged to each of them: an upper bound on the
	// memory the entry keeps alive.
	SizeBytes int64
	// FactorStats summarizes the factorization that produced L.
	FactorStats FactorStats

	// opKey is the spec's operatorKey, prob the KD-ordered problem Op
	// was assembled from and delta its shape parameter: what a build of
	// the same spec with another nugget needs to reuse Op's off-diagonal
	// tiles (shard.operator). Not charged to SizeBytes.
	opKey string
	prob  *rbf.Problem
	delta float64

	// refs counts live references (cache residency + in-flight pins). managed marks cache-owned factors: only those
	// release their payload when the count reaches zero, so test
	// literals that never enter a cache stay inert.
	refs    atomic.Int64
	managed bool
	freed   atomic.Bool
}

// Retain pins the factor. Callers must hold an existing reference (or
// the lock of the structure that holds one) — use tryRetain when the
// factor may already have been released.
func (f *Factor) Retain() { f.refs.Add(1) }

// tryRetain pins the factor unless its last reference is already gone.
func (f *Factor) tryRetain() bool {
	for {
		n := f.refs.Load()
		if n <= 0 {
			return false
		}
		if f.refs.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// Release drops one reference. The last release of a cache-managed
// factor frees its payload; over-release is a programming error and
// panics rather than silently corrupting a live solve.
func (f *Factor) Release() {
	switch n := f.refs.Add(-1); {
	case n == 0:
		f.free()
	case n < 0:
		panic("serve: Factor released more times than retained")
	}
}

// free drops the payload once no reference can reach it. Nil-ing the
// fields is deliberate: a refcounting bug turns into a loud nil
// dereference (or a race-detector report) in the eviction-under-solve
// test instead of a silent stale read.
func (f *Factor) free() {
	if !f.managed {
		return
	}
	f.freed.Store(true)
	f.L, f.Op, f.Plan, f.prob = nil, nil, nil, nil
}

// FactorStats is the per-factorization report returned to clients.
type FactorStats struct {
	ElapsedMS     float64 `json:"elapsed_ms"`
	CompressMS    float64 `json:"compress_ms"`
	Density       float64 `json:"density"`
	MaxRank       int     `json:"max_rank"`
	TasksTrimmed  int     `json:"tasks_trimmed"`
	TasksExecuted int     `json:"tasks_executed"`
	// Solve-plan summary: build time, level-set depth (forward sweep)
	// and the widest level across both sweeps.
	PlanBuildMS  float64 `json:"plan_build_ms"`
	PlanLevels   int     `json:"plan_levels"`
	PlanMaxWidth int     `json:"plan_max_width"`
}

// cacheEntry is one slot of the factor cache. ready is closed exactly
// once, after f/err are set; every reader waits on it first, which
// also publishes the fields (channel-close happens-before receive).
type cacheEntry struct {
	f     *Factor
	err   error
	ready chan struct{}
	// elem is the entry's LRU position; nil while the build is in
	// flight (in-flight builds are never evicted).
	elem *list.Element
}

// CacheStats is the read-only view reported by /v1/stats.
type CacheStats struct {
	Entries   int    `json:"entries"`
	Bytes     int64  `json:"bytes"`
	Budget    int64  `json:"budget_bytes"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Waits     uint64 `json:"singleflight_waits"`
	Evictions uint64 `json:"evictions"`
}

// FactorCache maps problem fingerprints to factorizations with
// single-flight build deduplication and LRU eviction under a byte
// budget. The single-flight property is the service's core economy:
// when a burst of identical requests arrives, exactly one factorization
// runs and every other request waits on its ready channel.
//
// Factors returned by Get and Lookup are pinned for the caller, who
// must Release them when the solve completes.
type FactorCache struct {
	mu      sync.Mutex
	budget  int64
	used    int64
	entries map[string]*cacheEntry
	lru     *list.List // of fingerprint strings, front = most recent

	hits, misses, waits, evictions *obs.Counter
	bytesGauge, entriesGauge       *obs.Gauge
}

// NewFactorCache returns a cache holding at most budget bytes of
// factors (≤ 0 means 1 GiB), reporting to reg.
func NewFactorCache(budget int64, reg *obs.Registry) *FactorCache {
	if budget <= 0 {
		budget = 1 << 30
	}
	return &FactorCache{
		budget:       budget,
		entries:      map[string]*cacheEntry{},
		lru:          list.New(),
		hits:         reg.Counter("serve.cache.hits"),
		misses:       reg.Counter("serve.cache.misses"),
		waits:        reg.Counter("serve.cache.waits"),
		evictions:    reg.Counter("serve.cache.evictions"),
		bytesGauge:   reg.Gauge("serve.cache.bytes"),
		entriesGauge: reg.Gauge("serve.cache.entries"),
	}
}

// Get returns the factor for fp, building it with build on a miss.
// Concurrent calls for the same fp share one build: the first caller
// runs build, the rest block on the entry's ready channel (or their
// own ctx). cached reports whether this caller avoided running build.
// A failed build is not cached; the error propagates to every waiter
// of that flight and the next Get retries. A build that panics fails
// the same way, with an error wrapping errBuildPanicked. The returned
// factor is pinned for the caller (Release when done with it).
func (c *FactorCache) Get(ctx context.Context, fp string, build func() (*Factor, error)) (*Factor, bool, error) {
	for {
		c.mu.Lock()
		if e, ok := c.entries[fp]; ok {
			if e.elem != nil {
				// Resident: pin under the lock, where the cache's own
				// reference is guaranteed live.
				c.lru.MoveToFront(e.elem)
				e.f.Retain()
				c.mu.Unlock()
				c.hits.Add(0, 1)
				return e.f, true, nil
			}
			c.mu.Unlock()
			c.waits.Add(0, 1)
			select {
			case <-e.ready:
			case <-ctx.Done():
				return nil, false, ctx.Err()
			}
			if e.err != nil {
				return nil, false, e.err
			}
			// The build published, but heavy churn may already have
			// evicted (and freed) it before this waiter pinned. That
			// narrow window fails tryRetain; loop and rebuild.
			if e.f.tryRetain() {
				return e.f, true, nil
			}
			continue
		}
		e := &cacheEntry{ready: make(chan struct{})}
		c.entries[fp] = e
		c.mu.Unlock()
		c.misses.Add(0, 1)

		f, err := runBuild(build)

		var evicted []*Factor
		c.mu.Lock()
		if err != nil {
			delete(c.entries, fp)
		} else {
			f.managed = true
			f.refs.Store(1) // the cache's reference
			f.Retain()      // the building caller's pin
			e.f = f
			e.elem = c.lru.PushFront(fp)
			c.used += f.SizeBytes
			evicted = c.evictLocked()
		}
		c.updateGaugesLocked()
		c.mu.Unlock()
		e.err = err
		close(e.ready)
		// The cache's references to evicted factors go outside the
		// lock. A factor still pinned by an in-flight solve survives
		// until that solve releases it.
		for _, ev := range evicted {
			ev.Release()
		}
		if err != nil {
			return nil, false, err
		}
		return f, false, nil
	}
}

// errBuildPanicked marks a factor build that panicked: a bug, not a bad
// request, so the service answers 500.
var errBuildPanicked = errors.New("factor build panicked")

// runBuild calls build and turns a panic into an error, so that the
// flight's entry is still removed and its waiters released: a panic
// that escaped Get would leave the entry in the map with ready never
// closed, and every later Get for that fingerprint would block.
func runBuild(build func() (*Factor, error)) (f *Factor, err error) {
	defer func() {
		if p := recover(); p != nil {
			f, err = nil, fmt.Errorf("%w: %v", errBuildPanicked, p)
		}
	}()
	return build()
}

// Lookup returns a completed factor without building, pinned for the
// caller, for requests that name a fingerprint directly. In-flight
// builds count as absent (a solve with no spec cannot wait on a build
// it could not start).
func (c *FactorCache) Lookup(fp string) (*Factor, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[fp]
	if !ok || e.elem == nil {
		return nil, false
	}
	c.lru.MoveToFront(e.elem)
	e.f.Retain()
	return e.f, true
}

// lookupOperator returns a resident factor whose operator key is key,
// most recently used first, pinned for the caller, or nil. It scans
// every resident entry under the lock; in-flight builds are skipped.
func (c *FactorCache) lookupOperator(key string) *Factor {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.lru.Front(); el != nil; el = el.Next() {
		if f := c.entries[el.Value.(string)].f; f.opKey == key {
			f.Retain()
			return f
		}
	}
	return nil
}

// evictLocked removes least-recently-used completed entries until the
// budget is met, always keeping at least one so a single factor larger
// than the budget still caches (it would otherwise thrash forever).
// The evicted factors' references are NOT dropped here: the caller
// must release them after releasing the lock.
func (c *FactorCache) evictLocked() []*Factor {
	var out []*Factor
	for c.used > c.budget && c.lru.Len() > 1 {
		back := c.lru.Back()
		fp := back.Value.(string)
		e := c.entries[fp]
		c.lru.Remove(back)
		delete(c.entries, fp)
		c.used -= e.f.SizeBytes
		c.evictions.Add(0, 1)
		out = append(out, e.f)
	}
	return out
}

func (c *FactorCache) updateGaugesLocked() {
	c.bytesGauge.Set(c.used)
	c.entriesGauge.Set(int64(c.lru.Len()))
}

// Stats reports the cache's current occupancy and lifetime counters.
func (c *FactorCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Entries:   c.lru.Len(),
		Bytes:     c.used,
		Budget:    c.budget,
		Hits:      c.hits.Value(),
		Misses:    c.misses.Value(),
		Waits:     c.waits.Value(),
		Evictions: c.evictions.Value(),
	}
}
