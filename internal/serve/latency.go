package serve

import (
	"sort"
	"sync"
)

// ring keeps the most recent samples of one latency series and a
// lifetime count. A fixed window bounds memory for a long-lived server
// while staying responsive to workload shifts; the histograms in the
// metrics registry keep the lifetime view. Two series use it: the
// substitution-only latencies of each shard (the time inside the
// triangular sweeps, excluding cache waits and batcher windows) and the
// front end's end-to-end request breakdowns.
type ring[T any] struct {
	mu    sync.Mutex
	buf   []T
	next  int
	count uint64
}

// newRing returns a ring over the last size samples (≤ 0 means 1024).
func newRing[T any](size int) *ring[T] {
	if size <= 0 {
		size = 1024
	}
	return &ring[T]{buf: make([]T, 0, size)}
}

// Record adds one sample.
func (l *ring[T]) Record(v T) {
	l.mu.Lock()
	if len(l.buf) < cap(l.buf) {
		l.buf = append(l.buf, v)
	} else {
		l.buf[l.next] = v
	}
	l.next = (l.next + 1) % cap(l.buf)
	l.count++
	l.mu.Unlock()
}

// window appends the ring's current samples to dst and returns it with
// the lifetime sample count.
func (l *ring[T]) window(dst []T) ([]T, uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append(dst, l.buf...), l.count
}

// nearestRanks sorts samples by less and returns the nearest-rank
// p50, p95 and p99. samples must not be empty.
func nearestRanks[T any](samples []T, less func(a, b T) bool) (p50, p95, p99 T) {
	sort.Slice(samples, func(i, j int) bool { return less(samples[i], samples[j]) })
	rank := func(p float64) T {
		i := int(p*float64(len(samples))+0.5) - 1
		return samples[max(0, min(i, len(samples)-1))]
	}
	return rank(0.50), rank(0.95), rank(0.99)
}

// SolveLatencyStats is the /v1/stats view of recent solve-only latency.
type SolveLatencyStats struct {
	// Count is the lifetime number of recorded solves; the percentiles
	// cover only the ring windows (the most recent samples).
	Count uint64  `json:"count"`
	P50MS float64 `json:"p50_ms"`
	P95MS float64 `json:"p95_ms"`
	P99MS float64 `json:"p99_ms"`
}

// solveLatencyStats reports percentiles over the union of the rings'
// windows.
func solveLatencyStats(rings ...*ring[float64]) SolveLatencyStats {
	var (
		all []float64
		out SolveLatencyStats
	)
	for _, r := range rings {
		var n uint64
		all, n = r.window(all)
		out.Count += n
	}
	if len(all) > 0 {
		out.P50MS, out.P95MS, out.P99MS = nearestRanks(all, func(a, b float64) bool { return a < b })
	}
	return out
}

// RequestLatencyStats is the /v1/stats view of recent end-to-end
// request latency. Each percentile row is the breakdown of the actual
// request at that rank (carrying its trace id, so a spiking p99 leads
// straight to /v1/trace/<id>), not an aggregate of components: averages
// of phases do not sum to percentiles of totals.
type RequestLatencyStats struct {
	Count uint64      `json:"count"`
	P50   BreakdownMS `json:"p50"`
	P95   BreakdownMS `json:"p95"`
	P99   BreakdownMS `json:"p99"`
}

// requestLatencyStats ranks the ring's breakdowns by end-to-end time.
func requestLatencyStats(r *ring[BreakdownMS]) RequestLatencyStats {
	all, n := r.window(nil)
	out := RequestLatencyStats{Count: n}
	if len(all) > 0 {
		out.P50, out.P95, out.P99 = nearestRanks(all, func(a, b BreakdownMS) bool { return a.E2EMS < b.E2EMS })
	}
	return out
}
