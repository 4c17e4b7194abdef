package serve

import (
	"sort"
	"sync"
	"time"

	"tlrchol/internal/obs"
)

// Hot-factor replication. The rendezvous routing in router.go gives
// every fingerprint exactly one owner shard, which is correct for
// single-flight economy but turns a popular problem into a hot spot:
// all its solves land on one shard while the rest idle. The replicator
// watches per-fingerprint solve rates at the router and, past a
// threshold, copies the factor's in-memory handle onto the next K
// shards of the fingerprint's rendezvous order. Replica holders serve
// solves entirely locally (no owner hop); the router spreads a hot
// key's solves across owner + replicas by load.
//
// Replication is of handles, not bytes: shards share one process, so a
// "replica" is an additional reference to the owner's Factor — the
// exact economics of a multi-node fleet (replicas pin memory, eviction
// must be coordinated) with none of the serialization. Eviction stays
// owner-coordinated: when the owner's cache evicts a fingerprint, its
// onEvict hook drops every replica before the owner's reference goes
// away, so a factor never lingers as an orphaned replica after the
// owner has moved on.

// ReplicaStats is a replica-store view in /v1/stats: per shard, and
// summed over the shards.
type ReplicaStats struct {
	Factors int    `json:"factors"`
	Hits    uint64 `json:"hits"`
}

// replicaStore holds the factors one shard serves as a non-owner.
// Factors are pinned (one reference per store) on install and released
// on remove.
type replicaStore struct {
	mu      sync.RWMutex
	factors map[string]*Factor

	hits    *obs.Counter
	entries *obs.Gauge
}

func newReplicaStore(reg *obs.Registry) *replicaStore {
	return &replicaStore{
		factors: map[string]*Factor{},
		hits:    reg.Counter("serve.replica.hits"),
		entries: reg.Gauge("serve.replica.factors"),
	}
}

// lookup returns the replica pinned for the caller.
func (r *replicaStore) lookup(fp string) (*Factor, bool) {
	r.mu.RLock()
	f, ok := r.factors[fp]
	if ok {
		// The store's own reference is live while the entry is present,
		// so a plain Retain is safe under the read lock.
		f.Retain()
	}
	r.mu.RUnlock()
	if ok {
		r.hits.Add(0, 1)
	}
	return f, ok
}

// install adds a replica (no-op if already held), taking one reference.
func (r *replicaStore) install(fp string, f *Factor) {
	r.mu.Lock()
	if _, ok := r.factors[fp]; ok {
		r.mu.Unlock()
		return
	}
	f.Retain()
	r.factors[fp] = f
	r.entries.Set(int64(len(r.factors)))
	r.mu.Unlock()
}

// remove drops a replica if held, releasing its reference outside the
// lock.
func (r *replicaStore) remove(fp string) {
	r.mu.Lock()
	f, ok := r.factors[fp]
	if ok {
		delete(r.factors, fp)
		r.entries.Set(int64(len(r.factors)))
	}
	r.mu.Unlock()
	if ok {
		f.Release()
	}
}

func (r *replicaStore) stats() ReplicaStats {
	r.mu.RLock()
	n := len(r.factors)
	r.mu.RUnlock()
	return ReplicaStats{Factors: n, Hits: r.hits.Value()}
}

// hotness is one fingerprint's solve-rate window.
type hotness struct {
	count int
	since time.Time
}

// replicator tracks fingerprint popularity at the router and
// promotes hot factors to replicas. All decisions happen under one
// mutex ordered strictly after any shard cache's (the eviction hook
// runs outside the cache lock).
type replicator struct {
	srv       *Server
	k         int           // replicas per hot fingerprint
	threshold int           // solves within window that trigger promotion
	window    time.Duration // popularity decay window

	mu      sync.Mutex
	hot     map[string]*hotness
	holders map[string][]int // fp → shard ids currently holding a replica

	promotions *obs.Counter
	drops      *obs.Counter
	errs       *obs.Counter
}

func newReplicator(srv *Server, k, threshold int, window time.Duration, reg *obs.Registry) *replicator {
	return &replicator{
		srv:        srv,
		k:          k,
		threshold:  threshold,
		window:     window,
		hot:        map[string]*hotness{},
		holders:    map[string][]int{},
		promotions: reg.Counter("fleet.replicate.promotions"),
		drops:      reg.Counter("fleet.replicate.drops"),
		errs:       reg.Counter("fleet.replicate.errors"),
	}
}

// noteSolve records one solve for fp owned by owner, promoting when the
// windowed rate crosses the threshold. Called by the router after each
// successful solve.
func (r *replicator) noteSolve(fp string, owner int) {
	if r.k <= 0 {
		return
	}
	r.mu.Lock()
	h := r.hot[fp]
	now := time.Now()
	if h == nil || now.Sub(h.since) > r.window {
		h = &hotness{since: now}
		r.hot[fp] = h
	}
	h.count++
	promote := h.count >= r.threshold && len(r.holders[fp]) < r.k
	r.mu.Unlock()
	if promote {
		r.promote(fp, owner)
	}
}

// promote copies fp's factor handle from its owner to the next k
// non-draining shards in rendezvous order. Idempotent: shards already
// holding the replica are skipped, and holder bookkeeping dedupes under
// the replicator lock.
func (r *replicator) promote(fp string, owner int) {
	srv := r.srv
	f, ok := srv.shards[owner].cache.Lookup(fp)
	if !ok {
		// Evicted between the solve and the promotion — nothing to copy.
		r.errs.Add(0, 1)
		return
	}
	defer f.Release()

	targets := make([]int, 0, r.k)
	for _, id := range srv.rendezvous(fp) {
		if id == owner || srv.isDraining(id) {
			continue
		}
		targets = append(targets, id)
		if len(targets) == r.k {
			break
		}
	}

	r.mu.Lock()
	held := map[int]bool{}
	for _, id := range r.holders[fp] {
		held[id] = true
	}
	fresh := make([]int, 0, len(targets))
	for _, id := range targets {
		if !held[id] {
			fresh = append(fresh, id)
			r.holders[fp] = append(r.holders[fp], id)
		}
	}
	sort.Ints(r.holders[fp])
	r.mu.Unlock()

	for _, id := range fresh {
		srv.shards[id].replicas.install(fp, f)
		r.promotions.Add(0, 1)
	}
}

// dropped is the owner cache's eviction hook: tear down every replica
// of the evicted fingerprint so no shard serves a factor its owner has
// forgotten. Runs outside the owner's cache lock.
func (r *replicator) dropped(fp string) {
	r.mu.Lock()
	holders := r.holders[fp]
	delete(r.holders, fp)
	delete(r.hot, fp)
	r.mu.Unlock()
	for _, id := range holders {
		r.srv.shards[id].replicas.remove(fp)
		r.drops.Add(0, 1)
	}
}

// replicaHolders returns the shard ids currently holding fp (sorted),
// for the router's solve fan-out.
func (r *replicator) replicaHolders(fp string) []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	holders := r.holders[fp]
	out := make([]int, len(holders))
	copy(out, holders)
	return out
}

// activeReplicas counts currently held (fp, shard) replica pairs.
func (r *replicator) activeReplicas() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, h := range r.holders {
		n += len(h)
	}
	return n
}
