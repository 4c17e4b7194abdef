package serve

import (
	"hash/fnv"
	"sort"
)

// Fingerprint routing. Every problem fingerprint has a deterministic
// preference order over shards — rendezvous (highest-random-weight)
// hashing: weight(fp, shard) = FNV-64a(fp ‖ shard), shards sorted by
// descending weight. The properties the fleet leans on:
//
//   - The owner (first non-draining shard in the order) is a pure
//     function of the fingerprint and the drain set, so every router
//     decision agrees without coordination, and the keystone
//     single-flight guarantee reduces to the per-shard cache's.
//   - Draining a shard reassigns only the keys it owned; every other
//     key's owner is untouched (minimal disruption, unlike mod-N).
//   - The same order ranks replica placement (next K shards), so a
//     drained owner's traffic lands exactly where its replicas were
//     installed.

// shardWeight is fp's rendezvous weight on one shard.
func shardWeight(fp string, shard int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(fp))
	// Shard ids are small; one byte keeps the hash input canonical for
	// any realistic fleet width.
	h.Write([]byte{byte(shard)})
	return h.Sum64()
}

// rendezvous returns all shard ids ordered by descending weight for
// fp — the fingerprint's full preference order, including draining
// shards (callers filter by drain state as needed). Ties (effectively
// impossible with a 64-bit hash) break toward the lower id for
// determinism.
func (s *Server) rendezvous(fp string) []int {
	type sw struct {
		id int
		w  uint64
	}
	order := make([]sw, len(s.shards))
	for i := range s.shards {
		order[i] = sw{id: i, w: shardWeight(fp, i)}
	}
	sort.Slice(order, func(a, b int) bool {
		if order[a].w != order[b].w {
			return order[a].w > order[b].w
		}
		return order[a].id < order[b].id
	})
	ids := make([]int, len(order))
	for i, o := range order {
		ids[i] = o.id
	}
	return ids
}

// owner returns fp's owner: the first non-draining shard in rendezvous
// order. When every shard is draining (shutdown), the first shard of
// the order still serves, so the fleet never routes into a void.
func (s *Server) owner(fp string) int {
	ids := s.rendezvous(fp)
	for _, id := range ids {
		if !s.isDraining(id) {
			return id
		}
	}
	return ids[0]
}

// solveCandidates returns the shards that can serve a solve for fp,
// best first: the owner, then replica holders, ordered by their
// deterministic Retry-After estimate (an un-jittered proxy for queue
// depth) so the router prefers the least-loaded copy when the primary
// is saturated. Draining shards are skipped unless nothing else
// remains.
func (s *Server) solveCandidates(fp string) []int {
	owner := s.owner(fp)
	seen := map[int]bool{owner: true}
	cands := []int{owner}
	for _, id := range s.repl.replicaHolders(fp) {
		if !seen[id] && !s.isDraining(id) {
			seen[id] = true
			cands = append(cands, id)
		}
	}
	if len(cands) > 1 {
		// Owner first among equals: stable sort keeps the owner ahead of
		// an equally loaded replica, preserving LRU warmth on the copy
		// that actually owns the entry.
		sort.SliceStable(cands, func(a, b int) bool {
			return s.shards[cands[a]].retryAfterEstimate() < s.shards[cands[b]].retryAfterEstimate()
		})
	}
	return cands
}
