package serve

// Fingerprint routing. Every problem fingerprint has one owner shard:
// the shard with the largest rendezvous (highest-random-weight) weight
// weight(fp, shard) = FNV-64a(fp ‖ byte(shard)), ties going to the lower
// id. The owner is a pure function of the fingerprint and the shard
// count, so every router decision agrees without coordination, and the
// keystone single-flight guarantee reduces to the per-shard cache's.

// FNV-64a parameters (hash/fnv).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// owner returns fp's owner shard. With one shard it is 0 and nothing is
// hashed; otherwise fp is hashed once and each shard's weight mixes its
// id byte into that prefix.
func (s *Server) owner(fp string) int {
	if len(s.shards) == 1 {
		return 0
	}
	prefix := uint64(fnvOffset64)
	for i := 0; i < len(fp); i++ {
		prefix = (prefix ^ uint64(fp[i])) * fnvPrime64
	}
	best, bestW := 0, uint64(0)
	for id := range s.shards {
		// Shard ids are small; one byte keeps the hash input canonical
		// for any realistic fleet width.
		if w := (prefix ^ uint64(byte(id))) * fnvPrime64; id == 0 || w > bestW {
			best, bestW = id, w
		}
	}
	return best
}
