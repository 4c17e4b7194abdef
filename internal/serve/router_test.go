package serve

import "testing"

// TestOwnerPinned fixes the owner shard of eight spec fingerprints at
// two and three shards. The owner is the shard with the largest
// FNV-64a rendezvous weight, so any change to the weight function or
// the tie rule moves some of these keys and fails here. The last two
// specs are the primary problems of the factor-rank and serve-hot
// benchmark workloads, whose router sweep runs on a two-shard fleet.
func TestOwnerPinned(t *testing.T) {
	trimOff := false
	specs := []ProblemSpec{
		{N: 128, Tile: 64, Tol: 1e-7},
		{N: 192, Tile: 64, Tol: 1e-7},
		{N: 256, Tile: 64, Tol: 1e-7},
		{N: 128, Tile: 64, Tol: 1e-7, Seed: 43},
		{N: 512, Tile: 128, Tol: 1e-6, Kernel: "matern32"},
		{N: 256, Tile: 64, Tol: 1e-6, Factor: "ldlt", Augmented: true, Trim: &trimOff},
		{N: 4096, Tile: 128, Tol: 1e-6, Kernel: "gaussian", DeltaFactor: 2, Nugget: 1e-4, Seed: 42},
		{N: 4096, Tile: 256, Tol: 1e-6, Kernel: "gaussian", DeltaFactor: 2, Nugget: 1e-4, Seed: 42},
	}
	want := map[int][]int{
		2: {1, 1, 1, 0, 1, 1, 1, 0},
		3: {2, 2, 2, 0, 1, 2, 1, 2},
	}
	for shards, owners := range want {
		fl := NewFleet(FleetConfig{Shards: shards})
		for i, sp := range specs {
			fp := fleetFP(t, fl, sp)
			if got := fl.owner(fp); got != owners[i] {
				t.Errorf("%d shards: spec %d (fp %s) owned by shard %d, want %d", shards, i, fpPrefix(fp), got, owners[i])
			}
		}
	}
}
