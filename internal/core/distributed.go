package core

import (
	"fmt"

	"tlrchol/internal/cluster"
	"tlrchol/internal/dist"
	"tlrchol/internal/obs"
	"tlrchol/internal/tilemat"
	"tlrchol/internal/tlr"
	"tlrchol/internal/trim"
)

// DistOptions configures a distributed factorization on the virtual
// cluster (package cluster): the same numerical TLR Cholesky as
// Factorize, executed across Nodes private address spaces under the
// given Remap with explicit message passing.
type DistOptions struct {
	// Tol / MaxRank / Trim as in Options.
	Tol     float64
	MaxRank int
	Trim    bool
	// Nodes is the virtual-node count; must equal Remap.Size().
	Nodes int
	// WorkersPerNode sizes each node's worker pool (≤ 0: 1).
	WorkersPerNode int
	// Remap pairs the data distribution with the execution
	// distribution (nil Exec: owner-computes).
	Remap dist.Remap
	// Tracer, if non-nil, receives compute spans per node worker plus
	// comm spans on one dedicated track per node.
	Tracer *obs.Tracer
	// Comm, if non-nil, accumulates per-node message/byte counters.
	Comm *obs.CommTracker
	// Metrics selects the kernel-counter registry (nil: obs.Default).
	Metrics *obs.Registry
}

// DistReport describes a distributed factorization.
type DistReport struct {
	summary
	// Cluster carries the engine statistics, including the comm
	// snapshot when DistOptions.Comm was set.
	Cluster cluster.Stats
}

// FactorizeDistributed computes the TLR Cholesky A = L·Lᵀ on the
// virtual cluster: tiles are scattered to their owner nodes, the
// (possibly trimmed) walk executes at the Remap's executing ranks with
// tiles moving only as messages, and the factor is gathered back into
// m. The result is tile-for-tile identical to the shared-memory
// Factorize: the graph is the one BuildGraph builds (without nested
// POTRFs) and the task bodies are the same, so every tile's write chain
// is serialized in the same order on a single node, and the kernels are
// deterministic. Task bodies read and write through the executing
// node's private store (cluster.Ctx) instead of the shared tilemat.
func FactorizeDistributed(m *tilemat.Matrix, opts DistOptions) (DistReport, error) {
	var rep DistReport
	if opts.Tol <= 0 {
		return rep, fmt.Errorf("core: DistOptions.Tol must be positive, got %g", opts.Tol)
	}
	sum, err := factorize(nil, m, tilemat.FormCholesky, opts.Trim, opts.Metrics, func(s trim.Structure) error {
		g, nodes, f := buildGraph(m, s, Options{Tol: opts.Tol, MaxRank: opts.MaxRank, Tracer: opts.Tracer, Metrics: opts.Metrics},
			tilemat.FormCholesky)
		writes := func(id int) cluster.TileID { return cluster.TileID{M: nodes[id].t.M, N: nodes[id].t.N} }
		exec := func(id int, c *cluster.Ctx) error { return f.run(nodes[id].t, c, c.Shard(), g.TaskInfo(id)) }
		seed := make(map[cluster.TileID]*tlr.Tile, m.NT*(m.NT+1)/2)
		for i := 0; i < m.NT; i++ {
			for j := 0; j <= i; j++ {
				seed[cluster.TileID{M: i, N: j}] = m.At(i, j)
			}
		}
		st, out, err := cluster.Run(g, writes, exec, seed, cluster.Config{
			Nodes: opts.Nodes, WorkersPerNode: opts.WorkersPerNode,
			Remap: opts.Remap, Tracer: opts.Tracer, Comm: opts.Comm,
		})
		rep.Cluster = st
		if err != nil {
			return err
		}
		for id, t := range out {
			m.Set(id.M, id.N, t)
		}
		return nil
	})
	rep.summary = sum
	return rep, err
}
