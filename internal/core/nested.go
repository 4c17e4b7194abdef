package core

import (
	"tlrchol/internal/dense"
	"tlrchol/internal/runtime"
	"tlrchol/internal/trim"
)

// node is one task of a factorization graph: walk task t itself, or
// with NestedDiag a sub-tile kernel of t's nested POTRF — itself a walk
// task over the tile's sub-blocks, named and declared the way tile
// tasks are one level up — or the join that closes it.
type node struct {
	t, sub trim.Task
	kind   int8 // walkTask, subTask or joinTask
}

const (
	walkTask = iota
	subTask
	joinTask
)

// addNestedPotrf expands the Cholesky factorization of walk task t's
// dense diagonal tile (rows×rows) into a sub-DAG of POTRF/TRSM/SYRK/GEMM
// tasks on subB×subB blocks inside the same graph — the nested
// parallelism the paper inherits from Lorapo: the diagonal tiles carry
// most of the critical-path flops, and decomposing them keeps all cores
// busy while the panel is sequential at the tile level. pred (if ≥ 0)
// gates every source sub-task; the returned join stands in for the
// tile-level POTRF in the outer dependency structure.
func addNestedPotrf(g *runtime.Graph, nodes *[]node, t trim.Task, rows, subB int, pred int32) int32 {
	nb := (rows + subB - 1) / subB
	lastWriter := make([]int32, nb*nb) // of sub-block (m,n), at m*nb+n
	for i := range lastWriter {
		lastWriter[i] = -1
	}
	// add appends the sub-task writing block (m,n), after deps and the
	// block's previous writer (pred for its first write).
	add := func(c trim.Class, k, m, n int, deps ...int32) int32 {
		*nodes = append(*nodes, node{t: t, sub: trim.Task{Class: c, K: k, M: m, N: n}, kind: subTask})
		id := g.Add(t.Prio)
		if lw := lastWriter[m*nb+n]; lw >= 0 {
			deps = append(deps, lw)
		} else if pred >= 0 {
			deps = append(deps, pred)
		}
		for _, d := range deps {
			g.Dep(d, id)
		}
		lastWriter[m*nb+n] = id
		return id
	}
	for k := 0; k < nb; k++ {
		pt := add(trim.Diag, k, k, k)
		for m := k + 1; m < nb; m++ {
			add(trim.Panel, k, m, k, pt)
		}
		for m := k + 1; m < nb; m++ {
			add(trim.DiagUpdate, k, m, m, lastWriter[m*nb+k])
			for n := k + 1; n < m; n++ {
				add(trim.Update, k, m, n, lastWriter[m*nb+k], lastWriter[n*nb+k])
			}
		}
	}
	*nodes = append(*nodes, node{t: t, kind: joinTask})
	join := g.Add(t.Prio)
	for _, lw := range lastWriter { // distinct: each task writes one block
		if lw >= 0 {
			g.Dep(lw, join)
		}
	}
	if nb == 0 && pred >= 0 {
		g.Dep(pred, join) // degenerate tile
	}
	return join
}

// runNested executes a sub-tile kernel on the diagonal tile d.
func (nd *node) runNested(d *dense.Matrix, subB int) error {
	view := func(i, j int) *dense.Matrix {
		return d.View(i*subB, j*subB, min(subB, d.Rows-i*subB), min(subB, d.Rows-j*subB))
	}
	k, m, n := nd.sub.K, nd.sub.M, nd.sub.N
	switch nd.sub.Class {
	case trim.Diag:
		return dense.Potrf(view(k, k))
	case trim.Panel:
		dense.Trsm(dense.Right, dense.Lower, dense.Trans, dense.NonUnit, 1, view(k, k), view(m, k))
	case trim.DiagUpdate:
		dense.Syrk(dense.NoTrans, -1, view(m, k), 1, view(m, m))
	case trim.Update:
		dense.Gemm(dense.NoTrans, dense.Trans, -1, view(m, k), view(n, k), 1, view(m, n))
	}
	return nil
}

// label names the node: its walk task's label, followed for a sub-tile
// task by the sub-task's (/potrf(k), /trsm(k,m), …) and for the join by
// /done.
func (nd *node) label(f factorization) string {
	switch nd.kind {
	case subTask:
		return f.label(nd.t) + "/" + f.label(nd.sub)
	case joinTask:
		return f.label(nd.t) + "/done"
	}
	return f.label(nd.t)
}

// accesses declares the node's data accesses. The join stands in as the
// writer of the diagonal tile; sub-tile tasks declare sub-blocks under a
// per-tile namespace (the tile label), so the hazard replay of package
// verify checks the sub-DAG without colliding with the tile-level keys.
func (nd *node) accesses(f factorization) []runtime.Access {
	if nd.kind != subTask {
		return f.accesses(nd.t, func(m, n int) any { return tileKey{m, n} })
	}
	type subKey struct {
		tile string
		i, j int
	}
	tile := f.label(nd.t)
	return f.accesses(nd.sub, func(m, n int) any { return subKey{tile, m, n} })
}
