package core

import (
	"fmt"

	"tlrchol/internal/dense"
	"tlrchol/internal/obs"
	"tlrchol/internal/runtime"
	"tlrchol/internal/tilemat"
	"tlrchol/internal/tlr"
	"tlrchol/internal/trim"
)

// kernels is one factorization form: its four tile kernels and the
// instr class each records into, indexed by trim.Class. The Cholesky
// kernels take no diagonal weight; the LDLᵀ updates read the factored
// diagonal tile (K,K) for D (readsDiag).
type kernels struct {
	class      [4]int
	diag       func(d *dense.Matrix) error
	panel      func(ld *dense.Matrix, a *tlr.Tile)
	diagUpdate func(a *tlr.Tile, ld, c *dense.Matrix)
	update     func(a, b *tlr.Tile, ld *dense.Matrix, c *tlr.Tile, cfg tlr.GemmConfig) *tlr.Tile
	readsDiag  bool
}

var forms = [...]kernels{
	tilemat.FormCholesky: {
		class: [4]int{cPotrf, cTrsm, cSyrk, cGemm},
		diag:  dense.Potrf, panel: tlr.Trsm,
		diagUpdate: func(a *tlr.Tile, _, c *dense.Matrix) { tlr.Syrk(a, c) },
		update: func(a, b *tlr.Tile, _ *dense.Matrix, c *tlr.Tile, cfg tlr.GemmConfig) *tlr.Tile {
			return tlr.Gemm(a, b, c, cfg)
		},
	},
	tilemat.FormLDLt: {
		class: [4]int{cSytrf, cTrsmD, cSyrkD, cGemmD},
		diag:  dense.Ldlt, panel: tlr.TrsmLDLt, diagUpdate: tlr.SyrkLDLt, update: tlr.GemmLDLt,
		readsDiag: true,
	},
}

// tiles is where a task body reads and writes tiles: the shared
// tilemat, or the executing node's private store (cluster.Ctx).
type tiles interface {
	At(m, n int) *tlr.Tile
	Set(m, n int, t *tlr.Tile)
}

// tileKey names a tile in declared accesses.
type tileKey struct{ m, n int }

// factorization is what every backend's task bodies share: the form's
// kernels, the recompression settings and the instrumentation.
type factorization struct {
	*kernels
	cfg tlr.GemmConfig
	in  *instr
}

func newFactorization(form tilemat.Form, tol float64, maxRank int, reg *obs.Registry) factorization {
	return factorization{kernels: &forms[form], cfg: tlr.GemmConfig{Tol: tol, MaxRank: maxRank}, in: newInstr(reg)}
}

// run is the task body of walk task t on every backend: it executes the
// form's kernel on ts and records it on the given metrics shard.
func (f factorization) run(t trim.Task, ts tiles, shard int, info *obs.SpanInfo) error {
	c := f.class[t.Class]
	if t.Class == trim.Diag {
		d := ts.At(t.K, t.K).D
		if err := f.diag(d); err != nil {
			return err
		}
		f.in.diag(c, shard, d.Rows, info)
		return nil
	}
	a := ts.At(t.M, t.K)
	var ld *dense.Matrix
	if t.Class == trim.Panel || f.readsDiag {
		ld = ts.At(t.K, t.K).D
	}
	switch t.Class {
	case trim.Panel:
		f.panel(ld, a)
		f.in.panel(c, shard, a, info)
	case trim.DiagUpdate:
		f.diagUpdate(a, ld, ts.At(t.M, t.M).D)
		f.in.panel(c, shard, a, info)
	case trim.Update:
		b, cc := ts.At(t.N, t.K), ts.At(t.M, t.N)
		ka, kb, kc := a.Rank(), b.Rank(), cc.Rank()
		out := f.update(a, b, ld, cc, f.cfg)
		ts.Set(t.M, t.N, out)
		f.in.update(c, shard, ka, kb, kc, out, info)
	}
	return nil
}

// label names walk task t: potrf(k) or sytrf(k), trsm(k,m), syrk(k,m),
// gemm(k,m,n).
func (f factorization) label(t trim.Task) string {
	switch t.Class {
	case trim.Diag:
		return fmt.Sprintf("%s(%d)", classes[f.class[trim.Diag]].name, t.K)
	case trim.Panel:
		return fmt.Sprintf("trsm(%d,%d)", t.K, t.M)
	case trim.DiagUpdate:
		return fmt.Sprintf("syrk(%d,%d)", t.K, t.M)
	}
	return fmt.Sprintf("gemm(%d,%d,%d)", t.K, t.M, t.N)
}

// accesses declares the tiles walk task t reads and writes, for the
// hazard replay of package verify.
func (f factorization) accesses(t trim.Task) []runtime.Access {
	var acc []runtime.Access
	switch t.Class {
	case trim.Panel:
		acc = append(acc, runtime.R(tileKey{t.K, t.K}))
	case trim.DiagUpdate, trim.Update:
		acc = append(acc, runtime.R(tileKey{t.M, t.K}))
		if t.Class == trim.Update {
			acc = append(acc, runtime.R(tileKey{t.N, t.K}))
		}
		if f.readsDiag {
			acc = append(acc, runtime.R(tileKey{t.K, t.K}))
		}
	}
	return append(acc, runtime.W(tileKey{t.M, t.N}))
}
