package core

import (
	"tlrchol/internal/flops"
	"tlrchol/internal/obs"
	"tlrchol/internal/tlr"
)

// Kernel-class indices for the per-class metric arrays: the four tile
// kernels of a Cholesky factorization, then the four of an LDLᵀ one
// (the diagonal sytrf and the D-weighted panel solve and updates).
const (
	cPotrf = iota
	cTrsm
	cSyrk
	cGemm
	cSytrf
	cTrsmD
	cSyrkD
	cGemmD
	nClass
)

// classes names each kernel class and prices it: dense is the flop
// count on dense tiles (the only one for the diagonal classes), lr on a
// rank-k panel tile (panel and diagonal-update classes), upd the update
// of a rank-kc tile by rank-ka and rank-kb panels (update classes).
var classes = [nClass]struct {
	name  string
	dense func(b int) float64
	lr    func(b, k int) float64
	upd   func(b, ka, kb, kc int) float64
}{
	cPotrf: {name: "potrf", dense: flops.Potrf},
	cTrsm:  {name: "trsm", dense: flops.TrsmDense, lr: flops.TrsmLR},
	cSyrk:  {name: "syrk", dense: flops.SyrkDense, lr: flops.SyrkLR},
	cGemm:  {name: "gemm", dense: flops.GemmDense, upd: flops.GemmLR},
	cSytrf: {name: "sytrf", dense: flops.Sytrf},
	cTrsmD: {name: "trsm_d", dense: flops.TrsmLDLtDense, lr: flops.TrsmLDLtLR},
	cSyrkD: {name: "syrk_d", dense: flops.SyrkDDense, lr: flops.SyrkDLR},
	cGemmD: {name: "gemm_d", dense: flops.GemmDense, upd: flops.GemmDLR},
}

// instr bundles the metric handles one factorization records into. The
// handles are resolved from the registry once at setup; every hot-path
// record is then a handful of atomic adds into per-worker shards —
// no locks, no lookups, no allocations. Both execution paths share it:
// the sequential reference records on shard 0, the parallel path on the
// executing worker's index.
//
// The flop counters come in pairs per class: flops.eff.<class> is the
// effective count of the data-sparse kernel actually run (zero for
// no-ops on null tiles), flops.dense.<class> the cost the same update
// would have had on dense tiles. Their ratio is the paper's headline
// data-sparsity win, so Factorize reports the per-run delta of both.
type instr struct {
	reg   *obs.Registry
	tasks [nClass]*obs.Counter
	eff   [nClass]*obs.Counter
	dns   [nClass]*obs.Counter
	// rankH histograms the rank GEMM accumulations produce — the
	// post-recompression rank distribution that drives memory and the
	// cost of every downstream task.
	rankH *obs.Histogram
	// fillin counts GEMMs that turned an exactly-zero tile nonzero, the
	// structure-destroying event DAG trimming must predict conservatively.
	fillin *obs.Counter
}

func newInstr(reg *obs.Registry) *instr {
	if reg == nil {
		reg = obs.Default
	}
	in := &instr{reg: reg}
	for c := 0; c < nClass; c++ {
		in.tasks[c] = reg.Counter("tasks." + classes[c].name)
		in.eff[c] = reg.Counter("flops.eff." + classes[c].name)
		in.dns[c] = reg.Counter("flops.dense." + classes[c].name)
	}
	in.rankH = reg.Histogram("rank.gemm.out", 0, 2, 4, 8, 16, 32, 64, 128, 256)
	in.fillin = reg.Counter("gemm.fillin")
	return in
}

// flopTotals sums the effective and dense-equivalent flop counters.
// Factorize differences two calls around the run so a shared registry
// (obs.Default) still yields per-run numbers.
func (in *instr) flopTotals() (eff, dns float64) {
	for c := 0; c < nClass; c++ {
		eff += float64(in.eff[c].Value())
		dns += float64(in.dns[c].Value())
	}
	return eff, dns
}

func (in *instr) record(class, shard int, effF, dnsF float64) {
	in.tasks[class].Add(shard, 1)
	in.eff[class].Add(shard, uint64(effF))
	in.dns[class].Add(shard, uint64(dnsF))
}

// diag records a dense diagonal-tile factorization of class c:
// effective == dense-equivalent.
func (in *instr) diag(c, shard, b int, info *obs.SpanInfo) {
	f := classes[c].dense(b)
	in.record(c, shard, f, f)
	if info != nil {
		info.RankIn, info.RankOut = int32(b), int32(b)
		info.Flops = f
	}
}

// panel records a kernel of class c that reads panel tile t and leaves
// its rank unchanged: a panel solve, or a diagonal update from t.
func (in *instr) panel(c, shard int, t *tlr.Tile, info *obs.SpanInfo) {
	b := t.Rows
	dnsF := classes[c].dense(b)
	var effF float64
	switch t.Kind {
	case tlr.Dense:
		effF = dnsF
	case tlr.LowRank:
		effF = classes[c].lr(b, t.Rank())
	}
	in.record(c, shard, effF, dnsF)
	if info != nil {
		r := int32(t.Rank())
		info.RankIn, info.RankOut = r, r
		info.Flops = effF
	}
}

// update records a trailing update of class c: ka, kb, kc are the input
// ranks (kc the written tile's rank before the kernel), out the tile
// after.
func (in *instr) update(c, shard, ka, kb, kc int, out *tlr.Tile, info *obs.SpanInfo) {
	b := out.Rows
	dnsF := classes[c].dense(b)
	var effF float64
	if ka > 0 && kb > 0 {
		effF = classes[c].upd(b, ka, kb, kc)
		in.rankH.Observe(shard, float64(out.Rank()))
		if kc == 0 && out.Rank() > 0 {
			in.fillin.Add(shard, 1)
			if tr := obs.Active(); tr != nil {
				tr.Instant("fill_in", int32(shard), float64(out.Rank()))
			}
		}
	}
	in.record(c, shard, effF, dnsF)
	if info != nil {
		info.RankIn, info.RankOut = int32(kc), int32(out.Rank())
		info.Flops = effF
	}
}
