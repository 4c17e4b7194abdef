package dense

import (
	"sync"
	"sync/atomic"

	"tlrchol/internal/obs"
)

// Workspace-pool metrics, registered once in the process-wide registry.
// A hit is a Get that reused a warm workspace; a miss had to construct
// a cold one (first use, or the pool was drained by GC); a grow is a
// Release that had to coalesce an overflowed slab to a new high-water
// mark. Hit/miss increments shard on the workspace's own id — each
// workspace is goroutine-local for its cycle, so shards never contend.
var (
	wsHits   = obs.Default.Counter("workspace.pool.hit")
	wsMisses = obs.Default.Counter("workspace.pool.miss")
	wsGrows  = obs.Default.Counter("workspace.pool.grow")
	wsNext   atomic.Int64
)

// Workspace is a bump-allocated scratch arena for the transient
// matrices and slices of the TLR hot paths (HCORE GEMM/SYRK, QR/QRCP,
// SVD). A kernel takes scratch with Floats/Ints/Matrix, and the
// whole arena is reclaimed at once with Release — there is no per-object
// free. After the first few calls have grown the slab to the high-water
// mark, a Get/work/Release cycle performs zero heap allocations, which
// is what keeps the factorization's inner loops allocation-free in
// steady state.
//
// Memory handed out by a Workspace is only valid until Release; callers
// must copy anything that outlives the cycle (e.g. the factors stored
// into a result tile). Workspaces are not safe for concurrent use; each
// goroutine takes its own from the pool.
type Workspace struct {
	slab []float64
	off  int
	old  [][]float64 // slabs retired by growth this cycle

	ints []int
	ioff int
	iold [][]int

	hdrs []*Matrix // reusable Matrix headers handed out by Matrix
	nh   int

	shard int  // metrics shard, fixed at construction
	warm  bool // has completed at least one Get/Release cycle
}

var wsPool = sync.Pool{New: func() any {
	return &Workspace{shard: int(wsNext.Add(1))}
}}

// GetWorkspace takes a workspace from the shared pool.
func GetWorkspace() *Workspace {
	w := wsPool.Get().(*Workspace)
	if w.warm {
		wsHits.Add(w.shard, 1)
	} else {
		wsMisses.Add(w.shard, 1)
	}
	return w
}

// Release reclaims every allocation handed out this cycle (Reset) and
// returns the workspace to the pool.
func (w *Workspace) Release() {
	w.Reset()
	wsPool.Put(w)
}

// Reset reclaims every allocation handed out this cycle and starts a
// new one, keeping the workspace. If the cycle overflowed the slab, the
// retired slabs are coalesced into one allocation sized to the new
// high-water mark so the next cycle runs allocation-free.
func (w *Workspace) Reset() {
	if len(w.old) > 0 {
		total := len(w.slab)
		for _, s := range w.old {
			total += len(s)
		}
		w.slab = make([]float64, total)
		w.old = nil
		wsGrows.Add(w.shard, 1)
	}
	if len(w.iold) > 0 {
		total := len(w.ints)
		for _, s := range w.iold {
			total += len(s)
		}
		w.ints = make([]int, total)
		w.iold = nil
		wsGrows.Add(w.shard, 1)
	}
	w.off, w.ioff, w.nh = 0, 0, 0
	w.warm = true
}

// Shard returns a metrics shard index that is contention-free for the
// duration of this workspace's Get/Release cycle (workspaces are
// goroutine-local), so kernels drawing from the workspace can reuse it
// for their own obs counters.
func (w *Workspace) Shard() int { return w.shard }

// Floats returns a zeroed scratch slice of n float64s, valid until
// Release.
func (w *Workspace) Floats(n int) []float64 {
	s := w.floats(n)
	clear(s)
	return s
}

// floats is Floats without the clearing: the slice holds whatever an
// earlier cycle left there. It is for scratch the caller writes in full
// before reading any of it.
func (w *Workspace) floats(n int) []float64 {
	if n == 0 {
		return nil
	}
	if w.off+n > len(w.slab) {
		if len(w.slab) > 0 {
			w.old = append(w.old, w.slab)
		}
		size := 2 * len(w.slab)
		if size < n {
			size = n
		}
		if size < 4096 {
			size = 4096
		}
		w.slab = make([]float64, size)
		w.off = 0
	}
	s := w.slab[w.off : w.off+n : w.off+n]
	w.off += n
	return s
}

// Ints returns a zeroed scratch slice of n ints, valid until Release.
func (w *Workspace) Ints(n int) []int {
	if n == 0 {
		return nil
	}
	if w.ioff+n > len(w.ints) {
		if len(w.ints) > 0 {
			w.iold = append(w.iold, w.ints)
		}
		size := 2 * len(w.ints)
		if size < n {
			size = n
		}
		if size < 256 {
			size = 256
		}
		w.ints = make([]int, size)
		w.ioff = 0
	}
	s := w.ints[w.ioff : w.ioff+n : w.ioff+n]
	w.ioff += n
	clear(s)
	return s
}

// Matrix returns a zeroed r×c scratch matrix with compact stride, valid
// until Release. The header itself is recycled across cycles, so the
// call is allocation-free in steady state.
func (w *Workspace) Matrix(r, c int) *Matrix {
	var m *Matrix
	if w.nh < len(w.hdrs) {
		m = w.hdrs[w.nh]
	} else {
		m = new(Matrix)
		w.hdrs = append(w.hdrs, m)
	}
	w.nh++
	*m = Matrix{Rows: r, Cols: c, Stride: c, Data: w.Floats(r * c)}
	return m
}

// MatrixCopy returns a scratch deep copy of src, valid until Release.
func (w *Workspace) MatrixCopy(src *Matrix) *Matrix {
	m := w.Matrix(src.Rows, src.Cols)
	m.CopyFrom(src)
	return m
}
