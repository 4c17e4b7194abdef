package trim

// Class is the kind of a tile-factorization task.
type Class uint8

const (
	// Diag factorizes diagonal tile (K,K): POTRF or SYTRF.
	Diag Class = iota
	// Panel solves panel tile (M,K) against the factored diagonal: TRSM.
	Panel
	// DiagUpdate updates diagonal tile (M,M) from panel tile (M,K): SYRK.
	DiagUpdate
	// Update updates tile (M,N) from panel tiles (M,K) and (N,K): GEMM.
	Update
)

// Task is one instance of the right-looking tile factorization.
type Task struct {
	Class Class
	// K is the panel; the task writes tile (M,N).
	K, M, N int
	// Prio is the critical-path-first priority (higher runs first):
	// Diag(k) → Panel(k,k+1) → DiagUpdate(k,k+1) → Diag(k+1) ahead of
	// the trailing updates.
	Prio int64
	// Preds are the walk indices of the tasks this one waits for, in
	// declaration order; -1 marks an unused slot. Diag waits for the
	// last writer of its tile; Panel for Diag(K) and the last writer of
	// its tile; DiagUpdate for Panel(M,K) and the last writer of (M,M);
	// Update for Panel(M,K), Panel(N,K) and the last writer of (M,N).
	// Every tile's writes are thereby serialized in walk order.
	Preds [3]int32
}

// Walk unrolls the execution space s into the tasks of the
// right-looking tile factorization and hands them to visit in their
// canonical order — per panel k: Diag(k), then for each panel row m in
// ascending order Panel(k,m), DiagUpdate(k,m) and the Updates of row m.
// A task's index is the number of tasks visited before it. This is the
// one description of the factorization's task graph every backend
// executes: the sequential loop runs it in order, core.BuildGraph turns
// it into the runtime.Graph that the task runtime and the virtual
// cluster run, and the simulator builds it into a runtime.Graph of its
// own.
func Walk(s Structure, visit func(Task)) {
	nt := s.NT()
	// last[tile] is the walk index of the tile's latest writer, over the
	// lower triangle.
	last := make([]int32, nt*(nt+1)/2)
	for i := range last {
		last[i] = -1
	}
	at := func(m, n int) int { return m*(m+1)/2 + n }
	var next int32
	emit := func(t Task) {
		visit(t)
		last[at(t.M, t.N)] = next
		next++
	}
	base := int64(nt+2) << 22
	for k := 0; k < nt; k++ {
		pk := base - int64(k)<<22
		diag := next
		emit(Task{Class: Diag, K: k, M: k, N: k, Prio: pk, Preds: [3]int32{last[at(k, k)], -1, -1}})
		for i := 0; i < s.NbTrsm(k); i++ {
			m := s.TrsmAt(k, i)
			pm := pk - int64(m-k)<<8
			emit(Task{Class: Panel, K: k, M: m, N: k, Prio: pm - 1, Preds: [3]int32{diag, last[at(m, k)], -1}})
			emit(Task{Class: DiagUpdate, K: k, M: m, N: m, Prio: pm - 2, Preds: [3]int32{last[at(m, k)], last[at(m, m)], -1}})
			for j := 0; j < i; j++ {
				n := s.TrsmAt(k, j)
				emit(Task{Class: Update, K: k, M: m, N: n, Prio: pk - int64(m-n)<<8 - 3,
					Preds: [3]int32{last[at(m, k)], last[at(n, k)], last[at(m, n)]}})
			}
		}
	}
}
