package sim

import (
	"container/heap"
	"fmt"
	"math"
	"math/bits"
	"time"

	"tlrchol/internal/dist"
	"tlrchol/internal/flops"
	"tlrchol/internal/obs"
	"tlrchol/internal/runtime"
	"tlrchol/internal/trim"
)

// Config selects the cluster, its size and the data/execution
// distributions for one simulated run.
type Config struct {
	Machine Machine
	// Nodes is the number of processes (one multithreaded process per
	// node, the PaRSEC deployment of the paper).
	Nodes int
	// Remap pairs the data distribution (ownership) with the execution
	// distribution; a nil Exec means owner-computes.
	Remap dist.Remap
	// CollectTrace records per-task execution records (process = worker)
	// in Result.Trace for Gantt/utilization analysis.
	CollectTrace bool
}

// Result reports one simulated factorization.
type Result struct {
	// Makespan is the simulated time-to-solution in seconds.
	Makespan float64
	// Busy is per-process core-busy time (kernel + runtime overhead).
	Busy []float64
	// CommVolume is total bytes moved between processes; Msgs the
	// message count; ShipVolume the remap ship-in/ship-back bytes.
	CommVolume, ShipVolume float64
	Msgs                   int
	// Tasks and NullTasks count scheduled task instances; null tasks do
	// no flops but still cost runtime overhead (the trimming target).
	Tasks, NullTasks int
	// Potrf/Trsm/Syrk/Gemm break Tasks down by class.
	Potrf, Trsm, Syrk, Gemm int
	// CriticalPathTime is the kernel-only sequential chain of Section
	// VIII-G (the optimistic roofline bound).
	CriticalPathTime float64
	// DAGCriticalPath is the longest cost-weighted path through the
	// actual task DAG (no communication), a tighter lower bound.
	DAGCriticalPath float64
	// MemBytes is the per-process tile storage (owner side);
	// TempBytes the remap temporaries held at executor processes.
	MemBytes, TempBytes []int64
	// Trace holds per-task records when Config.CollectTrace was set;
	// Worker is the simulated process id and times are simulated time.
	Trace []runtime.TaskRecord
	// PathNodes is the executed DAG with its simulated schedule, in the
	// form obs.CriticalPath analyzes — the same critical-path attribution
	// report as real executions, over simulated time. Filled when
	// Config.CollectTrace was set.
	PathNodes []obs.PathNode
}

// LoadImbalance returns max/avg of per-process busy time.
func (r Result) LoadImbalance() float64 {
	var max, sum float64
	for _, b := range r.Busy {
		if b > max {
			max = b
		}
		sum += b
	}
	if sum == 0 {
		return 1
	}
	return max / (sum / float64(len(r.Busy)))
}

// Efficiency returns the roofline efficiency of Section VIII-G: the
// ratio of the kernel-only critical path to the simulated makespan.
func (r Result) Efficiency() float64 {
	if r.Makespan == 0 {
		return 1
	}
	return r.CriticalPathTime / r.Makespan
}

// kindNames labels the simulated tasks by trim.Class.
var kindNames = [...]string{"potrf", "trsm", "syrk", "gemm"}

// simTask is what the simulator adds to a task of the graph: the tile
// it writes (for its label and broadcast payload), its process, and its
// cost; a null task does no flops.
type simTask struct {
	kind    trim.Class
	k, m, n int32
	proc    int32
	null    bool
	cost    float64
}

// Validate reports configuration errors as usable messages instead of
// letting the simulation panic or silently misattribute work.
func (c Config) Validate() error {
	if c.Nodes <= 0 {
		return fmt.Errorf("sim: Nodes must be positive, got %d", c.Nodes)
	}
	if c.Remap.Data == nil {
		return fmt.Errorf("sim: Remap.Data distribution is nil")
	}
	if c.Remap.Size() != c.Nodes {
		return fmt.Errorf("sim: Nodes=%d but distribution %q has %d processes",
			c.Nodes, c.Remap.Data.Name(), c.Remap.Size())
	}
	if c.Machine.CoresPerNode <= 0 {
		return fmt.Errorf("sim: Machine.CoresPerNode must be positive, got %d", c.Machine.CoresPerNode)
	}
	return nil
}

// Run simulates one TLR Cholesky factorization.
func Run(w Workload, cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if w.NT <= 0 || w.B <= 0 {
		return Result{}, fmt.Errorf("sim: workload has NT=%d B=%d, both must be positive", w.NT, w.B)
	}
	g, tasks, res := buildDAG(w, cfg)
	runEventLoop(g, tasks, w, cfg, &res)
	res.CriticalPathTime = CriticalPathTime(w, cfg.Machine)
	accountMemory(w, cfg, &res)
	return res, nil
}

// buildDAG materializes the (possibly trimmed) task DAG of trim.Walk —
// the graph the real backends execute — as a runtime.Graph, and per
// task its class cost, executing process and ship-in charge.
func buildDAG(w Workload, cfg Config) (*runtime.Graph, []simTask, Result) {
	nt := w.NT
	b := w.B
	mch := cfg.Machine
	var res Result

	g := &runtime.Graph{}
	tasks := make([]simTask, 0, nt*4)
	tileKey := func(m, n int) int64 { return int64(m)*int64(nt) + int64(n) }

	// firstToucher[tile] marks that the tile's initial content has been
	// charged (ship-in when executor differs from owner).
	shipCharged := make(map[int64]bool)
	shipIn := func(m, n int, id int32) {
		key := tileKey(m, n)
		if shipCharged[key] {
			return
		}
		shipCharged[key] = true
		owner := int32(cfg.Remap.OwnerRankOf(m, n))
		if owner == tasks[id].proc {
			return
		}
		var bytes float64
		r := w.initRank(m, n)
		if m == n {
			bytes = 8 * float64(b) * float64(b)
		} else if r > 0 {
			bytes = 16 * float64(b) * float64(r)
		} else {
			return // fill-in tiles materialize at the executor: no ship-in
		}
		tasks[id].cost += mch.XferTime(bytes)
		res.ShipVolume += 2 * bytes // in now, back at the end
	}
	// seconds prices a kernel. The critical-path kernels — the diagonal
	// factorization and the leading panel tasks (m-k ≤ 2) that feed the
	// next panel — run node-parallel (the nested parallelism inherited
	// from Lorapo); trailing tasks run as single-core tasks.
	seconds := func(t trim.Task, f float64) float64 {
		if t.Class == trim.Diag || t.M-t.K <= 2 {
			return mch.NestedSeconds(f)
		}
		return mch.Seconds(f)
	}

	pr := w.workRank // shorthand
	trim.Walk(w.S, func(t trim.Task) {
		tk := simTask{
			kind: t.Class, k: int32(t.K), m: int32(t.M), n: int32(t.N),
			proc: int32(cfg.Remap.ExecRankOf(t.M, t.N)),
		}
		ship := true
		switch t.Class {
		case trim.Diag:
			tk.cost = seconds(t, flops.Potrf(b))
			res.Potrf++
		case trim.Panel:
			r := pr(t.M, t.K)
			if tk.null = r == 0; !tk.null {
				tk.cost = seconds(t, flops.TrsmLR(b, r))
			}
			res.Trsm++
		case trim.DiagUpdate:
			r := pr(t.M, t.K)
			if tk.null = r == 0; !tk.null {
				tk.cost = seconds(t, flops.SyrkLR(b, r))
			}
			res.Syrk++
		case trim.Update:
			ka, kb := pr(t.M, t.K), pr(t.N, t.K)
			if tk.null = ka == 0 || kb == 0; !tk.null {
				tk.cost = seconds(t, flops.GemmLR(b, ka, kb, pr(t.M, t.N)))
			}
			ship = !tk.null || w.initRank(t.M, t.N) > 0
			res.Gemm++
		}
		id := g.Add(t.Prio)
		tasks = append(tasks, tk)
		for _, p := range t.Preds {
			if p >= 0 {
				g.Dep(p, id)
			}
		}
		if ship {
			shipIn(t.M, t.N, id)
		}
		if tk.null {
			res.NullTasks++
		}
	})
	res.Tasks = len(tasks)
	g.LabelFunc = func(id int) string {
		tk := &tasks[id]
		return fmt.Sprintf("%s(%d,%d,%d)", kindNames[tk.kind], tk.k, tk.m, tk.n)
	}
	return g, tasks, res
}

// event is one entry of the discrete-event queue.
type event struct {
	t    float64
	seq  int64
	proc int32
	// finish: the task that completed. arrive: the tasks whose remote
	// dependency is satisfied by this message.
	finish  int32
	arrives []int32
}

type eventQueue []event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].t != q[j].t {
		return q[i].t < q[j].t
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x interface{}) { *q = append(*q, x.(event)) }
func (q *eventQueue) Pop() interface{} {
	old := *q
	n := len(old)
	e := old[n-1]
	*q = old[:n-1]
	return e
}

// runEventLoop plays graph g on the simulated machine.
func runEventLoop(g *runtime.Graph, tasks []simTask, w Workload, cfg Config, res *Result) {
	nprocs := cfg.Nodes
	cores := cfg.Machine.CoresPerNode
	free := make([]int, nprocs)
	for i := range free {
		free[i] = cores
	}
	// ready[p] is process p's ready list (runtime.Graph.InsertReady:
	// the last entry runs next); deps counts unfinished predecessors.
	ready := make([][]int32, nprocs)
	deps := make([]int32, len(tasks))
	for i := range tasks {
		for _, s := range g.Successors(i) {
			deps[s]++
		}
	}
	res.Busy = make([]float64, nprocs)

	var q eventQueue
	var seq int64
	push := func(e event) {
		e.seq = seq
		seq++
		heap.Push(&q, e)
	}

	// rtFree models the per-process runtime/progress thread: every task
	// activation (dependency resolution, scheduling, communication
	// activation) serializes through it for TaskOverhead seconds. This
	// is the resource DAG trimming relieves: null tasks do no flops but
	// still consume dispatcher throughput.
	rtFree := make([]float64, nprocs)
	overhead := cfg.Machine.OverheadAt(cfg.Nodes)
	var startAt []float64
	if cfg.CollectTrace {
		startAt = make([]float64, len(tasks))
	}
	schedule := func(p int32, now float64) {
		for free[p] > 0 && len(ready[p]) > 0 {
			id := ready[p][len(ready[p])-1]
			ready[p] = ready[p][:len(ready[p])-1]
			start := now
			if rtFree[p] > start {
				start = rtFree[p]
			}
			rtFree[p] = start + overhead
			free[p]--
			res.Busy[p] += overhead + tasks[id].cost
			if cfg.CollectTrace {
				startAt[id] = start + overhead
				res.Trace = append(res.Trace, runtime.TaskRecord{
					Label:    g.Label(int(id)),
					Worker:   int(p),
					Start:    time.Duration((start + overhead) * 1e9),
					Duration: time.Duration(tasks[id].cost * 1e9),
					ReadyPop: -1, ReadyEnd: -1,
				})
			}
			push(event{t: start + overhead + tasks[id].cost, proc: p, finish: id})
		}
	}
	makeReady := func(id int32) {
		p := tasks[id].proc
		ready[p] = g.InsertReady(ready[p], id)
	}
	release := func(id int32) {
		if deps[id]--; deps[id] == 0 {
			makeReady(id)
		}
	}

	for i, d := range deps {
		if d == 0 {
			makeReady(int32(i))
		}
	}
	for p := int32(0); p < int32(nprocs); p++ {
		schedule(p, 0)
	}

	var makespan float64
	// depth(i) is the binomial broadcast-tree delay multiplier of the
	// i-th remote destination.
	depth := func(i int) float64 { return float64(bits.Len(uint(i + 1))) }

	for q.Len() > 0 {
		e := heap.Pop(&q).(event)
		if e.t > makespan {
			makespan = e.t
		}
		if e.arrives != nil {
			for _, id := range e.arrives {
				release(id)
			}
			schedule(e.proc, e.t)
			continue
		}
		// Task finish: release successors. Local ones immediately; remote
		// ones through one message per destination process, staged along a
		// binomial broadcast tree.
		ft := &tasks[e.finish]
		free[e.proc]++
		var remote map[int32][]int32
		nDest := 0
		for _, s := range g.Successors(int(e.finish)) {
			sp := tasks[s].proc
			if sp == e.proc {
				release(s)
				continue
			}
			if remote == nil {
				remote = make(map[int32][]int32, 4)
			}
			if _, ok := remote[sp]; !ok {
				nDest++
			}
			remote[sp] = append(remote[sp], s)
		}
		if remote != nil {
			// Segmented binomial broadcast: the payload is pipelined, so
			// every receiver pays the full transfer once plus one latency
			// per tree level.
			bytes := w.TileBytes(int(ft.m), int(ft.n))
			xfer := bytes / cfg.Machine.NetBandwidth
			i := 0
			// Deterministic destination order: ascending process id.
			for sp := int32(0); sp < int32(nprocs) && i < nDest; sp++ {
				succs, ok := remote[sp]
				if !ok {
					continue
				}
				delay := xfer + depth(i)*cfg.Machine.NetLatency
				push(event{t: e.t + delay, proc: sp, arrives: succs})
				res.Msgs++
				res.CommVolume += bytes
				i++
			}
		}
		schedule(e.proc, e.t)
	}
	res.Makespan = makespan
	res.DAGCriticalPath = dagCriticalPath(g, tasks)
	if cfg.CollectTrace {
		// Export the executed DAG with its simulated schedule so the same
		// obs.CriticalPath attribution runs on simulations as on real runs.
		nodes := make([]obs.PathNode, len(tasks))
		for i := range tasks {
			nodes[i] = obs.PathNode{
				Label:  g.Label(i),
				Worker: tasks[i].proc,
				Start:  time.Duration(startAt[i] * 1e9),
				Finish: time.Duration((startAt[i] + tasks[i].cost) * 1e9),
			}
		}
		for i := range tasks {
			for _, s := range g.Successors(i) {
				nodes[s].Preds = append(nodes[s].Preds, int32(i))
			}
		}
		res.PathNodes = nodes
	}
}

// dagCriticalPath is the longest cost-weighted path; graph ids are
// topological so a single forward sweep suffices.
func dagCriticalPath(g *runtime.Graph, tasks []simTask) float64 {
	in := make([]float64, len(tasks))
	var best float64
	for i := range tasks {
		c := in[i] + tasks[i].cost
		if c > best {
			best = c
		}
		for _, s := range g.Successors(i) {
			if c > in[s] {
				in[s] = c
			}
		}
	}
	return best
}

// CriticalPathTime is the optimistic roofline bound of Section VIII-G:
// the sequential kernel chain POTRF(k) → TRSM(k,k+1) → SYRK(k+1,k) →
// POTRF(k+1), kernels only, no communication, no overhead.
func CriticalPathTime(w Workload, m Machine) float64 {
	var t float64
	for k := 0; k < w.NT; k++ {
		t += m.NestedSeconds(flops.Potrf(w.B))
		if k+1 < w.NT {
			if r := w.WorkRank(k+1, k); r > 0 {
				t += m.NestedSeconds(flops.TrsmLR(w.B, r)) + m.NestedSeconds(flops.SyrkLR(w.B, r))
			}
		}
	}
	return t
}

// CompressionTime estimates the (embarrassingly parallel) matrix
// generation + compression phase of Fig 11: each process generates and
// compresses its own tiles on all its cores with truncated QRCP.
func CompressionTime(w Workload, cfg Config) float64 {
	per := make([]float64, cfg.Nodes)
	for m := 0; m < w.NT; m++ {
		for n := 0; n <= m; n++ {
			owner := cfg.Remap.OwnerRankOf(m, n)
			c := flops.GenerateTile(w.B)
			if m > n {
				r := w.initRank(m, n)
				if r == 0 {
					// Zero-rank tile. Under trimming (Section VI) Algorithm 1
					// screens it out before generation: it is never assembled
					// or compressed, so it costs nothing — consistent with
					// trim.Structure, which creates no tasks for it either.
					// Untrimmed runs still generate it and pay a compression
					// pass that discovers the emptiness.
					if w.Trimmed {
						continue
					}
					c += flops.CompressQRCP(w.B, 1)
				} else {
					c += flops.CompressQRCP(w.B, r)
				}
			}
			per[owner] += c / (cfg.Machine.GFlopsPerCore * 1e9)
		}
	}
	var max float64
	for _, p := range per {
		max = math.Max(max, p/float64(cfg.Machine.CoresPerNode))
	}
	return max
}

// accountMemory fills the per-process memory fields: owner-side tile
// storage at working ranks, and executor-side temporaries for tiles
// whose execution was remapped away from their owner.
func accountMemory(w Workload, cfg Config, res *Result) {
	res.MemBytes = make([]int64, cfg.Nodes)
	res.TempBytes = make([]int64, cfg.Nodes)
	for m := 0; m < w.NT; m++ {
		for n := 0; n <= m; n++ {
			var bytes int64
			if m == n {
				bytes = int64(8 * w.B * w.B)
			} else if r := w.WorkRank(m, n); r > 0 {
				bytes = int64(16 * w.B * r)
			} else {
				continue
			}
			owner := cfg.Remap.OwnerRankOf(m, n)
			res.MemBytes[owner] += bytes
			if exec := cfg.Remap.ExecRankOf(m, n); exec != owner {
				res.TempBytes[exec] += bytes
			}
		}
	}
}
