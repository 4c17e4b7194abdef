// Package runtime is the tree's shared-memory task executor, in the
// spirit of PaRSEC: a DAG of tasks runs on a worker pool, each task once
// its last predecessor has finished, highest priority (critical path)
// first. Tile compression (package tilemat), the TLR factorization and
// the planned solve (package core) all run on it. A graph is int32 CSR
// built ahead of execution — factorization graphs from a
// trim.Structure, so trimmed tasks are never created — and every task
// runs through one Exec callback: a run allocates nothing per task, and
// a warm run of a reused graph nothing at all.
//
// Graph is also the task graph of the tree's other two executors: the
// virtual cluster (package cluster) runs a sealed Graph across private
// node stores, and the simulator (package sim) plays one on a modelled
// machine. Both take priorities, labels and successors from it, keep
// their run state outside it, and order ready tasks by InsertReady.
package runtime

import (
	"cmp"
	"context"
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"tlrchol/internal/dense"
	"tlrchol/internal/obs"
)

// Exec runs task id on a worker in [0, workers), with the worker's
// scratch workspace ws, which is reset when the task returns. An error
// (or a panic) aborts the run.
type Exec func(id, worker int, ws *dense.Workspace) error

// AccessMode declares how a task uses a datum.
type AccessMode int

const (
	// Read declares a read-only access: reads after the same write may
	// proceed concurrently.
	Read AccessMode = iota
	// Write declares a (read-)write access: it serializes against every
	// earlier access to the same datum.
	Write
)

// Access pairs a datum key (any comparable value) with its access mode.
type Access struct {
	Data interface{}
	Mode AccessMode
}

// R is shorthand for a read access.
func R(data interface{}) Access { return Access{Data: data, Mode: Read} }

// W is shorthand for a write access.
func W(data interface{}) Access { return Access{Data: data, Mode: Write} }

// Graph is a task DAG, built with Add and Dep. The first Run or
// Successors call seals it into CSR form; a sealed graph may run any
// number of times, concurrently unless observed. Task ids follow
// insertion order, which Run requires to be topological: every edge
// points to a higher id.
type Graph struct {
	// LabelFunc names task id; it is called only for traces, errors and
	// dumps. Nil names tasks by their id.
	LabelFunc func(id int) string
	// AccessFunc, if set, declares the data task id reads and writes,
	// for the hazard replay of package verify.
	AccessFunc func(id int) []Access
	// Info, if set, holds one span annotation per task for traced runs
	// (nil entries emit bare spans). A task may fill its entry in: the
	// span is emitted after the task completes.
	Info []*obs.SpanInfo

	prio  []int64
	edges []edge // until sealed
	// ndeps holds the in-degrees, succOff/succs the successor lists and
	// roots the tasks without predecessors.
	ndeps, succOff, succs, roots []int32
	sealed, backward             bool

	observed bool
	tracer   *obs.Tracer
	recs     []record // per task, of the last observed run
}

type edge struct{ from, to int32 }

type record struct {
	ran        bool
	worker     int32
	start, dur time.Duration
}

// Add appends a task of the given priority (higher runs first) and
// returns its id.
func (g *Graph) Add(prio int64) int32 {
	if g.sealed {
		panic("runtime: Add on a sealed graph")
	}
	g.prio = append(g.prio, prio)
	return int32(len(g.prio) - 1)
}

// Dep declares that task succ cannot start before task pred finishes.
func (g *Graph) Dep(pred, succ int32) {
	if g.sealed {
		panic("runtime: Dep on a sealed graph")
	}
	g.edges = append(g.edges, edge{pred, succ})
	g.backward = g.backward || succ <= pred
}

// SetPriority sets task id's priority, for builders that derive it from
// the wired graph.
func (g *Graph) SetPriority(id int, prio int64) { g.prio[id] = prio }

// Priority returns task id's priority.
func (g *Graph) Priority(id int) int64 { return g.prio[id] }

// Tasks returns the number of tasks.
func (g *Graph) Tasks() int { return len(g.prio) }

// Edges returns the number of dependencies.
func (g *Graph) Edges() int { return len(g.edges) + len(g.succs) }

// Successors returns the tasks that depend on task id, in declaration
// order. The slice is owned by the graph.
func (g *Graph) Successors(id int) []int32 {
	g.seal()
	return g.succs[g.succOff[id]:g.succOff[id+1]]
}

// Label returns task id's name.
func (g *Graph) Label(id int) string {
	if g.LabelFunc == nil {
		return strconv.Itoa(id)
	}
	return g.LabelFunc(id)
}

// TaskInfo returns task id's span annotation, nil without one.
func (g *Graph) TaskInfo(id int) *obs.SpanInfo {
	if g.Info == nil {
		return nil
	}
	return g.Info[id]
}

// Bytes returns the footprint of the scheduling arrays.
func (g *Graph) Bytes() int64 {
	g.seal()
	return int64(8*len(g.prio) + 4*(len(g.ndeps)+len(g.succs)+len(g.succOff)+len(g.roots)))
}

func (g *Graph) seal() {
	if g.sealed {
		return
	}
	n := len(g.prio)
	g.ndeps, g.succOff, g.succs = make([]int32, n), make([]int32, n+1), make([]int32, len(g.edges))
	for _, e := range g.edges {
		g.ndeps[e.to]++
		g.succOff[e.from+1]++
	}
	for t := 0; t < n; t++ {
		g.succOff[t+1] += g.succOff[t]
	}
	fill := slices.Clone(g.succOff[:n])
	for _, e := range g.edges {
		g.succs[fill[e.from]] = e.to
		fill[e.from]++
	}
	for t, d := range g.ndeps {
		if d == 0 {
			g.roots = append(g.roots, int32(t))
		}
	}
	g.edges, g.sealed = nil, true
}

// Observe makes Run time every task, for Stats.BusyTime, Trace and
// PathNodes, and with a non-nil tracer emit a span per task (into the
// worker's lock-free buffer) and ready-queue depth samples. Unobserved
// runs read no clock per task.
func (g *Graph) Observe(tr *obs.Tracer) { g.observed, g.tracer = true, tr }

// Stats reports what happened during Run.
type Stats struct {
	// Elapsed is the wall-clock makespan of the execution.
	Elapsed time.Duration
	// BusyTime is the summed task execution time over all workers
	// (observed runs only).
	BusyTime time.Duration
	// Executed is the number of tasks that ran.
	Executed int
	// CriticalPathTasks is the longest dependency chain (in tasks)
	// over the executed DAG.
	CriticalPathTasks int
	// Workers is the worker count used.
	Workers int
	// MaxReady is the ready-queue high-water mark: an upper bound on
	// the parallelism the DAG exposed to the scheduler.
	MaxReady int
}

// Run executes the graph on workers goroutines (≤ 0: GOMAXPROCS), the
// caller being worker 0, calling exec once per task. ctx (may be nil)
// is checked before each task. Run returns the first error: the
// context's, or a task's error or panic labelled with the task.
//
// Abort protocol: the first failure sets the error under the scheduler
// lock, which the worker exit predicate reads. In-flight tasks finish,
// ready ones are dropped, and the failed task's successors are never
// released. Run returns only after every worker has exited, so an abort
// leaks no goroutines and cannot hang.
func (g *Graph) Run(ctx context.Context, workers int, exec Exec) (Stats, error) {
	g.seal()
	if g.backward {
		panic("runtime: an edge does not point to a higher task id")
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	r := runPool.Get().(*run)
	defer func() {
		r.g, r.ctx, r.exec, r.err = nil, nil, nil, nil // retain nothing
		runPool.Put(r)
	}()
	r.g, r.ctx, r.exec = g, ctx, exec
	r.start, r.maxReady, r.pending = time.Now(), 0, len(g.prio)
	r.busy.Store(0)
	if g.observed {
		g.tracer.StartAt(r.start, workers)
		g.recs = make([]record, len(g.prio))
	}
	r.deps = append(r.deps[:0], g.ndeps...)
	r.ready = r.ready[:0]
	for _, t := range g.roots {
		r.pushLocked(t) // no workers yet: the lock is not needed
	}
	for w := len(r.spawn); w < workers; w++ {
		r.spawn = append(r.spawn, func() {
			defer r.wg.Done()
			r.work(w)
		})
	}
	r.wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go r.spawn[w]()
	}
	r.work(0)
	r.wg.Wait()

	st := Stats{Elapsed: time.Since(r.start), BusyTime: time.Duration(r.busy.Load()), Workers: workers, MaxReady: r.maxReady}
	// Ids are topological, so one forward pass over the tasks that ran
	// (deps marked -1) settles every chain length.
	r.cp = append(r.cp[:0], make([]int32, len(g.prio))...)
	for t, d := range r.deps {
		if d < 0 {
			st.Executed++
			c := r.cp[t] + 1
			st.CriticalPathTasks = max(st.CriticalPathTasks, int(c))
			for _, s := range g.succs[g.succOff[t]:g.succOff[t+1]] {
				r.cp[s] = max(r.cp[s], c)
			}
		}
	}
	return st, r.err
}

// run is the pooled state of one execution: warm runs reuse it at its
// high-water capacity, so they allocate nothing.
type run struct {
	mu   sync.Mutex
	cond sync.Cond
	wg   sync.WaitGroup

	g     *Graph
	ctx   context.Context
	exec  Exec
	start time.Time
	busy  atomic.Int64 // ns

	// deps counts unfinished predecessors down, atomically and off the
	// lock; a task that ran is marked -1.
	deps []int32
	cp   []int32
	// ready, pending, err and maxReady are guarded by mu.
	ready    []int32
	pending  int
	err      error
	maxReady int

	// spawn caches one worker closure per index: `go fn()` on a stored
	// func allocates nothing, `go r.work(w)` an argument wrapper.
	spawn []func()
}

var runPool = sync.Pool{New: func() any {
	r := &run{}
	r.cond.L = &r.mu
	return r
}}

// work is the worker loop: pop the next ready task, run it, release the
// successors whose dependency count hits zero; until the run completes
// or fails.
func (r *run) work(w int) {
	// One workspace per worker, reset after every task: an arena frees
	// nothing until then, so one kept for the whole run would hold every
	// task's scratch.
	ws := dense.GetWorkspace()
	defer ws.Release()
	g := r.g
	wt := g.tracer.Worker(w)
	for {
		r.mu.Lock()
		for len(r.ready) == 0 && r.pending > 0 && r.err == nil {
			r.cond.Wait()
		}
		if r.err != nil || len(r.ready) == 0 {
			r.mu.Unlock()
			return
		}
		t := r.ready[len(r.ready)-1]
		r.ready = r.ready[:len(r.ready)-1]
		r.sample()
		r.mu.Unlock()

		if r.ctx != nil && r.ctx.Err() != nil {
			r.fail(r.ctx.Err())
			return
		}
		var start time.Duration
		if g.observed {
			start = time.Since(r.start)
		}
		err := r.call(t, w, ws)
		if g.observed {
			dur := time.Since(r.start) - start
			g.recs[t] = record{ran: true, worker: int32(w), start: start, dur: dur}
			r.busy.Add(int64(dur))
			if wt != nil {
				wt.Span(g.Label(int(t)), g.TaskInfo(int(t)), start, dur)
			}
		}
		ws.Reset()
		r.deps[t] = -1
		if err != nil {
			r.fail(fmt.Errorf("task %s: %w", g.Label(int(t)), err))
			return
		}
		for _, s := range g.succs[g.succOff[t]:g.succOff[t+1]] {
			if atomic.AddInt32(&r.deps[s], -1) == 0 {
				r.mu.Lock()
				r.pushLocked(s)
				r.mu.Unlock()
				r.cond.Signal()
			}
		}
		r.mu.Lock()
		r.pending--
		done := r.pending == 0
		r.mu.Unlock()
		if done {
			r.cond.Broadcast()
		}
	}
}

// call runs one task, turning a panic into an error so a crashing
// kernel aborts the run instead of the process.
func (r *run) call(t int32, w int, ws *dense.Workspace) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return r.exec(int(t), w, ws)
}

// fail records the first error and wakes every worker to drain.
func (r *run) fail(err error) {
	r.mu.Lock()
	if r.err == nil {
		r.err = err
	}
	r.mu.Unlock()
	r.cond.Broadcast()
}

// pushLocked inserts a ready task.
func (r *run) pushLocked(t int32) {
	r.ready = r.g.InsertReady(r.ready, t)
	r.maxReady = max(r.maxReady, len(r.ready))
	r.sample()
}

// InsertReady inserts task t into a ready list whose last entry runs
// next, and returns the list. The list is sorted by ascending priority
// and t goes below the ready tasks of equal priority: highest priority
// first, ties in release order. Every executor of a Graph schedules
// this way: this package's, the virtual cluster's nodes (package
// cluster) and the simulated processes (package sim). Ready sets stay
// small (a dozen tasks on the benchmark's factorizations), where a
// sorted insertion is as cheap as a heap.
func (g *Graph) InsertReady(ready []int32, t int32) []int32 {
	prio := g.prio
	i, _ := slices.BinarySearchFunc(ready, t, func(a, b int32) int { return cmp.Compare(prio[a], prio[b]) })
	return slices.Insert(ready, i, t)
}

// sample records the ready-queue depth on a traced run.
func (r *run) sample() {
	if tr := r.g.tracer; tr != nil {
		tr.SchedCounter("ready_queue", time.Since(r.start), float64(len(r.ready)))
	}
}

// TaskRecord is one executed task in a trace.
type TaskRecord struct {
	Label    string
	Worker   int
	Start    time.Duration
	Duration time.Duration
}

// Trace returns the tasks that ran in the last observed run, by id.
func (g *Graph) Trace() []TaskRecord {
	var out []TaskRecord
	for t, rec := range g.recs {
		if rec.ran {
			out = append(out, TaskRecord{Label: g.Label(t), Worker: int(rec.worker), Start: rec.start, Duration: rec.dur})
		}
	}
	return out
}

// PathNodes exports the last observed run for obs.CriticalPath: one
// node per executed task with its realized start/finish and executed
// predecessors (tasks that never ran — aborted runs only — are dropped).
func (g *Graph) PathNodes() []obs.PathNode {
	idx := make([]int32, len(g.recs))
	var nodes []obs.PathNode
	for t, rec := range g.recs {
		idx[t] = -1
		if rec.ran {
			idx[t] = int32(len(nodes))
			nodes = append(nodes, obs.PathNode{Label: g.Label(t), Worker: rec.worker, Start: rec.start, Finish: rec.start + rec.dur})
		}
	}
	for t := range g.recs {
		for _, s := range g.Successors(t) {
			if idx[t] >= 0 && idx[s] >= 0 {
				nodes[idx[s]].Preds = append(nodes[idx[s]].Preds, idx[t])
			}
		}
	}
	return nodes
}
