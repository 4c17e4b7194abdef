// Package cluster is a virtual-cluster distributed-memory execution
// engine: it runs a task graph across P virtual nodes, each with a
// private tile store and its own worker-goroutine pool, connected by a
// typed message-passing comm engine (Go channels modeling send/recv,
// with a binomial broadcast tree for one-to-many releases such as the
// POTRF→TRSM and TRSM→GEMM column broadcasts of the tile Cholesky).
//
// The graph is a sealed runtime.Graph, the same container the
// shared-memory executor runs: its priorities order each node's ready
// tasks, its labels and span annotations name the tasks in traces and
// errors, and its successor lists become messages where they cross
// nodes. Graph ids are topological, and the builder serializes the
// writes of any tile with edges, so id order is each tile's write
// order: the engine takes a tile's first and last writer from it to
// place remap ship-in and write-back. All run state lives in the
// engine, so a graph may run any number of times.
//
// The engine honors a dist.Remap exactly as the paper describes
// (Section VII): a task executes at Remap.ExecRankOf of the tile it
// writes, while the tile's storage lives at Remap.OwnerRankOf. When the
// two differ — the band and diamond-shaped redistributions — the
// runtime ships the tile from owner to executor before the first
// writing task runs and ships the final value back afterwards,
// breaking the owner-computes convention while the data keeps its
// original layout. Every send, receive, ship and broadcast is counted
// per node in an obs.CommTracker, so measured communication volume can
// be printed next to the simulator's prediction for the same
// configuration.
//
// Where package runtime is the shared-memory execution engine and
// package sim only *times* distributed runs, cluster *numerically
// executes* them: same kernels, same DAG, but with P private address
// spaces and explicit messages, under the race detector.
package cluster

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tlrchol/internal/dist"
	"tlrchol/internal/obs"
	"tlrchol/internal/runtime"
	"tlrchol/internal/tlr"
)

// TileID identifies one tile of the distributed matrix (row M,
// column N, lower triangle: M ≥ N).
type TileID struct {
	M, N int
}

// Config selects the virtual cluster for one distributed execution.
type Config struct {
	// Nodes is the number of virtual nodes (processes). Must equal
	// Remap.Size().
	Nodes int
	// WorkersPerNode is each node's worker-goroutine pool size
	// (≤ 0 selects 1).
	WorkersPerNode int
	// Remap pairs the data distribution (tile ownership) with the
	// execution distribution; a nil Exec means owner-computes.
	Remap dist.Remap
	// Comm, if non-nil, accumulates the per-node message/byte counters.
	Comm *obs.CommTracker
}

// Validate reports configuration errors as usable messages.
func (c Config) Validate() error {
	if c.Nodes <= 0 {
		return fmt.Errorf("cluster: Nodes must be positive, got %d", c.Nodes)
	}
	if c.Remap.Data == nil {
		return fmt.Errorf("cluster: Remap.Data distribution is nil")
	}
	if c.Remap.Size() != c.Nodes {
		return fmt.Errorf("cluster: Nodes=%d but distribution %q has %d processes",
			c.Nodes, c.Remap.Data.Name(), c.Remap.Size())
	}
	return nil
}

// NodeStats reports one node's execution share.
type NodeStats struct {
	// Tasks is the number of tasks the node executed; Busy their summed
	// execution time across the node's workers.
	Tasks int
	Busy  time.Duration
}

// Stats reports what happened during a distributed Run.
type Stats struct {
	// Elapsed is the wall-clock makespan.
	Elapsed time.Duration
	// Executed is the number of tasks that ran across all nodes.
	Executed int
	// Workers is the per-node worker-pool size used.
	Workers int
	// PerNode breaks execution down by node.
	PerNode []NodeStats
	// Comm is the communication snapshot (empty when Config.Comm nil).
	Comm obs.CommSnapshot
	// Trace is the run's timeline: one record per executed task, by id,
	// on track node·W+worker, then one per message a node processed, by
	// node and arrival, on track P·W+node.
	Trace []runtime.TaskRecord
}

// Ctx is the task body's window onto its executing node: tile reads and
// writes go to the node's private store. Every tile a task touches must
// be covered by a dependency edge (or be the task's own written tile),
// which is what guarantees the store holds a current copy.
type Ctx struct {
	node  *node
	track int
}

// At returns the node-local copy of tile (m,n). It panics (aborting
// the task cleanly) if the tile has not reached this node — a missing
// dependency edge, which the static verifier would also flag.
func (c *Ctx) At(m, n int) *tlr.Tile {
	t := c.node.getTile(TileID{M: m, N: n})
	if t == nil {
		panic(fmt.Sprintf("cluster: tile (%d,%d) not present on node %d (missing dependency?)", m, n, c.node.id))
	}
	return t
}

// Set stores a new value for tile (m,n) in the node's store (used by
// kernels like the low-rank GEMM that return a fresh tile).
func (c *Ctx) Set(m, n int, t *tlr.Tile) {
	c.node.setTile(TileID{M: m, N: n}, t)
}

// Shard returns a stable shard index for metric increments (the global
// worker index across all nodes).
func (c *Ctx) Shard() int { return c.track }

// Message kinds of the typed comm engine.
type msgKind uint8

const (
	// msgTile carries a freshly produced tile version to nodes hosting
	// dependent tasks, along a binomial broadcast tree.
	msgTile msgKind = iota
	// msgShip is the remap ship-in: a tile's initial content moving from
	// its owner to the (different) executing node before the first
	// writing task.
	msgShip
	// msgWriteback returns a remapped tile's final value from its
	// executing node to its owner after the last write.
	msgWriteback
)

var msgKindNames = [...]string{"recv", "ship", "writeback"}

// bcastDest is one broadcast destination: the node and the tasks there
// whose dependency this message satisfies.
type bcastDest struct {
	node     int32
	releases []int32
}

// msg is one unit on the wire. Payloads are cloned at every send, so no
// two nodes ever share mutable tile state — the stores stay private.
type msg struct {
	kind    msgKind
	id      TileID
	payload *tlr.Tile
	from    int32
	// releases lists task ids on the destination node unblocked by this
	// message; subtree the broadcast destinations the receiver must
	// forward the payload to.
	releases []int32
	subtree  []bcastDest
}

// node is one virtual process: a private tile store, an inbox, a ready
// list and a worker pool.
type node struct {
	id   int32
	mu   sync.Mutex
	cond *sync.Cond
	// ready is kept by runtime.Graph.InsertReady: the last entry runs
	// next.
	ready []int32
	inbox chan msg

	storeMu sync.RWMutex
	store   map[TileID]*tlr.Tile

	busyNs   atomic.Int64
	tasksRun atomic.Int64
	// comm records the messages processed, by the comm engine alone.
	comm []commRecord
}

// commRecord is one processed message on a node's comm track.
type commRecord struct {
	kind       msgKind
	id         TileID
	start, dur time.Duration
}

// sortTileIDs orders tile IDs column-major (N, then M) — the
// reproducible walk order used wherever a map keyed by TileID feeds
// messages or error reports.
func sortTileIDs(ids []TileID) {
	sort.Slice(ids, func(i, j int) bool {
		if ids[i].N != ids[j].N {
			return ids[i].N < ids[j].N
		}
		return ids[i].M < ids[j].M
	})
}

func (n *node) getTile(id TileID) *tlr.Tile {
	n.storeMu.RLock()
	t := n.store[id]
	n.storeMu.RUnlock()
	return t
}

func (n *node) setTile(id TileID, t *tlr.Tile) {
	n.storeMu.Lock()
	n.store[id] = t
	n.storeMu.Unlock()
}

// engine is one Run's execution state.
type engine struct {
	g     *runtime.Graph
	exec  func(id int, c *Ctx) error
	cfg   Config
	nodes []*node
	// Per task: the tile it writes, its executing node, its unfinished
	// predecessors (plus a pending ship-in), and whether its tile goes
	// back to the owner after it ran.
	tile    []TileID
	at      []int32
	waits   []int32
	wbAfter []bool
	// recs holds each task's record, written by the worker that ran it
	// (Worker -1: not run).
	recs []runtime.TaskRecord

	start    time.Time
	pending  atomic.Int64
	aborted  atomic.Bool
	errMu    sync.Mutex
	firstErr error
	// inflight counts sent-but-unprocessed messages; waiting for it
	// after the workers join guarantees the comm engines are quiescent
	// (no sends can originate outside message processing), making the
	// inbox close race-free.
	inflight sync.WaitGroup
	workerWg sync.WaitGroup
	commWg   sync.WaitGroup
}

// Run executes graph g on the virtual cluster: task id writes tile
// writes(id), runs at Remap.ExecRankOf of that tile, and executes as
// exec(id, c) against its node's store; an error or a panic aborts the
// run. seed maps every tile to its initial content; the engine scatters
// clones to the owner nodes, runs the graph with remap shipping, and —
// on success — returns the final owner-side tiles.
func Run(g *runtime.Graph, writes func(id int) TileID, exec func(id int, c *Ctx) error,
	seed map[TileID]*tlr.Tile, cfg Config) (Stats, map[TileID]*tlr.Tile, error) {
	if err := cfg.Validate(); err != nil {
		return Stats{}, nil, err
	}
	if cfg.WorkersPerNode <= 0 {
		cfg.WorkersPerNode = 1
	}
	P, W := cfg.Nodes, cfg.WorkersPerNode

	nt := g.Tasks()
	e := &engine{g: g, exec: exec, cfg: cfg, start: time.Now(),
		tile: make([]TileID, nt), at: make([]int32, nt), waits: make([]int32, nt), wbAfter: make([]bool, nt),
		recs: make([]runtime.TaskRecord, nt)}
	e.pending.Store(int64(nt))

	// Place every task at its executing node, count its predecessors
	// and locate each tile's first and last writer.
	firstWriter := make(map[TileID]int32)
	lastWriter := make(map[TileID]int32)
	for id := 0; id < nt; id++ {
		w := writes(id)
		ex := cfg.Remap.ExecRankOf(w.M, w.N)
		if ex < 0 || ex >= P {
			return Stats{}, nil, fmt.Errorf("cluster: ExecRankOf(%d,%d) = %d out of range [0,%d)", w.M, w.N, ex, P)
		}
		e.tile[id], e.at[id] = w, int32(ex)
		e.recs[id].Worker = -1
		if _, ok := firstWriter[w]; !ok {
			firstWriter[w] = int32(id)
		}
		lastWriter[w] = int32(id)
		for _, s := range g.Successors(id) {
			if int(s) <= id {
				panic("cluster: an edge does not point to a higher task id")
			}
			e.waits[s]++
		}
	}

	// Build the nodes and scatter the seed tiles to their owners.
	e.nodes = make([]*node, P)
	capMsgs := g.Edges() + 2*len(seed) + 8
	for i := range e.nodes {
		n := &node{id: int32(i), inbox: make(chan msg, capMsgs), store: make(map[TileID]*tlr.Tile)}
		n.cond = sync.NewCond(&n.mu)
		e.nodes[i] = n
	}
	// Scatter in sorted tile order: with several invalid owners the
	// reported one must not depend on map iteration order.
	seedIDs := make([]TileID, 0, len(seed))
	for id := range seed {
		seedIDs = append(seedIDs, id)
	}
	sortTileIDs(seedIDs)
	for _, id := range seedIDs {
		owner := cfg.Remap.OwnerRankOf(id.M, id.N)
		if owner < 0 || owner >= P {
			return Stats{}, nil, fmt.Errorf("cluster: OwnerRankOf(%d,%d) = %d out of range [0,%d)",
				id.M, id.N, owner, P)
		}
		e.nodes[owner].store[id] = seed[id].Clone()
	}

	// Remap shipping plan: tiles whose writes execute away from their
	// owner get their initial content shipped in before the first
	// writer runs (and the first writer gains one extra wait), and the
	// final value shipped back after the last writer. Zero tiles (fill-
	// in targets) materialize directly at the executor: there is
	// nothing to ship, matching the simulator's accounting.
	type shipRec struct {
		owner int32
		m     msg
	}
	var ships []shipRec
	// Walk first-writer tiles in sorted order: ship order and the
	// error reported for an unseeded write must both be reproducible,
	// and map iteration order is not.
	fwIDs := make([]TileID, 0, len(firstWriter))
	for id := range firstWriter {
		fwIDs = append(fwIDs, id)
	}
	sortTileIDs(fwIDs)
	for _, id := range fwIDs {
		ft := firstWriter[id]
		owner := int32(cfg.Remap.OwnerRankOf(id.M, id.N))
		if e.at[ft] == owner {
			continue
		}
		st := e.nodes[owner].store[id]
		if st == nil {
			return Stats{}, nil, fmt.Errorf("cluster: task %s writes unseeded tile (%d,%d)", g.Label(int(ft)), id.M, id.N)
		}
		e.wbAfter[lastWriter[id]] = true
		if st.Kind == tlr.Zero {
			// Fill-in target: nothing to ship in, but the filled value
			// must still return to the owner after the last write.
			e.nodes[e.at[ft]].store[id] = tlr.NewZero(st.Rows, st.Cols)
			continue
		}
		e.waits[ft]++
		ships = append(ships, shipRec{owner: owner,
			m: msg{kind: msgShip, id: id, payload: st.Clone(), releases: []int32{ft}}})
	}

	// Seed the ready lists before any goroutine starts.
	for id, w := range e.waits {
		if w == 0 {
			n := e.nodes[e.at[id]]
			n.ready = g.InsertReady(n.ready, int32(id))
		}
	}

	// Launch the comm engines and worker pools. Tracks: node i worker j
	// → i·W+j; node i's comm engine → P·W+i.
	for i := 0; i < P; i++ {
		n := e.nodes[i]
		e.commWg.Add(1)
		go e.commLoop(n)
		for w := 0; w < W; w++ {
			e.workerWg.Add(1)
			go e.worker(n, i*W+w)
		}
	}

	// The owners ship the remapped tiles (the t=0 sends of the run).
	for _, s := range ships {
		e.send(e.nodes[s.owner], e.at[s.m.releases[0]], s.m, true)
	}

	e.workerWg.Wait()
	// Drain the comm engines: every sent message processed, then the
	// inboxes can close with no senders left.
	e.inflight.Wait()
	for _, n := range e.nodes {
		close(n.inbox)
	}
	e.commWg.Wait()

	st := Stats{
		Elapsed: time.Since(e.start),
		Workers: W,
		PerNode: make([]NodeStats, P),
		Comm:    cfg.Comm.Snapshot(),
	}
	for i, n := range e.nodes {
		st.PerNode[i] = NodeStats{Tasks: int(n.tasksRun.Load()), Busy: time.Duration(n.busyNs.Load())}
		st.Executed += st.PerNode[i].Tasks
	}
	st.Trace = make([]runtime.TaskRecord, 0, st.Executed)
	for id, r := range e.recs {
		if r.Worker >= 0 {
			r.Label = g.Label(id)
			st.Trace = append(st.Trace, r)
		}
	}
	for i, n := range e.nodes {
		for _, c := range n.comm {
			st.Trace = append(st.Trace, runtime.TaskRecord{
				Label:  fmt.Sprintf("%s(%d,%d)", msgKindNames[c.kind], c.id.M, c.id.N),
				Worker: P*W + i, Start: c.start, Duration: c.dur, ReadyPop: -1, ReadyEnd: -1})
		}
	}
	e.errMu.Lock()
	err := e.firstErr
	e.errMu.Unlock()
	if err != nil {
		return st, nil, err
	}
	// Gather: the owner stores now hold every tile's final value (local
	// writes landed in place; remapped writes arrived via write-back).
	out := make(map[TileID]*tlr.Tile, len(seed))
	for id := range seed {
		owner := cfg.Remap.OwnerRankOf(id.M, id.N)
		out[id] = e.nodes[owner].store[id]
	}
	return st, out, nil
}

// finished reports whether workers should stop waiting: the DAG
// drained or the run aborted.
func (e *engine) finished() bool {
	return e.aborted.Load() || e.pending.Load() == 0
}

// wakeAll wakes every node's workers so they can observe a terminal
// state. Locking each node's mutex orders the flag write before the
// broadcast for any worker mid-predicate.
func (e *engine) wakeAll() {
	for _, n := range e.nodes {
		n.mu.Lock()
		n.cond.Broadcast()
		n.mu.Unlock()
	}
}

// worker is one goroutine of a node's pool.
func (e *engine) worker(n *node, track int) {
	defer e.workerWg.Done()
	for {
		n.mu.Lock()
		for len(n.ready) == 0 && !e.finished() {
			n.cond.Wait()
		}
		if e.aborted.Load() || len(n.ready) == 0 {
			n.mu.Unlock()
			return
		}
		id := n.ready[len(n.ready)-1]
		n.ready = n.ready[:len(n.ready)-1]
		n.mu.Unlock()

		start := time.Since(e.start)
		err := e.call(int(id), &Ctx{node: n, track: track})
		d := time.Since(e.start) - start
		n.busyNs.Add(int64(d))
		n.tasksRun.Add(1)
		e.recs[id] = runtime.TaskRecord{Worker: track, Start: start, Duration: d,
			Info: e.g.TaskInfo(int(id)), ReadyPop: -1, ReadyEnd: -1}
		e.complete(n, id, err)
	}
}

// call executes a task body, converting panics into errors so a
// crashing kernel aborts the distributed run cleanly.
func (e *engine) call(id int, ctx *Ctx) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return e.exec(id, ctx)
}

// complete releases task id's successors — locally by counter
// decrement, remotely by a broadcast of the written tile — and handles
// remap write-back and termination.
func (e *engine) complete(n *node, id int32, err error) {
	if err != nil {
		e.errMu.Lock()
		if e.firstErr == nil {
			e.firstErr = fmt.Errorf("node %d: task %s: %w", n.id, e.g.Label(int(id)), err)
		}
		e.errMu.Unlock()
		e.aborted.Store(true)
		e.pending.Add(-1)
		e.wakeAll()
		return
	}

	var localReady []int32
	var remote map[int32][]int32
	for _, s := range e.g.Successors(int(id)) {
		if e.at[s] == n.id {
			if atomic.AddInt32(&e.waits[s], -1) == 0 {
				localReady = append(localReady, s)
			}
			continue
		}
		if remote == nil {
			remote = make(map[int32][]int32, 4)
		}
		remote[e.at[s]] = append(remote[e.at[s]], s)
	}
	if !e.aborted.Load() {
		tile := e.tile[id]
		// Remote sends clone the written tile, so they must complete
		// before any local successor — possibly the tile's next writer —
		// is released and can mutate it.
		if remote != nil {
			dests := make([]bcastDest, 0, len(remote))
			for nd, rel := range remote {
				dests = append(dests, bcastDest{node: nd, releases: rel})
			}
			sort.Slice(dests, func(i, j int) bool { return dests[i].node < dests[j].node })
			e.cfg.Comm.Bcast(int(n.id), len(dests))
			e.bcast(n, tile, n.getTile(tile), dests)
		}
		if e.wbAfter[id] {
			owner := int32(e.cfg.Remap.OwnerRankOf(tile.M, tile.N))
			e.send(n, owner, msg{kind: msgWriteback, id: tile, payload: n.getTile(tile).Clone()}, true)
		}
		if len(localReady) > 0 {
			e.pushReady(n, localReady)
		}
	}
	if e.pending.Add(-1) == 0 {
		e.wakeAll()
	}
}

// pushReady inserts newly runnable tasks into n's ready list and wakes
// the pool.
func (e *engine) pushReady(n *node, ids []int32) {
	n.mu.Lock()
	for _, id := range ids {
		n.ready = e.g.InsertReady(n.ready, id)
	}
	n.mu.Unlock()
	n.cond.Broadcast()
}

// bcast routes one tile payload to the destination set along a
// binomial tree by recursive halving: the sender transmits to the head
// of each half, handing it the rest of that half to forward. Every
// destination receives the payload exactly once; tree depth and
// per-node fan-out are O(log₂ dests) — the column-broadcast shape the
// paper's distributions are designed around.
func (e *engine) bcast(from *node, id TileID, payload *tlr.Tile, dests []bcastDest) {
	for len(dests) > 0 {
		mid := (len(dests) + 1) / 2
		child := dests[0]
		e.send(from, child.node, msg{
			kind: msgTile, id: id, payload: payload.Clone(),
			releases: child.releases, subtree: dests[1:mid],
		}, false)
		dests = dests[mid:]
	}
}

// send transmits one message, counting it against the sender.
func (e *engine) send(from *node, to int32, m msg, ship bool) {
	m.from = from.id
	bytes := m.payload.Bytes()
	if ship {
		e.cfg.Comm.SentShip(int(from.id), bytes)
	} else {
		e.cfg.Comm.Sent(int(from.id), bytes)
	}
	e.inflight.Add(1)
	e.nodes[to].inbox <- m
}

// commLoop is node n's comm engine: it receives messages, stores
// payloads into the private store, forwards broadcast subtrees and
// releases the dependent tasks. One goroutine per node, so it owns the
// node's comm records exclusively.
func (e *engine) commLoop(n *node) {
	defer e.commWg.Done()
	for m := range n.inbox {
		start := time.Since(e.start)
		e.cfg.Comm.Recv(int(n.id), m.payload.Bytes())
		n.setTile(m.id, m.payload)
		// Forward before releasing: the payload clone for children must
		// complete before any local successor could run.
		if m.kind == msgTile && len(m.subtree) > 0 {
			e.bcast(n, m.id, m.payload, m.subtree)
		}
		if len(m.releases) > 0 && !e.aborted.Load() {
			var ready []int32
			for _, s := range m.releases {
				if atomic.AddInt32(&e.waits[s], -1) == 0 {
					ready = append(ready, s)
				}
			}
			if len(ready) > 0 {
				e.pushReady(n, ready)
			}
		}
		n.comm = append(n.comm, commRecord{kind: m.kind, id: m.id, start: start, dur: time.Since(e.start) - start})
		e.inflight.Done()
	}
}
