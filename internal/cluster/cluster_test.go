package cluster

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"tlrchol/internal/dense"
	"tlrchol/internal/dist"
	"tlrchol/internal/obs"
	"tlrchol/internal/runtime"
	"tlrchol/internal/tlr"
)

// scalarTile wraps a single float64 as a 1×1 dense tile.
func scalarTile(v float64) *tlr.Tile {
	d := dense.NewMatrix(1, 1)
	d.Data[0] = v
	return tlr.NewDense(d)
}

func scalarOf(t *tlr.Tile) float64 { return t.D.Data[0] }

// testGraph is a hand-built graph: the tile each task writes and its
// body, by task id.
type testGraph struct {
	g      runtime.Graph
	labels []string
	writes []TileID
	bodies []func(c *Ctx) error
}

// add appends a task writing tile w.
func (tg *testGraph) add(label string, prio int64, w TileID, body func(c *Ctx) error) int32 {
	tg.labels = append(tg.labels, label)
	tg.writes = append(tg.writes, w)
	tg.bodies = append(tg.bodies, body)
	tg.g.LabelFunc = func(id int) string { return tg.labels[id] }
	return tg.g.Add(prio)
}

func (tg *testGraph) run(seed map[TileID]*tlr.Tile, cfg Config) (Stats, map[TileID]*tlr.Tile, error) {
	return Run(&tg.g, func(id int) TileID { return tg.writes[id] },
		func(id int, c *Ctx) error { return tg.bodies[id](c) }, seed, cfg)
}

// chainGraph builds nt tiles in column 0; task i writes tile (i,0) as
// f(own seed, tile (i-1,0)) — every consecutive pair is an edge, so on
// a cyclic distribution every edge is a cross-node message.
func chainGraph(nt int) (*testGraph, map[TileID]*tlr.Tile) {
	g := &testGraph{}
	seed := make(map[TileID]*tlr.Tile, nt)
	for i := 0; i < nt; i++ {
		i := i
		seed[TileID{i, 0}] = scalarTile(float64(i + 1))
		t := g.add(fmt.Sprintf("step(%d)", i), int64(nt-i), TileID{i, 0}, func(c *Ctx) error {
			v := scalarOf(c.At(i, 0))
			if i > 0 {
				v += 2 * scalarOf(c.At(i-1, 0))
			}
			c.At(i, 0).D.Data[0] = v
			return nil
		})
		if i > 0 {
			g.g.Dep(t-1, t)
		}
	}
	return g, seed
}

// chainExpect computes the chain's reference values sequentially.
func chainExpect(nt int) []float64 {
	out := make([]float64, nt)
	for i := range out {
		out[i] = float64(i + 1)
		if i > 0 {
			out[i] += 2 * out[i-1]
		}
	}
	return out
}

func TestChainAcrossNodes(t *testing.T) {
	const nt = 17
	for _, nodes := range []int{1, 2, 3, 4} {
		for _, workers := range []int{1, 3} {
			g, seed := chainGraph(nt)
			comm := obs.NewCommTracker(nodes)
			st, out, err := g.run(seed, Config{
				Nodes: nodes, WorkersPerNode: workers,
				Remap: dist.Remap{Data: dist.TwoDBC{P: nodes, Q: 1}},
				Comm:  comm,
			})
			if err != nil {
				t.Fatalf("nodes=%d workers=%d: %v", nodes, workers, err)
			}
			if st.Executed != nt {
				t.Fatalf("nodes=%d: executed %d of %d tasks", nodes, st.Executed, nt)
			}
			want := chainExpect(nt)
			for i := 0; i < nt; i++ {
				got := scalarOf(out[TileID{i, 0}])
				if got != want[i] {
					t.Fatalf("nodes=%d tile %d: got %g want %g", nodes, i, got, want[i])
				}
			}
			// Every cross-node edge is exactly one message; owner-computes
			// means zero ship traffic.
			tot := comm.Snapshot().Totals()
			var wantMsgs uint64
			for i := 1; i < nt; i++ {
				if (i-1)%nodes != i%nodes {
					wantMsgs++
				}
			}
			if tot.MsgsSent != wantMsgs || tot.MsgsRecv != wantMsgs {
				t.Fatalf("nodes=%d: %d sent / %d recv msgs, want %d", nodes, tot.MsgsSent, tot.MsgsRecv, wantMsgs)
			}
			if tot.ShipMsgs != 0 {
				t.Fatalf("nodes=%d: %d ship msgs under owner-computes", nodes, tot.ShipMsgs)
			}
		}
	}
}

// execOnZero maps every task to node 0 while data stays cyclic — the
// remap-shipping stress: all non-node-0 tiles ship in and write back.
type execOnZero struct{ procs int }

func (e execOnZero) Name() string        { return "exec0" }
func (e execOnZero) Size() int           { return e.procs }
func (e execOnZero) RankOf(m, n int) int { return 0 }

func TestRemapShipInWriteBack(t *testing.T) {
	const nt, nodes = 13, 4
	g, seed := chainGraph(nt)
	comm := obs.NewCommTracker(nodes)
	remap := dist.Remap{Data: dist.TwoDBC{P: nodes, Q: 1}, Exec: execOnZero{procs: nodes}}
	_, out, err := g.run(seed, Config{Nodes: nodes, Remap: remap, Comm: comm})
	if err != nil {
		t.Fatal(err)
	}
	want := chainExpect(nt)
	for i := 0; i < nt; i++ {
		if got := scalarOf(out[TileID{i, 0}]); got != want[i] {
			t.Fatalf("tile %d: got %g want %g", i, got, want[i])
		}
	}
	// Grid is cyclic over rows: tiles 1,2,3,5,6,7,... are owned away
	// from node 0, each shipping in once and writing back once. All
	// dependency edges are node-local (everything executes at node 0).
	var remapped uint64
	for i := 0; i < nt; i++ {
		if (dist.TwoDBC{P: nodes, Q: 1}).RankOf(i, 0) != 0 {
			remapped++
		}
	}
	tot := comm.Snapshot().Totals()
	if tot.ShipMsgs != 2*remapped {
		t.Fatalf("ship msgs: got %d want %d (ship-in + write-back per remapped tile)", tot.ShipMsgs, 2*remapped)
	}
	if tot.MsgsSent != tot.ShipMsgs {
		t.Fatalf("all traffic should be ship traffic, got %d msgs vs %d ship", tot.MsgsSent, tot.ShipMsgs)
	}
}

// TestBroadcastFanout checks the one-to-many release: one producer task
// whose tile feeds one consumer on every other node, so the broadcast
// tree must deliver exactly one copy per destination node.
func TestBroadcastFanout(t *testing.T) {
	const nodes = 8
	g := &testGraph{}
	seed := map[TileID]*tlr.Tile{{0, 0}: scalarTile(7)}
	root := g.add("produce", 10, TileID{0, 0}, func(c *Ctx) error {
		c.At(0, 0).D.Data[0] *= 3
		return nil
	})
	for i := 1; i < nodes; i++ {
		i := i
		seed[TileID{i, 0}] = scalarTile(0)
		ct := g.add(fmt.Sprintf("consume(%d)", i), 0, TileID{i, 0}, func(c *Ctx) error {
			c.At(i, 0).D.Data[0] = scalarOf(c.At(0, 0)) + float64(i)
			return nil
		})
		g.g.Dep(root, ct)
	}
	comm := obs.NewCommTracker(nodes)
	_, out, err := g.run(seed, Config{Nodes: nodes, Remap: dist.Remap{Data: dist.TwoDBC{P: nodes, Q: 1}}, Comm: comm})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < nodes; i++ {
		if got, want := scalarOf(out[TileID{i, 0}]), 21+float64(i); got != want {
			t.Fatalf("consumer %d: got %g want %g", i, got, want)
		}
	}
	snap := comm.Snapshot()
	tot := snap.Totals()
	// Binomial tree: nodes-1 transmissions total, one receive per
	// destination, and the root's recorded fan-out covers all of them.
	if tot.MsgsSent != nodes-1 || tot.MsgsRecv != nodes-1 {
		t.Fatalf("broadcast msgs: sent %d recv %d, want %d each", tot.MsgsSent, tot.MsgsRecv, nodes-1)
	}
	if got := snap.PerNode[0].FanoutSum; got != nodes-1 {
		t.Fatalf("root fan-out %d, want %d", got, nodes-1)
	}
	// Recursive halving keeps the root's own transmissions logarithmic.
	maxDirect := uint64(math.Ceil(math.Log2(nodes)))
	if snap.PerNode[0].MsgsSent > maxDirect {
		t.Fatalf("root sent %d direct msgs, want ≤ %d (binomial tree)", snap.PerNode[0].MsgsSent, maxDirect)
	}
}

func TestAbortMidDAG(t *testing.T) {
	const nt, nodes = 40, 4
	g := &testGraph{}
	seed := make(map[TileID]*tlr.Tile, nt)
	for i := 0; i < nt; i++ {
		i := i
		seed[TileID{i, 0}] = scalarTile(1)
		t2 := g.add(fmt.Sprintf("step(%d)", i), 0, TileID{i, 0}, func(c *Ctx) error {
			if i == nt/2 {
				return errors.New("kernel blew up")
			}
			return nil
		})
		if i > 0 {
			g.g.Dep(t2-1, t2)
		}
	}
	done := make(chan error, 1)
	go func() {
		_, _, err := g.run(seed, Config{Nodes: nodes, Remap: dist.Remap{Data: dist.TwoDBC{P: nodes, Q: 1}}})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "kernel blew up") {
			t.Fatalf("want kernel error, got %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("distributed abort hung")
	}
}

// TestMissingDependencyPanicAborts: a task reading a tile no edge
// delivers must fail the run with a usable error, not crash the process.
func TestMissingDependencyPanicAborts(t *testing.T) {
	g := &testGraph{}
	seed := map[TileID]*tlr.Tile{{0, 0}: scalarTile(1), {1, 0}: scalarTile(1)}
	g.add("bad", 0, TileID{1, 0}, func(c *Ctx) error {
		_ = c.At(0, 0) // owned by another node, no edge ships it
		return nil
	})
	_, _, err := g.run(seed, Config{Nodes: 2, Remap: dist.Remap{Data: dist.TwoDBC{P: 2, Q: 1}}})
	if err == nil || !strings.Contains(err.Error(), "missing dependency") {
		t.Fatalf("want missing-dependency error, got %v", err)
	}
}

func TestConfigValidate(t *testing.T) {
	g, seed := chainGraph(3)
	cases := []Config{
		{Nodes: 0, Remap: dist.Remap{Data: dist.TwoDBC{P: 1, Q: 1}}},
		{Nodes: 2, Remap: dist.Remap{}},
		{Nodes: 3, Remap: dist.Remap{Data: dist.TwoDBC{P: 4, Q: 1}}},
	}
	for i, cfg := range cases {
		if _, _, err := g.run(seed, cfg); err == nil {
			t.Fatalf("case %d: invalid config accepted", i)
		}
	}
}

// TestRunTwice: all run state lives in the engine, so one sealed graph
// runs twice, here under remap shipping, with identical tiles and task
// counts.
func TestRunTwice(t *testing.T) {
	const nt, nodes = 13, 4
	g, seed := chainGraph(nt)
	cfg := Config{Nodes: nodes, WorkersPerNode: 2,
		Remap: dist.Remap{Data: dist.TwoDBC{P: nodes, Q: 1}, Exec: execOnZero{procs: nodes}}}
	st1, out1, err := g.run(seed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st2, out2, err := g.run(seed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st1.Executed != nt || st2.Executed != nt {
		t.Fatalf("executed %d then %d tasks, want %d both times", st1.Executed, st2.Executed, nt)
	}
	want := chainExpect(nt)
	for i := 0; i < nt; i++ {
		a, b := scalarOf(out1[TileID{i, 0}]), scalarOf(out2[TileID{i, 0}])
		if a != want[i] || b != want[i] {
			t.Fatalf("tile %d: runs gave %g and %g, want %g", i, a, b, want[i])
		}
	}
}
