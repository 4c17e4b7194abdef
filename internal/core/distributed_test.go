package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"tlrchol/internal/dist"
	"tlrchol/internal/obs"
	"tlrchol/internal/runtime"
	"tlrchol/internal/tilemat"
	"tlrchol/internal/tlr"
)

// tilesIdentical requires the two tiles to hold the same representation
// bit for bit: same kind, same shape, same stored floats. The
// distributed engine serializes every tile's write chain in the same
// order as the shared-memory runtime and the kernels are deterministic,
// so the factors must agree exactly — not merely to rounding.
func tilesIdentical(a, b *tlr.Tile) bool {
	if a.Kind != b.Kind || a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	eq := func(x, y []float64) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	switch a.Kind {
	case tlr.Zero:
		return true
	case tlr.Dense:
		return eq(a.D.Data, b.D.Data)
	default:
		return eq(a.U.Data, b.U.Data) && eq(a.V.Data, b.V.Data)
	}
}

// remapsUnderTest are the four CLI distributions over a 2×2 grid.
func remapsUnderTest(nodes int) map[string]dist.Remap {
	p, q := dist.Grid(nodes)
	return map[string]dist.Remap{
		"2dbc":    {Data: dist.TwoDBC{P: p, Q: q}},
		"lorapo":  {Data: dist.NewHybrid(p, q, 1)},
		"band":    {Data: dist.TwoDBC{P: p, Q: q}, Exec: dist.NewBand(p, q)},
		"diamond": {Data: dist.TwoDBC{P: p, Q: q}, Exec: dist.BandDiamond(p, q)},
	}
}

// TestDistributedMatchesSharedMemory is the keystone: for every
// distribution the virtual-cluster factorization must agree with the
// shared-memory factorization tile by tile.
func TestDistributedMatchesSharedMemory(t *testing.T) {
	const n, b, nodes = 320, 32, 4
	const tol = 1e-7
	base, _ := rbfMatrix(t, n, b, 4, tol)

	ref := base.Clone()
	if _, err := Factorize(ref, Options{Tol: tol, Trim: true, Workers: 4}); err != nil {
		t.Fatal(err)
	}

	for name, remap := range remapsUnderTest(nodes) {
		for _, trimOn := range []bool{true, false} {
			mm := base.Clone()
			comm := obs.NewCommTracker(nodes)
			rep, err := FactorizeDistributed(mm, DistOptions{
				Tol: tol, Trim: trimOn,
				Nodes: nodes, WorkersPerNode: 2,
				Remap: remap, Comm: comm,
			})
			if err != nil {
				t.Fatalf("%s trim=%v: %v", name, trimOn, err)
			}
			compareFactors(t, name, ref, mm)
			if rep.Cluster.Executed != rep.Potrf+rep.Trsm+rep.Syrk+rep.Gemm {
				t.Fatalf("%s: executed %d tasks, graph has %d", name,
					rep.Cluster.Executed, rep.Potrf+rep.Trsm+rep.Syrk+rep.Gemm)
			}
			// A multi-node run must actually communicate.
			if tot := comm.Snapshot().Totals(); tot.MsgsSent == 0 {
				t.Fatalf("%s: no messages on a %d-node run", name, nodes)
			}
		}
	}
}

func compareFactors(t *testing.T, name string, ref, got *tilemat.Matrix) {
	t.Helper()
	if ref.NT != got.NT {
		t.Fatalf("%s: NT %d vs %d", name, got.NT, ref.NT)
	}
	for i := 0; i < ref.NT; i++ {
		for j := 0; j <= i; j++ {
			if !tilesIdentical(ref.At(i, j), got.At(i, j)) {
				t.Fatalf("%s: tile (%d,%d) differs from shared-memory factor (kind %v vs %v, rank %d vs %d)",
					name, i, j, got.At(i, j).Kind, ref.At(i, j).Kind, got.At(i, j).Rank(), ref.At(i, j).Rank())
			}
		}
	}
}

// TestDistributedRemapShips checks the band/diamond remaps actually
// exercise the ship path: with Exec ≠ Data some tiles execute away from
// their owner, so remap ship traffic must be non-zero — and under
// owner-computes it must be exactly zero.
func TestDistributedRemapShips(t *testing.T) {
	const n, b, nodes = 320, 32, 4
	const tol = 1e-7
	base, _ := rbfMatrix(t, n, b, 4, tol)
	for name, remap := range remapsUnderTest(nodes) {
		mm := base.Clone()
		comm := obs.NewCommTracker(nodes)
		if _, err := FactorizeDistributed(mm, DistOptions{
			Tol: tol, Trim: true, Nodes: nodes, Remap: remap, Comm: comm,
		}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ships := comm.Snapshot().Totals().ShipMsgs
		if remap.Exec == nil && ships != 0 {
			t.Fatalf("%s: %d ship messages under owner-computes", name, ships)
		}
		if remap.Exec != nil && ships == 0 {
			t.Fatalf("%s: remapped execution but zero ship traffic", name)
		}
	}
}

// TestDistributedSPDFailure: a non-SPD matrix must surface the POTRF
// error through the distributed abort path.
func TestDistributedSPDFailure(t *testing.T) {
	const n, b, nodes = 128, 32, 2
	base, _ := rbfMatrix(t, n, b, 4, 1e-7)
	// Wreck a diagonal tile so a mid-DAG POTRF fails.
	d := base.At(2, 2).D
	for i := 0; i < d.Rows; i++ {
		d.Data[i*d.Stride+i] = -1
	}
	_, err := FactorizeDistributed(base, DistOptions{
		Tol: 1e-7, Trim: true, Nodes: nodes,
		Remap: dist.Remap{Data: dist.TwoDBC{P: nodes, Q: 1}},
	})
	if err == nil || !strings.Contains(err.Error(), "potrf") {
		t.Fatalf("want potrf error, got %v", err)
	}
}

// TestDistributedTrace: the virtual cluster returns one compute record
// per executed task on its node worker's track and one comm record per
// received message on its node's comm track, and the records export as
// a valid Chrome trace.
func TestDistributedTrace(t *testing.T) {
	const n, b, nodes, workers = 320, 32, 4, 2
	const tol = 1e-7
	m, _ := rbfMatrix(t, n, b, 4, tol)
	remap := remapsUnderTest(nodes)["diamond"]
	comm := obs.NewCommTracker(nodes)
	rep, err := FactorizeDistributed(m, DistOptions{
		Tol: tol, Trim: true, Nodes: nodes, WorkersPerNode: workers, Remap: remap, Comm: comm,
	})
	if err != nil {
		t.Fatal(err)
	}
	var compute, msgs int
	commNodes := make([]bool, nodes)
	for _, r := range rep.Cluster.Trace {
		if r.Worker >= nodes*workers {
			msgs++
			if r.Worker >= nodes*workers+nodes || r.Info != nil || !r.Comm || int(r.Node) != r.Worker-nodes*workers {
				t.Fatalf("comm record %+v off the comm tracks", r)
			}
			commNodes[r.Node] = true
			continue
		}
		if r.Comm {
			t.Fatalf("compute record %s marked as comm", r.Label)
		}
		compute++
		if r.Info == nil {
			t.Fatalf("compute record %s carries no annotation", r.Label)
		}
		// The task runs at the executing rank of the tile it writes.
		if node := r.Worker / workers; node != remap.ExecRankOf(int(r.Info.M), int(r.Info.N)) {
			t.Fatalf("%s on track %d, node %d", r.Label, r.Worker, node)
		}
	}
	if tasks := rep.Potrf + rep.Trsm + rep.Syrk + rep.Gemm; compute != tasks || compute != rep.Cluster.Executed {
		t.Fatalf("%d compute records for %d tasks (%d executed)", compute, tasks, rep.Cluster.Executed)
	}
	if recv := rep.Cluster.Comm.Totals().MsgsRecv; msgs == 0 || uint64(msgs) != recv {
		t.Fatalf("%d comm records for %d received messages", msgs, recv)
	}
	// Every view names a comm track after its node and counts only the
	// P·W worker tracks as workers.
	events := runtime.Events(rep.Cluster.Trace)
	sum := obs.Summarize(events)
	if sum.Workers != nodes*workers {
		t.Fatalf("summary counts %d workers, want %d", sum.Workers, nodes*workers)
	}
	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, events, nil); err != nil {
		t.Fatal(err)
	}
	gantt := obs.Gantt(events, 100)
	for _, v := range []struct{ name, text, worker string }{
		{"summary", sum.String(), "worker %d"},
		{"gantt", gantt, "w%d "},
		{"chrome", buf.String(), "worker %d"},
	} {
		for node, seen := range commNodes {
			if want := fmt.Sprintf("node %d comm", node); seen && !strings.Contains(v.text, want) {
				t.Errorf("%s view lacks %q:\n%s", v.name, want, v.text)
			}
		}
		if bad := fmt.Sprintf(v.worker, nodes*workers); strings.Contains(v.text, bad) {
			t.Errorf("%s view labels a comm track %q:\n%s", v.name, bad, v.text)
		}
	}
	tc, err := obs.ValidateChromeTrace(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if tc.Spans != compute+msgs || tc.Counters != 0 {
		t.Fatalf("exported %+v for %d records", tc, compute+msgs)
	}
}
