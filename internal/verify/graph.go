package verify

import "tlrchol/internal/runtime"

// CheckGraph statically verifies a runtime.Graph before execution:
//
//   - every edge points to a higher task id: ids are the insertion
//     order, which the runtime requires to be topological, so this
//     also proves the graph acyclic;
//   - no self-dependencies or duplicate edges (a duplicate inflates
//     the wait count symmetrically, so it is legal — but it usually
//     means a builder registered the same hazard twice);
//   - no isolated tasks in an otherwise connected graph (a task with
//     no predecessors and no successors in a graph that has edges is
//     usually a dependency the builder forgot);
//   - hazard completeness: replaying every task's declared accesses in
//     insertion order (the sequential semantics), each RAW, WAR and
//     WAW pair on a datum must be ordered by a directed path in the
//     graph. This is the serializability proof: if it holds, every
//     parallel schedule the runtime can produce computes the same
//     result as the sequential program. A graph without an AccessFunc
//     declares nothing, so the check is vacuous there.
//
// The graph may be checked before or after Run; only the static
// structure is inspected.
func CheckGraph(g *runtime.Graph) Findings {
	var fs Findings
	n := g.Tasks()
	if n == 0 {
		return fs
	}

	// Structural sweep: in-degrees, self-loops, backward and duplicate
	// edges.
	indeg := make([]int, n)
	dupEdges, backward := 0, 0
	for i := 0; i < n; i++ {
		succs := g.Successors(i)
		seen := make(map[int32]bool, len(succs))
		for _, s := range succs {
			if int(s) == i {
				fs.add("graph", Error, "task %q depends on itself", g.Label(i))
				continue
			}
			if int(s) < i {
				if backward++; backward <= 3 {
					fs.add("graph", Error, "edge %q -> %q points to an earlier task: a cycle, or an order the runtime cannot run",
						g.Label(i), g.Label(int(s)))
				}
				continue
			}
			if seen[s] {
				dupEdges++
				if dupEdges <= 3 {
					fs.add("graph", Warning, "duplicate edge %q -> %q", g.Label(i), g.Label(int(s)))
				}
				continue
			}
			seen[s] = true
			indeg[s]++
		}
	}
	if dupEdges > 3 {
		fs.add("graph", Warning, "%d duplicate edges total", dupEdges)
	}
	if backward > 0 {
		return fs // the reachability below relies on ids being topological
	}

	// Isolated tasks are only suspicious when the graph has edges at
	// all: a pure fan-out graph (e.g. tile-by-tile compression) is all
	// roots by design.
	if g.Edges() > 0 {
		isolated := 0
		example := ""
		for i := 0; i < n; i++ {
			if indeg[i] == 0 && len(g.Successors(i)) == 0 {
				if isolated == 0 {
					example = g.Label(i)
				}
				isolated++
			}
		}
		if isolated > 0 {
			fs.add("graph", Warning,
				"%d isolated task(s) in a graph with %d edges (e.g. %q)",
				isolated, g.Edges(), example)
		}
	}

	fs = append(fs, checkHazards(g)...)
	return fs
}

// checkHazards replays declared accesses in task-insertion order and
// verifies every implied hazard pair is ordered by a path in the graph.
// Every edge must point to a higher id.
func checkHazards(g *runtime.Graph) Findings {
	var fs Findings
	n := g.Tasks()
	if g.AccessFunc == nil {
		return fs
	}

	// desc[i] holds the set of tasks reachable from i (excluding i),
	// as a bitset, computed in reverse id (topological) order.
	words := (n + 63) / 64
	desc := make([][]uint64, n)
	for id := n - 1; id >= 0; id-- {
		set := make([]uint64, words)
		for _, s := range g.Successors(id) {
			if int(s) == id {
				continue
			}
			set[s/64] |= 1 << (uint(s) % 64)
			for w, v := range desc[s] {
				set[w] |= v
			}
		}
		desc[id] = set
	}
	reaches := func(from, to int) bool {
		return desc[from][to/64]&(1<<(uint(to)%64)) != 0
	}

	type state struct {
		lastWrite  int // -1: none yet
		readsSince []int
	}
	data := map[interface{}]*state{}
	hazards := 0
	require := func(kind string, datum interface{}, pred, succ int) {
		if pred < 0 || pred == succ || reaches(pred, succ) {
			return
		}
		hazards++
		if hazards <= 5 {
			fs.add("graph", Error, "missing %s ordering on %v: no path %q -> %q",
				kind, datum, g.Label(pred), g.Label(succ))
		}
	}
	for i := 0; i < n; i++ {
		for _, a := range g.AccessFunc(i) {
			st := data[a.Data]
			if st == nil {
				st = &state{lastWrite: -1}
				data[a.Data] = st
			}
			switch a.Mode {
			case runtime.Read:
				require("RAW", a.Data, st.lastWrite, i)
				st.readsSince = append(st.readsSince, i)
			case runtime.Write:
				require("WAW", a.Data, st.lastWrite, i)
				for _, r := range st.readsSince {
					require("WAR", a.Data, r, i)
				}
				st.lastWrite = i
				st.readsSince = st.readsSince[:0]
			}
		}
	}
	if hazards > 5 {
		fs.add("graph", Error, "%d missing hazard orderings total", hazards)
	}
	return fs
}
