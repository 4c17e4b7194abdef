package main

import (
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"tlrchol/internal/obs"
)

// The benchmark's own tracing: a span around each call into a layer,
// recorded from outside the layer, kept in memory and written out when the
// run ends. Spans inside the program are a later change.

// span is one timed interval. Spans of one pass or one request share op;
// parent is the id of the span that caused this one (0: none).
type span struct {
	name       string
	id, parent int32
	op         int32
	// track is the row of the trace viewer: 0 the benchmark's main line,
	// 1 calls made by the layers' own workers, 2+w runtime worker w or
	// client w.
	track      int32
	start, end time.Duration
}

// recorder holds the spans of a traced run. A nil *recorder records
// nothing, which is how untraced rounds run the same code.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// now is the offset of the present from the trace origin.
func (r *recorder) now() time.Duration {
	if r == nil {
		return 0
	}
	return time.Since(r.t0)
}

// add records a finished span and returns its id.
func (r *recorder) add(name string, parent, op, track int32, start, end time.Duration) int32 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int32(len(r.spans) + 1)
	r.spans = append(r.spans, span{name, id, parent, op, track, start, end})
	return id
}

// open reserves a span whose end is not yet known, so children can name
// it as their parent; close sets the end.
func (r *recorder) open(name string, parent, op, track int32) int32 {
	if r == nil {
		return 0
	}
	now := r.now()
	return r.add(name, parent, op, track, now, now)
}

func (r *recorder) close(id int32) {
	if r == nil {
		return
	}
	now := r.now()
	r.mu.Lock()
	r.spans[id-1].end = now
	r.mu.Unlock()
}

// layerTime is the time of all spans of one name.
type layerTime struct {
	count       int
	total, self time.Duration
}

// selfTime is a span's duration minus the part of its interval that its
// child spans cover. Children on parallel workers overlap, so the covered
// part is the union of their intervals, not their sum.
func selfTime(s span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
	covered, edge := time.Duration(0), s.start
	for _, k := range kids {
		from, to := max(k.start, edge), min(k.end, s.end)
		if to > from {
			covered += to - from
			edge = to
		}
	}
	return s.end - s.start - covered
}

// selfOf returns the self time of the span with the given id.
func (r *recorder) selfOf(id int32) time.Duration {
	var kids []span
	for _, s := range r.spans {
		if s.parent == id {
			kids = append(kids, s)
		}
	}
	return selfTime(r.spans[id-1], kids)
}

// selfTimes returns, per span name, the summed duration and self time.
func (r *recorder) selfTimes() map[string]layerTime {
	children := make(map[int32][]span)
	for _, s := range r.spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	out := make(map[string]layerTime)
	for _, s := range r.spans {
		lt := out[s.name]
		lt.count++
		lt.total += s.end - s.start
		lt.self += selfTime(s, children[s.id])
		out[s.name] = lt
	}
	return out
}

// writeFile writes the spans as Chrome trace-event JSON. The exporter's
// span annotations carry the span's identity: k the span id, m the parent
// span id, n the operation id.
func (r *recorder) writeFile(path string, meta map[string]any) error {
	events := make([]obs.Event, len(r.spans))
	for i, s := range r.spans {
		events[i] = obs.Event{Kind: obs.KindSpan, Name: s.name, Worker: s.track,
			Start: s.start, Dur: s.end - s.start,
			Info: obs.SpanInfo{K: s.id, M: s.parent, N: s.op}, HasInfo: true}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(f, events, meta); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanMetrics prints each span name's time and self time and emits the
// benchmark's own per-layer metrics.
func (r *report) spanMetrics() {
	times := r.rec.selfTimes()
	names := make([]string, 0, len(times))
	for n := range times {
		names = append(names, n)
	}
	sort.Strings(names)
	r.printf("spans (name, count, total s, self s):")
	for _, n := range names {
		lt := times[n]
		r.printf("  %-28s %6d %10.4f %10.4f", n, lt.count, lt.total.Seconds(), lt.self.Seconds())
	}
	r.set("bench.spans", "count", float64(len(r.rec.spans)))

	// The phase shares of an operation: what part of all spans of one name
	// their direct children of each name cover, and what is left as self.
	index := make(map[int32]string, len(r.rec.spans))
	for _, s := range r.rec.spans {
		index[s.id] = s.name
	}
	shares := map[string]map[string]time.Duration{}
	for _, s := range r.rec.spans {
		if parent, ok := index[s.parent]; ok {
			if shares[parent] == nil {
				shares[parent] = map[string]time.Duration{}
			}
			shares[parent][s.name] += s.end - s.start
		}
	}
	for _, parent := range names {
		if parent == "core.factorize" || parent == "tilemat.compress" || shares[parent] == nil {
			continue // their children run on two workers and sum past the span
		}
		line := fmt.Sprintf("shares of %s:", parent)
		kids := make([]string, 0, len(shares[parent]))
		for k := range shares[parent] {
			kids = append(kids, k)
		}
		sort.Strings(kids)
		for _, k := range kids {
			line += fmt.Sprintf(" %s=%.3f", k, shares[parent][k].Seconds()/times[parent].total.Seconds())
		}
		r.printf("%s self=%.3f", line, times[parent].self.Seconds()/times[parent].total.Seconds())
	}
}
