// Package obs is the observability layer of the TLR Cholesky
// framework: the event stream that task timelines render from, a
// sharded metrics registry, critical-path attribution over executed
// task DAGs, request traces and a flight recorder. It reproduces the
// instrumentation lens the paper's authors get from their companion
// ProTools tooling — per-worker timelines, per-class breakdowns,
// rank/memory statistics and critical-path stalls.
//
// A factorization's timeline is recorded in one place: the executors
// (package runtime, the virtual cluster and the simulator) keep one
// record per executed task, and runtime.Events turns the records into
// this package's events after the run has joined. The views here —
// Summarize, Gantt and the Chrome exporter — render any event stream,
// so shared-memory, distributed and simulated runs print alike.
//
// Metrics cost one atomic add into a cache-line-padded per-worker
// shard, so the kernels record them on every run.
//
// obs depends only on the standard library so every other package —
// the runtime, the dense kernels, the tile containers — can import it
// without cycles.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Kind discriminates event flavours in the trace stream.
type Kind uint8

const (
	// KindSpan is a task execution interval (start + duration).
	KindSpan Kind = iota
	// KindCounter is a sampled counter value (ready-queue depth),
	// rendered as a counter track by the Chrome trace exporter.
	KindCounter
)

// SpanInfo carries the kernel-level annotations of one task span: tile
// coordinates, ranks in/out and the effective flop count. Graph
// builders attach one to each task only when the run collects its
// trace, and the task body fills it in; the task's record carries it
// into the span event, so the untraced path never allocates it.
type SpanInfo struct {
	// K, M, N are the task's tile coordinates (panel, row, column).
	K, M, N int32
	// RankIn is the rank of the written tile before the kernel ran,
	// RankOut after (fill-in shows as RankIn == 0, RankOut > 0).
	RankIn, RankOut int32
	// Flops is the effective (data-sparse) flop count of the kernel.
	Flops float64
}

// Event is one entry of the trace stream.
type Event struct {
	Kind Kind
	// Name is the task label for spans ("gemm(3,5,1)") or the counter
	// name ("ready_queue").
	Name string
	// Worker is the worker/process track the event belongs to; -1 means
	// no particular worker (background/shared events).
	Worker int32
	// Start is the offset from the trace origin; Dur is the span
	// duration (zero for counters).
	Start, Dur time.Duration
	// Value is the counter sample.
	Value float64
	// Info holds kernel annotations when HasInfo is set.
	Info    SpanInfo
	HasInfo bool
}

// ClassOf extracts the task class from a label: "gemm(3,5,1)" → "gemm",
// "potrf(2)/trsm(0,1)" → "potrf".
func ClassOf(label string) string {
	if i := strings.IndexAny(label, "(/"); i >= 0 {
		return label[:i]
	}
	return label
}

// ClassStat aggregates the spans of one task class.
type ClassStat struct {
	Class string
	Count int
	Total time.Duration
	Max   time.Duration
}

// Summary is the per-track utilization and per-class time breakdown of
// one event stream.
type Summary struct {
	Makespan time.Duration
	Workers  int
	// Utilization is per-track busy fraction of the makespan.
	Utilization []float64
	Classes     []ClassStat
}

// Summarize analyzes the span events of a stream (counters are
// ignored). The output is deterministic for a given stream: per-track
// rows are indexed by track and class stats are totally ordered
// (busiest first, class name breaking ties), so repeated analyses of
// one trace render identically.
func Summarize(events []Event) Summary {
	var s Summary
	maxW := -1
	classes := map[string]*ClassStat{}
	for _, e := range events {
		if e.Kind != KindSpan {
			continue
		}
		s.Makespan = max(s.Makespan, e.Start+e.Dur)
		maxW = max(maxW, int(e.Worker))
		c := ClassOf(e.Name)
		cs := classes[c]
		if cs == nil {
			cs = &ClassStat{Class: c}
			classes[c] = cs
		}
		cs.Count++
		cs.Total += e.Dur
		cs.Max = max(cs.Max, e.Dur)
	}
	s.Workers = maxW + 1
	busy := make([]time.Duration, s.Workers)
	for _, e := range events {
		if e.Kind == KindSpan && e.Worker >= 0 {
			busy[e.Worker] += e.Dur
		}
	}
	s.Utilization = make([]float64, s.Workers)
	for w := range s.Utilization {
		if s.Makespan > 0 {
			s.Utilization[w] = float64(busy[w]) / float64(s.Makespan)
		}
	}
	s.Classes = make([]ClassStat, 0, len(classes))
	for _, cs := range classes {
		s.Classes = append(s.Classes, *cs)
	}
	sort.Slice(s.Classes, func(i, j int) bool {
		if s.Classes[i].Total != s.Classes[j].Total {
			return s.Classes[i].Total > s.Classes[j].Total
		}
		return s.Classes[i].Class < s.Classes[j].Class
	})
	return s
}

// String renders the summary.
func (s Summary) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "makespan %v, %d workers\n", s.Makespan.Round(time.Microsecond), s.Workers)
	for w, u := range s.Utilization {
		fmt.Fprintf(&sb, "  worker %d: %5.1f%% busy\n", w, 100*u)
	}
	for _, c := range s.Classes {
		fmt.Fprintf(&sb, "  %-8s %6d tasks  total %v  max %v\n",
			c.Class, c.Count, c.Total.Round(time.Microsecond), c.Max.Round(time.Microsecond))
	}
	return sb.String()
}

// Gantt renders the span events of a stream as an ASCII timeline: one
// row per track, width columns, each cell showing the class initial of
// the task occupying that time slot ('.' = idle). Useful for eyeballing
// pipeline stalls and critical-path bubbles.
//
// Every span paints at least one cell: a zero-duration task (or one
// shorter than a column) shows as a single mark rather than vanishing,
// and a task starting at the very end of the makespan lands in the last
// column instead of being clamped off the chart.
func Gantt(events []Event, width int) string {
	width = max(width, 10)
	var makespan time.Duration
	maxW := 0
	for _, e := range events {
		if e.Kind != KindSpan || e.Worker < 0 {
			continue
		}
		makespan = max(makespan, e.Start+e.Dur)
		maxW = max(maxW, int(e.Worker))
	}
	if makespan == 0 {
		return ""
	}
	rows := make([][]byte, maxW+1)
	for i := range rows {
		rows[i] = []byte(strings.Repeat(".", width))
	}
	for _, e := range events {
		if e.Kind != KindSpan || e.Worker < 0 {
			continue
		}
		ch := byte('?')
		if c := ClassOf(e.Name); len(c) > 0 {
			ch = c[0]
		}
		// Clamp into [0, width) and guarantee at least one cell: a span
		// starting exactly at the makespan would otherwise compute
		// from == width and paint nothing.
		from := min(int(int64(e.Start)*int64(width)/int64(makespan)), width-1)
		to := max(min(int(int64(e.Start+e.Dur)*int64(width)/int64(makespan)), width-1), from)
		for x := from; x <= to; x++ {
			rows[e.Worker][x] = ch
		}
	}
	var sb strings.Builder
	for w, row := range rows {
		fmt.Fprintf(&sb, "w%-2d |%s|\n", w, row)
	}
	return sb.String()
}
