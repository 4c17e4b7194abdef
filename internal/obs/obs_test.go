package obs

import (
	"strings"
	"testing"
	"time"
)

// TestDisabledHotPathZeroAlloc pins the overhead contract of the
// instrumentation the kernels run on every factorization: metrics held
// as direct pointers perform zero allocations. This is the gate
// scripts/check.sh runs so instrumentation creep cannot silently tax
// untraced runs.
func TestDisabledHotPathZeroAlloc(t *testing.T) {
	reg := NewRegistry(4)
	c := reg.Counter("c")
	g := reg.Gauge("g")
	h := reg.Histogram("h", 4, 16, 64)
	avg := testing.AllocsPerRun(1000, func() {
		c.Add(3, 1)
		g.Set(7)
		h.Observe(2, 12)
	})
	if avg != 0 {
		t.Fatalf("disabled hot path allocates %.1f allocs/op, want 0", avg)
	}
}

func TestClassOf(t *testing.T) {
	cases := map[string]string{
		"gemm(3,5,1)":        "gemm",
		"potrf(2)/trsm(0,1)": "potrf",
		"plain":              "plain",
		"compress(1,0)":      "compress",
	}
	for in, want := range cases {
		if got := ClassOf(in); got != want {
			t.Fatalf("ClassOf(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestClassExtraction checks the labels the trace summaries group by,
// including a nested-POTRF label and the SYRK class.
func TestClassExtraction(t *testing.T) {
	cases := map[string]string{
		"gemm(3,5,1)":        "gemm",
		"potrf(2)/trsm(0,1)": "potrf",
		"plain":              "plain",
		"syrk(1,2)":          "syrk",
	}
	for label, want := range cases {
		if got := ClassOf(label); got != want {
			t.Fatalf("ClassOf(%q) = %q, want %q", label, got, want)
		}
	}
}

func span(label string, worker int32, start, dur time.Duration) Event {
	return Event{Kind: KindSpan, Name: label, Worker: worker, Start: start, Dur: dur}
}

func TestAnalyze(t *testing.T) {
	evs := []Event{
		span("potrf(0)", 0, 0, 10*time.Millisecond),
		span("trsm(0,1)", 1, 10*time.Millisecond, 5*time.Millisecond),
		span("trsm(0,2)", 0, 10*time.Millisecond, 5*time.Millisecond),
		span("gemm(0,2,1)", 1, 15*time.Millisecond, 5*time.Millisecond),
	}
	s := Summarize(evs)
	if s.Makespan != 20*time.Millisecond {
		t.Fatalf("makespan %v", s.Makespan)
	}
	if s.Workers != 2 {
		t.Fatalf("workers %d", s.Workers)
	}
	if s.Utilization[0] != 0.75 || s.Utilization[1] != 0.5 {
		t.Fatalf("utilization %v", s.Utilization)
	}
	if s.Classes[0].Class != "potrf" && s.Classes[0].Class != "trsm" {
		t.Fatalf("classes should be sorted by total time: %+v", s.Classes)
	}
	var trsm *ClassStat
	for i := range s.Classes {
		if s.Classes[i].Class == "trsm" {
			trsm = &s.Classes[i]
		}
	}
	if trsm == nil || trsm.Count != 2 || trsm.Total != 10*time.Millisecond {
		t.Fatalf("trsm aggregation wrong: %+v", trsm)
	}
	if !strings.Contains(s.String(), "trsm") {
		t.Fatalf("summary rendering missing class")
	}
}

func TestGantt(t *testing.T) {
	g := Gantt([]Event{
		span("potrf(0)", 0, 0, 10*time.Millisecond),
		span("gemm(0,2,1)", 1, 10*time.Millisecond, 10*time.Millisecond),
	}, 20)
	lines := strings.Split(strings.TrimRight(g, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("expected 2 worker rows:\n%s", g)
	}
	if !strings.Contains(lines[0], "p") || !strings.Contains(lines[1], "g") {
		t.Fatalf("class initials missing:\n%s", g)
	}
	// Worker 1 idles during the first half.
	if !strings.Contains(lines[1], ".") {
		t.Fatalf("idle time not rendered:\n%s", g)
	}
}

func TestGanttEmpty(t *testing.T) {
	if Gantt(nil, 40) != "" {
		t.Fatalf("empty trace should render empty")
	}
}

// TestGanttZeroDuration pins the regression where short or
// zero-duration tasks vanished from the chart: a span at the very end
// of the makespan computed a start column == width and painted no
// cells. Every task must paint at least one cell, and the last column
// must be reachable.
func TestGanttZeroDuration(t *testing.T) {
	g := Gantt([]Event{
		span("potrf(0)", 0, 0, 10*time.Millisecond),
		// Zero-duration join task exactly at the makespan.
		span("join(0)", 1, 10*time.Millisecond, 0),
		// Sub-column task in the middle of the run.
		span("trsm(0,1)", 1, 5*time.Millisecond, time.Microsecond),
	}, 20)
	lines := strings.Split(strings.TrimRight(g, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("expected 2 worker rows:\n%s", g)
	}
	if !strings.Contains(lines[1], "j") {
		t.Fatalf("zero-duration task at makespan end not painted:\n%s", g)
	}
	if !strings.HasSuffix(strings.TrimRight(lines[1], "|"), "j") {
		t.Fatalf("end-of-run task should land in the last column:\n%s", g)
	}
	if !strings.Contains(lines[1], "t") {
		t.Fatalf("sub-column task not painted:\n%s", g)
	}
}

// TestGanttLastColumnReachable: a task filling the whole makespan must
// reach the last column (the pre-fix clamp made column width-1
// unreachable for spans ending at the makespan).
func TestGanttLastColumnReachable(t *testing.T) {
	g := Gantt([]Event{span("gemm(0,1,0)", 0, 0, 8*time.Millisecond)}, 16)
	row := strings.TrimRight(strings.Split(g, "\n")[0], "|\n")
	if strings.Contains(row, ".") {
		t.Fatalf("full-makespan task should fill every column:\n%s", g)
	}
}

// TestEventViews: spans mix with counter events (as in a real stream),
// and the counters must not disturb the analysis or the chart.
func TestEventViews(t *testing.T) {
	evs := []Event{
		span("potrf(0)", 0, 0, 10*time.Millisecond),
		{Kind: KindCounter, Name: "ready_queue", Worker: -1, Start: time.Millisecond, Value: 3},
		span("trsm(0,1)", 1, 10*time.Millisecond, 10*time.Millisecond),
	}
	s := Summarize(evs)
	if s.Makespan != 20*time.Millisecond || s.Workers != 2 {
		t.Fatalf("event analysis wrong: %+v", s)
	}
	g := Gantt(evs, 20)
	if !strings.Contains(g, "p") || !strings.Contains(g, "t") {
		t.Fatalf("event gantt missing spans:\n%s", g)
	}
	if strings.Contains(g, "r") {
		t.Fatalf("counter events must not paint cells:\n%s", g)
	}
}

func TestAnalyzeDeterministic(t *testing.T) {
	// Equal-total classes exercise the tie-break: the summary must come
	// out identical however the internal maps iterate.
	evs := []Event{
		span("gemm(0,1,0)", 1, 0, time.Millisecond),
		span("syrk(0,1)", 0, 0, time.Millisecond),
		span("trsm(0,1)", 2, time.Millisecond, time.Millisecond),
		span("potrf(0)", 0, time.Millisecond, time.Millisecond),
	}
	want := Summarize(evs).String()
	for i := 0; i < 50; i++ {
		if got := Summarize(evs).String(); got != want {
			t.Fatalf("nondeterministic summary:\n%s\nvs\n%s", got, want)
		}
	}
	s := Summarize(evs)
	for i := 1; i < len(s.Classes); i++ {
		a, b := s.Classes[i-1], s.Classes[i]
		if a.Total < b.Total || (a.Total == b.Total && a.Class > b.Class) {
			t.Fatalf("class order violated at %d: %+v", i, s.Classes)
		}
	}
	if s.Workers != 3 || len(s.Utilization) != 3 {
		t.Fatalf("per-worker rows wrong: %+v", s)
	}
}
