package trace

import (
	"context"
	"strings"
	"testing"
	"time"

	"tlrchol/internal/dense"
	"tlrchol/internal/obs"
	"tlrchol/internal/runtime"
)

func rec(label string, worker int, start, dur time.Duration) runtime.TaskRecord {
	return runtime.TaskRecord{Label: label, Worker: worker, Start: start, Duration: dur}
}

func TestClassExtraction(t *testing.T) {
	cases := map[string]string{
		"gemm(3,5,1)":        "gemm",
		"potrf(2)/trsm(0,1)": "potrf",
		"plain":              "plain",
		"syrk(1,2)":          "syrk",
	}
	for label, want := range cases {
		if got := Class(label); got != want {
			t.Fatalf("Class(%q) = %q, want %q", label, got, want)
		}
	}
}

func TestAnalyze(t *testing.T) {
	recs := []runtime.TaskRecord{
		rec("potrf(0)", 0, 0, 10*time.Millisecond),
		rec("trsm(0,1)", 1, 10*time.Millisecond, 5*time.Millisecond),
		rec("trsm(0,2)", 0, 10*time.Millisecond, 5*time.Millisecond),
		rec("gemm(0,2,1)", 1, 15*time.Millisecond, 5*time.Millisecond),
	}
	s := Analyze(recs)
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
	recs := []runtime.TaskRecord{
		rec("potrf(0)", 0, 0, 10*time.Millisecond),
		rec("gemm(0,2,1)", 1, 10*time.Millisecond, 10*time.Millisecond),
	}
	g := Gantt(recs, 20)
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
	recs := []runtime.TaskRecord{
		rec("potrf(0)", 0, 0, 10*time.Millisecond),
		// Zero-duration join task exactly at the makespan.
		rec("join(0)", 1, 10*time.Millisecond, 0),
		// Sub-column task in the middle of the run.
		rec("trsm(0,1)", 1, 5*time.Millisecond, time.Microsecond),
	}
	g := Gantt(recs, 20)
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
	recs := []runtime.TaskRecord{rec("gemm(0,1,0)", 0, 0, 8*time.Millisecond)}
	g := Gantt(recs, 16)
	row := strings.TrimRight(strings.Split(g, "\n")[0], "|\n")
	if strings.Contains(row, ".") {
		t.Fatalf("full-makespan task should fill every column:\n%s", g)
	}
}

func TestEndToEndWithRuntime(t *testing.T) {
	labels := []string{"potrf(0)", "trsm(0,1)"}
	g := &runtime.Graph{LabelFunc: func(id int) string { return labels[id] }}
	g.Dep(g.Add(2), g.Add(1))
	g.Observe(nil)
	sleep := func(int, int, *dense.Workspace) error { time.Sleep(time.Millisecond); return nil }
	if _, err := g.Run(context.Background(), 2, sleep); err != nil {
		t.Fatal(err)
	}
	recs := g.Trace()
	if len(recs) != 2 {
		t.Fatalf("expected 2 records, got %d", len(recs))
	}
	s := Analyze(recs)
	if s.Makespan < 2*time.Millisecond {
		t.Fatalf("makespan too small: %v", s.Makespan)
	}
	if Gantt(recs, 30) == "" {
		t.Fatalf("gantt should render")
	}
}

// TestEventViews checks the event-based entry points directly: spans
// mix with counter and instant events (as in a real obs stream), and
// the non-span events must not disturb the analysis or the chart.
func TestEventViews(t *testing.T) {
	evs := []obs.Event{
		{Kind: obs.KindSpan, Name: "potrf(0)", Worker: 0, Start: 0, Dur: 10 * time.Millisecond},
		{Kind: obs.KindCounter, Name: "ready_queue", Worker: -1, Start: time.Millisecond, Value: 3},
		{Kind: obs.KindSpan, Name: "trsm(0,1)", Worker: 1, Start: 10 * time.Millisecond, Dur: 10 * time.Millisecond},
		{Kind: obs.KindInstant, Name: "pool_miss", Worker: -1, Start: 2 * time.Millisecond, Value: 1},
	}
	s := AnalyzeEvents(evs)
	if s.Makespan != 20*time.Millisecond || s.Workers != 2 {
		t.Fatalf("event analysis wrong: %+v", s)
	}
	g := GanttEvents(evs, 20)
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
	recs := []runtime.TaskRecord{
		{Label: "gemm(0,1,0)", Worker: 1, Start: 0, Duration: time.Millisecond},
		{Label: "syrk(0,1)", Worker: 0, Start: 0, Duration: time.Millisecond},
		{Label: "trsm(0,1)", Worker: 2, Start: time.Millisecond, Duration: time.Millisecond},
		{Label: "potrf(0)", Worker: 0, Start: time.Millisecond, Duration: time.Millisecond},
	}
	want := Analyze(recs).String()
	for i := 0; i < 50; i++ {
		if got := Analyze(recs).String(); got != want {
			t.Fatalf("nondeterministic summary:\n%s\nvs\n%s", got, want)
		}
	}
	s := Analyze(recs)
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
