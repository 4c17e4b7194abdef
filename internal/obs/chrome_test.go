package obs

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

func fixtureEvents() []Event {
	return []Event{
		{Kind: KindSpan, Name: "potrf(0)", Worker: 0, Start: 0, Dur: 1500 * time.Microsecond,
			Info: SpanInfo{K: 0, M: 0, N: 0, RankIn: 128, RankOut: 128, Flops: 715145}, HasInfo: true},
		{Kind: KindCounter, Name: "ready_queue", Worker: -1, Start: 200 * time.Microsecond, Value: 3},
		{Kind: KindSpan, Name: "trsm(0,1)", Worker: 1, Start: 1500 * time.Microsecond, Dur: 800 * time.Microsecond,
			Info: SpanInfo{K: 0, M: 1, N: 0, RankIn: 17, RankOut: 17, Flops: 278528}, HasInfo: true},
		{Kind: KindSpan, Name: "gemm(0,2,1)", Worker: 0, Start: 2300 * time.Microsecond, Dur: 400 * time.Microsecond,
			Info: SpanInfo{K: 0, M: 2, N: 1, RankIn: 0, RankOut: 9, Flops: 99999}, HasInfo: true},
	}
}

// TestChromeTraceGolden pins the exporter's byte-exact output so schema
// drift (field renames, ordering changes) is caught. Regenerate with
// `go test ./internal/obs -run Golden -update` after intentional edits.
func TestChromeTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, fixtureEvents(), map[string]any{"n": 2048, "b": 128}); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "chrome_golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("golden file missing (run with -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("exporter output drifted from golden file:\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}

func TestChromeTraceValidates(t *testing.T) {
	var buf bytes.Buffer
	// Feed events deliberately out of order: the exporter must sort.
	evs := fixtureEvents()
	evs[0], evs[3] = evs[3], evs[0]
	if err := WriteChromeTrace(&buf, evs, nil); err != nil {
		t.Fatal(err)
	}
	tc, err := ValidateChromeTrace(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if tc.Spans != 3 || tc.Counters != 1 || tc.Workers != 2 {
		t.Fatalf("trace check wrong: %+v", tc)
	}
}

func TestValidateRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"not json":      `{"traceEvents": [}`,
		"empty":         `{"traceEvents": []}`,
		"nameless":      `{"traceEvents": [{"ph":"X","ts":0,"dur":1,"tid":0}]}`,
		"bad phase":     `{"traceEvents": [{"name":"a","ph":"Z","ts":0}]}`,
		"negative ts":   `{"traceEvents": [{"name":"a","ph":"C","ts":-1}]}`,
		"span sans dur": `{"traceEvents": [{"name":"a","ph":"X","ts":0}]}`,
		"non-monotonic": `{"traceEvents": [{"name":"a","ph":"C","ts":5},{"name":"b","ph":"C","ts":1}]}`,
		"orphan track":  `{"traceEvents": [{"name":"a","ph":"X","ts":0,"dur":1,"tid":7}]}`,
	}
	for name, doc := range cases {
		if _, err := ValidateChromeTrace([]byte(doc)); err == nil {
			t.Fatalf("%s: validator accepted malformed trace", name)
		}
	}
}
