package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Chrome trace-event export: renders an event stream as the JSON Object
// Format understood by Perfetto (ui.perfetto.dev) and chrome://tracing —
// one track ("thread") per worker for task spans and counter tracks for
// sampled scheduler values. Timestamps are microseconds from the trace
// origin.

type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent  `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	OtherData       map[string]any `json:"otherData,omitempty"`
}

func usec(d int64) float64 { return float64(d) / 1e3 }

// WriteChromeTrace renders events as Chrome trace-event JSON. Events
// are re-sorted by timestamp so the output is monotonic regardless of
// buffer merge order; meta lands in otherData (run parameters, commit).
func WriteChromeTrace(w io.Writer, events []Event, meta map[string]any) error {
	evs := append([]Event(nil), events...)
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].Start != evs[j].Start {
			return evs[i].Start < evs[j].Start
		}
		return evs[i].Worker < evs[j].Worker
	})

	// Track mapping: worker w → tid w; events without a worker (-1)
	// share a background track one past the highest worker.
	maxW := int32(-1)
	for _, e := range evs {
		if e.Worker > maxW {
			maxW = e.Worker
		}
	}
	bg := int(maxW) + 1
	tid := func(w int32) int {
		if w < 0 {
			return bg
		}
		return int(w)
	}

	out := chromeTrace{DisplayTimeUnit: "ms", OtherData: meta}
	seen := map[int]bool{}
	addThread := func(t int, name string) {
		if !seen[t] {
			seen[t] = true
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: "thread_name", Ph: "M", Pid: 0, Tid: t,
				Args: map[string]any{"name": name},
			})
		}
	}
	for _, e := range evs {
		switch {
		case e.Worker >= 0:
			addThread(int(e.Worker), trackName(e))
		case e.Kind != KindCounter:
			// Spans without a worker (request phases) share one named
			// track; counters render as counter tracks and need no
			// thread metadata.
			addThread(bg, "background")
		}
	}

	for _, e := range evs {
		switch e.Kind {
		case KindSpan:
			ce := chromeEvent{
				Name: e.Name, Cat: ClassOf(e.Name), Ph: "X",
				Ts: usec(int64(e.Start)), Pid: 0, Tid: tid(e.Worker),
			}
			d := usec(int64(e.Dur))
			ce.Dur = &d
			if e.HasInfo {
				ce.Args = map[string]any{
					"k": e.Info.K, "m": e.Info.M, "n": e.Info.N,
					"rank_in": e.Info.RankIn, "rank_out": e.Info.RankOut,
					"flops": e.Info.Flops,
				}
			}
			out.TraceEvents = append(out.TraceEvents, ce)
		case KindCounter:
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: e.Name, Ph: "C", Ts: usec(int64(e.Start)), Pid: 0, Tid: tid(e.Worker),
				Args: map[string]any{"value": e.Value},
			})
		}
	}

	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(out)
}

// TraceCheck summarizes a validated Chrome trace file.
type TraceCheck struct {
	// Spans and Counters count events by phase; Workers is the number
	// of distinct named worker tracks.
	Spans, Counters, Workers int
}

// ValidateChromeTrace parses data as Chrome trace-event JSON and checks
// the schema invariants the exporter guarantees: a traceEvents array,
// named events with known phases, non-negative monotonically
// non-decreasing timestamps, and spans mapped to named worker tracks.
// It is the verification backend of the CI observability smoke gate.
func ValidateChromeTrace(data []byte) (TraceCheck, error) {
	var tc TraceCheck
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   *float64       `json:"ts"`
			Dur  *float64       `json:"dur"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return tc, fmt.Errorf("obs: trace JSON unparseable: %w", err)
	}
	if len(doc.TraceEvents) == 0 {
		return tc, fmt.Errorf("obs: trace has no events")
	}
	threads := map[int]bool{}
	workers := map[int]bool{}
	lastTs := -1.0
	for i, e := range doc.TraceEvents {
		if e.Name == "" {
			return tc, fmt.Errorf("obs: event %d has no name", i)
		}
		switch e.Ph {
		case "M":
			if e.Name == "thread_name" {
				threads[e.Tid] = true
			}
			continue
		case "X":
			tc.Spans++
			if e.Dur == nil || *e.Dur < 0 {
				return tc, fmt.Errorf("obs: span %d (%s) has invalid dur", i, e.Name)
			}
			workers[e.Tid] = true
		case "C":
			tc.Counters++
		default:
			return tc, fmt.Errorf("obs: event %d (%s) has unknown phase %q", i, e.Name, e.Ph)
		}
		if e.Ts == nil || *e.Ts < 0 {
			return tc, fmt.Errorf("obs: event %d (%s) has invalid ts", i, e.Name)
		}
		if *e.Ts < lastTs {
			return tc, fmt.Errorf("obs: timestamps not monotonic at event %d (%s): %.3f after %.3f",
				i, e.Name, *e.Ts, lastTs)
		}
		lastTs = *e.Ts
	}
	// Check tracks in ascending order: with several uncovered tracks
	// the reported one must not depend on map iteration order.
	tracks := make([]int, 0, len(workers))
	for t := range workers {
		tracks = append(tracks, t)
	}
	sort.Ints(tracks)
	for _, t := range tracks {
		if !threads[t] {
			return tc, fmt.Errorf("obs: span track %d has no thread_name metadata", t)
		}
	}
	tc.Workers = len(workers)
	return tc, nil
}
