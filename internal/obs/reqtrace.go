package obs

import (
	"context"
	"sort"
	"sync/atomic"
	"time"
)

// Request-scoped tracing. A factorization's task records answer "what
// did this factorization do"; ReqTrace answers the serving question
// "why was *this request* slow". Every request of the solve service gets a
// ReqTrace carrying a unique id, a latency breakdown (coarse phases:
// queue, factor wait, batch window, substitution, ...) and — when span
// detail is enabled — a fixed-capacity lock-free span ring written by
// whichever goroutines do the request's work: the handler, the batch
// leader, the solve-plan workers, the factorization build.
//
// The design keeps the untraced path free:
//   - every entry point is nil-safe, so instrumented code never
//     branches on "is tracing on" — it just calls;
//   - with span detail off (spans == nil) Span is a two-compare no-op
//     and performs zero allocations, preserving the warm planned-solve
//     zero-allocation guarantee;
//   - with detail on, recording a span is one atomic increment to
//     claim a slot plus a struct store — no locks, no allocation (span
//     names are static strings, annotations ride the fixed SpanInfo).
//
// A ReqTrace moves through three phases with distinct ownership rules:
// during the request, spans come from any goroutine (the atomic ring
// makes that safe) while phases/tags are written only by the owning
// handler goroutine; Finish seals the summary; after the trace is
// handed to the FlightRecorder everything is read-only.

// PhaseDur is one component of a request's latency breakdown: a named
// interval at a start offset from the request's arrival.
type PhaseDur struct {
	Name  string
	Start time.Duration
	Dur   time.Duration
}

// Tag is one key/value annotation on a request (fingerprint prefix,
// cache hit/miss, batch width). A slice keeps insertion order, so
// rendering is deterministic without sorting a map.
type Tag struct {
	Key, Val string
}

// ReqTrace is the span context of one request. Create with
// NewReqTrace, thread through the request's context with
// ContextWithTrace, recover it in leaf code with TraceFrom.
type ReqTrace struct {
	// ID is the request's trace id (unique per process lifetime).
	ID string
	// Endpoint is the request's route ("/v1/solve").
	Endpoint string
	start    time.Time

	// spans is the fixed-capacity span ring; nil when span detail is
	// disabled. Slots are claimed with one atomic increment; events
	// past the capacity are counted in dropped instead of recorded.
	spans   []Event
	cur     atomic.Int64
	dropped atomic.Int64

	// Summary fields, written by the owning request goroutine (phases,
	// tags) and by Finish (status, E2E); read-only once the trace is
	// recorded in a FlightRecorder.
	Status int
	Err    string
	E2E    time.Duration
	Phases []PhaseDur
	Tags   []Tag
}

// NewReqTrace returns a live trace. spanCap sizes the span ring;
// spanCap <= 0 disables span detail (the trace still carries the id,
// phases and tags — the always-on breakdown path).
func NewReqTrace(id, endpoint string, spanCap int) *ReqTrace {
	rt := &ReqTrace{ID: id, Endpoint: endpoint, start: time.Now()}
	if spanCap > 0 {
		rt.spans = make([]Event, spanCap)
	}
	return rt
}

// Detailed reports whether the trace records span detail. Safe on nil.
func (r *ReqTrace) Detailed() bool { return r != nil && r.spans != nil }

// Now returns the offset from the request's arrival. Safe on nil.
func (r *ReqTrace) Now() time.Duration {
	if r == nil {
		return 0
	}
	return time.Since(r.start)
}

// Offset converts an absolute time into the trace's timeline. Safe on
// nil (zero).
func (r *ReqTrace) Offset(t time.Time) time.Duration {
	if r == nil {
		return 0
	}
	return t.Sub(r.start)
}

// Span records one completed interval from any goroutine: an atomic
// increment claims a ring slot, the event is stored in place. info is
// taken by value so callers build it on the stack (no escape, no
// allocation). No-op — zero work beyond two compares — when the trace
// is nil or span detail is off.
func (r *ReqTrace) Span(name string, worker int32, start, dur time.Duration, info SpanInfo, hasInfo bool) {
	if r == nil || r.spans == nil {
		return
	}
	i := r.cur.Add(1) - 1
	if i >= int64(len(r.spans)) {
		r.dropped.Add(1)
		return
	}
	r.spans[i] = Event{Kind: KindSpan, Name: name, Worker: worker, Start: start, Dur: dur, Info: info, HasInfo: hasInfo}
}

// Phase appends one latency-breakdown component. Unlike Span it is
// owned by the request's handler goroutine: appends are unsynchronized
// by design. Safe on nil.
func (r *ReqTrace) Phase(name string, start, dur time.Duration) {
	if r == nil {
		return
	}
	if dur < 0 {
		dur = 0
	}
	r.Phases = append(r.Phases, PhaseDur{Name: name, Start: start, Dur: dur})
}

// PhaseDur returns the total recorded duration of the named phase
// (zero when absent). Safe on nil.
func (r *ReqTrace) PhaseDur(name string) time.Duration {
	if r == nil {
		return 0
	}
	var d time.Duration
	for _, p := range r.Phases {
		if p.Name == name {
			d += p.Dur
		}
	}
	return d
}

// Tag annotates the request. Handler-goroutine-owned, like Phase.
// Safe on nil.
func (r *ReqTrace) Tag(key, val string) {
	if r == nil {
		return
	}
	r.Tags = append(r.Tags, Tag{Key: key, Val: val})
}

// TagVal returns the last value recorded for key, or "". Safe on nil.
func (r *ReqTrace) TagVal(key string) string {
	if r == nil {
		return ""
	}
	for i := len(r.Tags) - 1; i >= 0; i-- {
		if r.Tags[i].Key == key {
			return r.Tags[i].Val
		}
	}
	return ""
}

// Finish seals the trace: records the response status and the
// end-to-end latency. Call exactly once, after the last span writer
// has finished (for the solve service: after the handler returns).
// Safe on nil.
func (r *ReqTrace) Finish(status int, errMsg string) {
	if r == nil {
		return
	}
	r.Status = status
	r.Err = errMsg
	r.E2E = time.Since(r.start)
}

// SpanCount returns the number of spans retained in the ring. Safe on
// nil.
func (r *ReqTrace) SpanCount() int {
	if r == nil {
		return 0
	}
	n := r.cur.Load()
	if n > int64(len(r.spans)) {
		n = int64(len(r.spans))
	}
	return int(n)
}

// Dropped returns the spans lost to ring overflow. Safe on nil.
func (r *ReqTrace) Dropped() int64 {
	if r == nil {
		return 0
	}
	return r.dropped.Load()
}

// Events merges the span ring and the phase breakdown into one
// time-ordered stream suitable for WriteChromeTrace: task spans on
// their worker tracks, phases as "phase.<name>" spans on the
// background track. Call only after Finish (the ring is not
// synchronized for concurrent writers and readers).
func (r *ReqTrace) Events() []Event {
	if r == nil {
		return nil
	}
	out := make([]Event, 0, r.SpanCount()+len(r.Phases))
	out = append(out, r.spans[:r.SpanCount()]...)
	for _, p := range r.Phases {
		out = append(out, Event{Kind: KindSpan, Name: "phase." + p.Name, Worker: -1, Start: p.Start, Dur: p.Dur})
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].Worker < out[j].Worker
	})
	return out
}

// reqTraceKey keys the request trace in a context.
type reqTraceKey struct{}

// ContextWithTrace returns ctx carrying rt. A nil rt returns ctx
// unchanged, so callers never branch.
func ContextWithTrace(ctx context.Context, rt *ReqTrace) context.Context {
	if rt == nil {
		return ctx
	}
	return context.WithValue(ctx, reqTraceKey{}, rt)
}

// TraceFrom returns the request trace carried by ctx, or nil. Safe on
// a nil context; the lookup allocates nothing, so hot paths may call
// it unconditionally.
func TraceFrom(ctx context.Context) *ReqTrace {
	if ctx == nil {
		return nil
	}
	rt, _ := ctx.Value(reqTraceKey{}).(*ReqTrace)
	return rt
}
