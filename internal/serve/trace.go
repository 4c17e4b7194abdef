package serve

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"tlrchol/internal/obs"
)

// Request tracing middleware: every /v1/* request gets a trace id and
// an obs.ReqTrace carried in its context. Handlers and the layers below
// them (router, cache, batcher, solve-plan executor, factorization)
// record spans and breakdown phases against it; when the response is
// written the trace is sealed and filed in the flight recorder, where
// the slowest and the errored requests stay addressable via
// /v1/trace/<id> long after they completed.
//
// The tracer bundles that per-process state — id minting, flight
// retention, the end-to-end breakdown ring, the access log. The front
// end owns the only one: one trace id covers the router hop and the
// shard's work, and the shards record into the trace they find in the
// context.

// traceIDs mints process-unique request ids: a random per-process
// prefix (so ids from different server lives never collide in logs)
// plus an atomic sequence number. Allocation-free after construction.
type traceIDs struct {
	prefix string
	seq    atomic.Uint64
}

func newTraceIDs() *traceIDs {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is effectively fatal elsewhere; here a
		// fixed prefix only weakens cross-process uniqueness of ids.
		copy(b[:], "tlrs")
	}
	return &traceIDs{prefix: hex.EncodeToString(b[:])}
}

func (t *traceIDs) next() string {
	n := t.seq.Add(1)
	// Manual hex formatting keeps this off fmt (and its allocations are
	// bounded: one string per request, which the ReqTrace needs anyway).
	const digits = "0123456789abcdef"
	var buf [16]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = digits[n&0xf]
		n >>= 4
	}
	for len(buf)-i < 6 {
		i--
		buf[i] = '0'
	}
	return t.prefix + "-" + string(buf[i:])
}

// statusWriter captures the response status for the trace summary and
// the access log.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(p)
}

// tracer is the front end's request tracing.
type tracer struct {
	ids        *traceIDs
	spanCap    int // 0 disables span detail
	flight     *obs.FlightRecorder
	reqLatency *ring[BreakdownMS]
	accessLog  io.Writer
	accessMu   sync.Mutex
}

// newTracer builds the tracing front end from the service config.
func newTracer(cfg *Config) *tracer {
	spanCap := cfg.TraceSpanCap
	if cfg.DisableTracing {
		spanCap = 0
	}
	// The flight recorder's recent and error rings keep their defaults.
	return &tracer{
		ids:        newTraceIDs(),
		spanCap:    spanCap,
		flight:     obs.NewFlightRecorder(cfg.FlightSlow, 0, 0),
		reqLatency: newRing[BreakdownMS](0),
		accessLog:  cfg.AccessLog,
	}
}

// traced wraps a handler with request tracing. detail selects span
// recording and flight retention (the compute endpoints); lightweight
// endpoints still get a trace id and an access-log line. The trace id
// is exposed to the client as the X-Trace-Id response header before
// the handler runs, so even a 429 rejection names a lookupable trace.
func (t *tracer) traced(endpoint string, detail bool, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := t.ids.next()
		spanCap := 0
		if detail {
			spanCap = t.spanCap
		}
		rt := obs.NewReqTrace(id, endpoint, spanCap)
		w.Header().Set("X-Trace-Id", id)
		sw := &statusWriter{ResponseWriter: w}
		h(sw, r.WithContext(obs.ContextWithTrace(r.Context(), rt)))
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		errMsg := ""
		if sw.status >= 400 {
			errMsg = http.StatusText(sw.status)
		}
		rt.Finish(sw.status, errMsg)

		bd := breakdownOf(rt)
		if detail {
			t.flight.Record(rt)
			if endpoint == "/v1/solve" && sw.status == http.StatusOK {
				t.reqLatency.Record(bd)
			}
		}
		t.accessLogLine(rt, bd)
	}
}

// BreakdownMS is one request's latency decomposition in milliseconds.
// The components partition the end-to-end latency: queue (admission +
// decode), factor (cache lookup / single-flight build wait), batch
// wait (coalescing window + leader execution queuing), substitution,
// refine or residual evaluation, and other (response encoding and
// whatever else the phases did not cover) — by construction
// E2E = Queue + Factor + BatchWait + Subst + Refine + Resid + Other.
type BreakdownMS struct {
	TraceID     string  `json:"trace_id"`
	E2EMS       float64 `json:"e2e_ms"`
	QueueMS     float64 `json:"queue_ms"`
	FactorMS    float64 `json:"factor_ms"`
	BatchWaitMS float64 `json:"batch_wait_ms"`
	SubstMS     float64 `json:"subst_ms"`
	RefineMS    float64 `json:"refine_ms"`
	ResidMS     float64 `json:"resid_ms"`
	OtherMS     float64 `json:"other_ms"`
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// breakdownOf summarizes a finished trace's phases. Other absorbs the
// uncovered remainder so the components sum exactly to E2E (clamped at
// zero against clock-skew artifacts).
func breakdownOf(rt *obs.ReqTrace) BreakdownMS {
	if rt == nil {
		return BreakdownMS{}
	}
	bd := BreakdownMS{
		TraceID:     rt.ID,
		E2EMS:       ms(rt.E2E),
		QueueMS:     ms(rt.PhaseDur("queue")),
		FactorMS:    ms(rt.PhaseDur("factor")),
		BatchWaitMS: ms(rt.PhaseDur("batch_wait")),
		SubstMS:     ms(rt.PhaseDur("subst")),
		RefineMS:    ms(rt.PhaseDur("refine")),
		ResidMS:     ms(rt.PhaseDur("resid")),
	}
	bd.OtherMS = bd.E2EMS - bd.QueueMS - bd.FactorMS - bd.BatchWaitMS - bd.SubstMS - bd.RefineMS - bd.ResidMS
	if bd.OtherMS < 0 {
		bd.OtherMS = 0
	}
	return bd
}

// accessRecord is one structured access-log line. A fixed struct (not
// a map) keeps the field order deterministic across runs.
type accessRecord struct {
	Time     string  `json:"time"`
	TraceID  string  `json:"trace_id"`
	Endpoint string  `json:"endpoint"`
	Status   int     `json:"status"`
	E2EMS    float64 `json:"e2e_ms"`
	FP       string  `json:"fp,omitempty"`
	Cache    string  `json:"cache,omitempty"`
	Batch    string  `json:"batch,omitempty"`
	Shard    string  `json:"shard,omitempty"`
	Error    string  `json:"error,omitempty"`

	QueueMS     float64 `json:"queue_ms"`
	FactorMS    float64 `json:"factor_ms"`
	BatchWaitMS float64 `json:"batch_wait_ms"`
	SubstMS     float64 `json:"subst_ms"`
	RefineMS    float64 `json:"refine_ms"`
	ResidMS     float64 `json:"resid_ms"`
	OtherMS     float64 `json:"other_ms"`
}

// accessLogLine emits one JSON line per completed request when
// configured. The mutex serializes whole lines; the marshal happens
// outside it.
func (t *tracer) accessLogLine(rt *obs.ReqTrace, bd BreakdownMS) {
	if t.accessLog == nil || rt == nil {
		return
	}
	rec := accessRecord{
		Time:        time.Now().UTC().Format(time.RFC3339Nano),
		TraceID:     rt.ID,
		Endpoint:    rt.Endpoint,
		Status:      rt.Status,
		E2EMS:       bd.E2EMS,
		FP:          rt.TagVal("fp"),
		Cache:       rt.TagVal("cache"),
		Batch:       rt.TagVal("batch"),
		Shard:       rt.TagVal("shard"),
		Error:       rt.Err,
		QueueMS:     bd.QueueMS,
		FactorMS:    bd.FactorMS,
		BatchWaitMS: bd.BatchWaitMS,
		SubstMS:     bd.SubstMS,
		RefineMS:    bd.RefineMS,
		ResidMS:     bd.ResidMS,
		OtherMS:     bd.OtherMS,
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return
	}
	line = append(line, '\n')
	t.accessMu.Lock()
	t.accessLog.Write(line)
	t.accessMu.Unlock()
}

// handleTrace exports one retained trace as Chrome trace-event JSON
// (open in ui.perfetto.dev or chrome://tracing). 404 means the id was
// never issued or has aged out of every retention policy.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rt, ok := s.tr.flight.Lookup(id)
	if !ok {
		s.fail(w, http.StatusNotFound,
			"no retained trace %q (it may have aged out; only the slowest and errored requests are kept)", id)
		return
	}
	bd := breakdownOf(rt)
	meta := map[string]any{
		"trace_id":  rt.ID,
		"endpoint":  rt.Endpoint,
		"status":    rt.Status,
		"e2e_ms":    bd.E2EMS,
		"breakdown": bd,
		"dropped":   rt.Dropped(),
	}
	if rt.Err != "" {
		meta["error"] = rt.Err
	}
	for _, tag := range rt.Tags {
		meta["tag."+tag.Key] = tag.Val
	}
	w.Header().Set("Content-Type", "application/json")
	if err := obs.WriteChromeTrace(w, rt.Events(), meta); err != nil {
		s.httpErrors.Add(0, 1)
	}
}

// writeJSON writes a JSON response body with the given status.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
