#!/usr/bin/env bash
# check.sh — the repo's single verification gate: build, vet, the
# portable (purego) build and tests of the assembly-backed kernels, the
# type-checked static analysis suite (cmd/lint, findings archived as
# JSON), race-detector tests on the concurrency-critical packages (the
# task executor and the compression, factorization and planned solve
# that run on it, the static verifier's own suite, the metrics and
# tracing layer, the virtual cluster, the solve service and the lint
# driver itself), then the full test suite, which includes the
# verifier self-checks in internal/verify, and finally a one-iteration
# run of the Go micro-benchmarks so they cannot bit-rot.
set -euo pipefail
cd "$(dirname "$0")/.."

# Every background process the script starts (servers, curl fan-outs)
# is started through bg and tracked in bg_pids; reap waits for one and
# stops tracking it. On any exit the trap stops what is still tracked
# (TERM, up to 5 s grace, KILL) and reaps it, so a failing gate leaves
# no process behind. tmp_files are removed on exit.
bg_pids=()
tmp_files=()
bg() { "$@" & bg_pids+=("$!"); }
reap() {
    local st=0 p keep=()
    wait "$1" || st=$?
    for p in "${bg_pids[@]}"; do [ "$p" = "$1" ] || keep+=("$p"); done
    bg_pids=(${keep[@]+"${keep[@]}"})
    return "$st"
}
cleanup() {
    local p i
    for p in ${bg_pids[@]+"${bg_pids[@]}"}; do
        kill -TERM "$p" 2>/dev/null || continue
        for i in $(seq 50); do
            kill -0 "$p" 2>/dev/null || break
            sleep 0.1
        done
        kill -KILL "$p" 2>/dev/null || true
    done
    for p in ${bg_pids[@]+"${bg_pids[@]}"}; do
        wait "$p" 2>/dev/null || true
    done
    rm -f ${tmp_files[@]+"${tmp_files[@]}"}
}
trap cleanup EXIT

echo "== go build"
go build ./...

echo "== go vet"
go vet ./...

echo "== portable kernels (purego)"
# Every assembly kernel in internal/dense has a Go fallback, selected by
# the purego tag (and on other GOARCHes). Vet and test it here, so the
# path that hosts without AVX2+FMA run stays built and correct.
go vet -tags purego ./internal/dense ./internal/tlr
go test -tags purego ./internal/dense ./internal/tlr

echo "== static analysis suite (cmd/lint)"
# The tree must be finding-clean under every analyzer; the JSON report
# is archived so a failing run leaves a machine-readable artifact.
# Exit 1 = findings, exit 2 = the tree failed to load or type-check.
lint_json="$(mktemp /tmp/tlrchol-lint.XXXXXX.json)"
go run ./cmd/lint -json ./... > "$lint_json" || {
    echo "check.sh: lint findings (report: $lint_json):" >&2
    cat "$lint_json" >&2
    exit 1
}
tmp_files+=("$lint_json")

echo "== race-detector tests (runtime, verify, obs, cluster, core, serve, analysis, rbf, tilemat)"
# internal/analysis is in the race list for self-hosting: the lint
# driver runs analyzers concurrently per package, so its own tests must
# hold up under the detector just like the code it audits.
go test -race ./internal/runtime ./internal/verify ./internal/obs ./internal/cluster ./internal/core ./internal/serve ./internal/analysis ./internal/rbf ./internal/tilemat

echo "== point-ordering fuzz smoke"
# The KD ordering behind rbf.NewProblem must keep its contract (a
# permutation, deterministic, every aligned power-of-two block one KD
# cell) on arbitrary finite point sets. Runs in the foreground.
go test -run '^$' -fuzz FuzzKDOrder -fuzztime 10s ./internal/rbf

echo "== kernel-block fuzz smoke"
# rbf.Problem.Block leaves out the entries and blocks the geometry
# proves exactly zero; on arbitrary finite point sets, shape
# parameters, kernels and ranges it must still equal the entrywise
# kernel bit for bit. Minimizing each new input is capped at 200 runs,
# or it takes most of the 10 s. Runs in the foreground.
go test -run '^$' -fuzz FuzzBlockBitwise -fuzztime 10s -fuzzminimizetime 200x ./internal/rbf

echo "== problem-spec fuzz smoke"
# serve's ProblemSpec.normalize must never panic on a decoded request,
# a spec it accepts must be its own normal form, and that form must
# fingerprint the same after a second normalize. Runs in the foreground.
go test -run '^$' -fuzz FuzzSpecNormalize -fuzztime 10s ./internal/serve

echo "== full test suite"
go test ./...

echo "== observability smoke gate"
# The tracing-off hot path must stay allocation-free, a parallel
# factorization must allocate at most 1.5x the sequential one (the task
# executor costs nothing per task), a traced run must export a valid
# Chrome trace with exactly one span per executed task, and the CLI's
# static check must pass.
go test -run 'TestDisabledHotPathZeroAlloc' ./internal/obs
go test -run 'TestFactorizeAllocs' ./internal/core
go test -run 'TestObsSmoke' .
# trace_spans and trace_tasks read a tlrchol run's "trace: N spans" and
# "data sparsity: N tasks executed" lines.
trace_spans() { sed -n 's/^trace: \([0-9]*\) spans .*/\1/p' <<< "$1"; }
trace_tasks() { sed -n 's/^data sparsity: \([0-9]*\) tasks executed.*/\1/p' <<< "$1"; }
obs_trace="$(mktemp /tmp/tlrchol-trace.XXXXXX.json)"
tmp_files+=("$obs_trace")
obs_out="$(go run ./cmd/tlrchol -n 1024 -b 128 -verify=false -trace-out "$obs_trace")"
grep -q '"traceEvents"' "$obs_trace" || {
    echo "check.sh: trace-out produced no traceEvents" >&2; exit 1; }
spans="$(trace_spans "$obs_out")"
tasks="$(trace_tasks "$obs_out")"
[ -n "$spans" ] && [ "$spans" = "$tasks" ] || {
    echo "check.sh: trace-out exported ${spans:-no} spans for ${tasks:-no} executed tasks" >&2; echo "$obs_out" >&2; exit 1; }
# The static verifier's CLI path: tlrchol -check must prove the trimmed
# structure sound and the factorization graph acyclic and
# hazard-complete before it executes.
check_out="$(go run ./cmd/tlrchol -n 1024 -b 128 -verify=false -check)"
echo "$check_out" | grep -q 'static verification: trim sound, graph acyclic and hazard-complete' || {
    echo "check.sh: tlrchol -check did not report a verified trim and graph" >&2; echo "$check_out" >&2; exit 1; }

echo "== distributed execution gate"
# The virtual cluster must reproduce the shared-memory factor bit for
# bit under every distribution (private node stores enforced by the
# race detector), and a distributed CLI run must print its measured
# comm volume next to the simulator's prediction and export its comm
# spans beside one span per executed task.
go test -race -run 'TestDistributedMatchesSharedMemory' ./internal/core
dist_trace="$(mktemp /tmp/tlrchol-dist-trace.XXXXXX.json)"
tmp_files+=("$dist_trace")
dist_out="$(go run ./cmd/tlrchol -n 1024 -b 128 -verify=false -nodes 4 -dist diamond -trace-out "$dist_trace")"
spans="$(trace_spans "$dist_out")"
tasks="$(trace_tasks "$dist_out")"
[ -n "$spans" ] && [ -n "$tasks" ] && [ "$spans" -gt "$tasks" ] || {
    echo "check.sh: distributed trace-out exported ${spans:-no} spans for ${tasks:-no} tasks, want comm spans too" >&2
    echo "$dist_out" >&2; exit 1; }
echo "$dist_out" | grep -q 'measured comm volume:' || {
    echo "check.sh: distributed run printed no measured comm volume" >&2; exit 1; }
echo "$dist_out" | grep -q 'sim prediction' || {
    echo "check.sh: distributed run printed no sim prediction" >&2; exit 1; }

echo "== solve scheduler gate"
# The planned parallel substitution must reproduce the sequential bits
# under the race detector, and cancellation mid-sweep or a kernel panic
# must come back as an error after every worker has been joined. These
# are the properties the whole scheduler rests on.
go test -race -run 'TestSolvePlannedBitwise|TestSolvePlannedCancel|TestSolvePlannedPanicIsError' ./internal/core

echo "== solve service smoke gate"
# A real tlrserve on a random port must: factorize once for 8
# concurrent solves against the same problem (single-flight dedup,
# asserted from /metrics), build a nugget variant of that problem on
# the resident factor's compressed operator, answer /v1/stats, and
# drain cleanly on SIGTERM.
serve_log="$(mktemp /tmp/tlrserve-log.XXXXXX)"
tmp_files+=("$serve_log" /tmp/tlrserve-check)
go build -o /tmp/tlrserve-check ./cmd/tlrserve
bg /tmp/tlrserve-check -addr 127.0.0.1:0 -batch-window 50ms -drain-timeout 5s > "$serve_log" 2>&1
serve_pid=$!
base=""
for _ in $(seq 50); do
    base="$(sed -n 's|^tlrserve listening on \(http://[0-9.:]*\).*|\1|p' "$serve_log")"
    [ -n "$base" ] && break
    sleep 0.1
done
[ -n "$base" ] || { echo "check.sh: tlrserve did not start"; cat "$serve_log" >&2; exit 1; }
solve_req='{"problem":{"n":512,"tile":64,"tol":1e-7},"nrhs":1,"rhs_seed":SEED}'
pids=()
for i in $(seq 8); do
    bg curl -sf --max-time 60 -o /dev/null -X POST -d "${solve_req/SEED/$i}" "$base/v1/solve"
    pids+=($!)
done
for p in "${pids[@]}"; do
    reap "$p" || { echo "check.sh: concurrent solve request failed" >&2; exit 1; }
done
runs="$(curl -sf --max-time 60 "$base/metrics" | awk '$1 == "serve.factorize.runs" {print $2}')"
[ "$runs" = "1" ] || {
    echo "check.sh: expected exactly 1 factorization for 8 concurrent solves, got '$runs'" >&2; exit 1; }
# The factor must have come with a solve plan: every /v1/solve on it is
# routed through the planned executor, so the plan-build counter moves
# exactly once per factorization.
plans="$(curl -sf --max-time 60 "$base/metrics" | awk '$1 == "solve.plan.build" {print $2}')"
[ -n "$plans" ] && [ "$plans" -ge 1 ] || {
    echo "check.sh: expected >=1 solve plan build, got '$plans'" >&2; exit 1; }
# The same problem with another nugget differs only on the diagonal: its
# build must reuse the resident factor's compressed operator, one more
# factorization and one operator reuse.
bg curl -sf --max-time 60 -o /dev/null -X POST \
    -d '{"problem":{"n":512,"tile":64,"tol":1e-7,"nugget":2e-5}}' "$base/v1/factorize"
reap "$!" || { echo "check.sh: nugget-variant factorize request failed" >&2; exit 1; }
metrics="$(curl -sf --max-time 60 "$base/metrics")"
runs="$(echo "$metrics" | awk '$1 == "serve.factorize.runs" {print $2}')"
reuse="$(echo "$metrics" | awk '$1 == "serve.factorize.op_reuse" {print $2}')"
[ "$runs" = "2" ] && [ "$reuse" = "1" ] || {
    echo "check.sh: nugget variant: expected 2 factorizations and 1 operator reuse, got runs='$runs' op_reuse='$reuse'" >&2; exit 1; }
# A single server is a one-shard service: its /v1/stats is the same body
# as a fleet's, with the per-shard rows and the single-flight rollup.
# Bodies are captured before grep reads them: under pipefail, grep -q
# may exit before curl has written the whole body.
single_stats="$(curl -sf --max-time 60 "$base/v1/stats" || true)"
echo "$single_stats" | grep -q '"uptime_sec"' || {
    echo "check.sh: /v1/stats did not answer" >&2; exit 1; }
echo "$single_stats" | grep -q '"shards"' || {
    echo "check.sh: single-server /v1/stats lacks per-shard rows" >&2; exit 1; }
echo "$single_stats" | grep -q '"single_flight"' || {
    echo "check.sh: single-server /v1/stats lacks the single_flight rollup" >&2; exit 1; }
kill -TERM "$serve_pid"
reap "$serve_pid" || { echo "check.sh: tlrserve exited non-zero on SIGTERM" >&2; exit 1; }
grep -q 'drained cleanly' "$serve_log" || {
    echo "check.sh: tlrserve did not drain cleanly" >&2; cat "$serve_log" >&2; exit 1; }

echo "== request tracing gate"
# A traced tlrserve must hand every request a trace id, retain the
# trace in the flight recorder, export it as a valid Chrome trace with
# per-task solve-plan spans, report the latency breakdown in
# /v1/stats, and log one structured JSON line per request. The loadgen
# tail report must name its slowest request's trace.
access_log="$(mktemp /tmp/tlrserve-access.XXXXXX.log)"
trace_json="$(mktemp /tmp/tlrserve-trace.XXXXXX.json)"
tmp_files+=("$access_log" "$trace_json")
: > "$serve_log"
bg /tmp/tlrserve-check -addr 127.0.0.1:0 -batch-window 50ms -drain-timeout 5s -solve-workers 4 -access-log "$access_log" > "$serve_log" 2>&1
serve_pid=$!
base=""
for _ in $(seq 50); do
    base="$(sed -n 's|^tlrserve listening on \(http://[0-9.:]*\).*|\1|p' "$serve_log")"
    [ -n "$base" ] && break
    sleep 0.1
done
[ -n "$base" ] || { echo "check.sh: traced tlrserve did not start"; cat "$serve_log" >&2; exit 1; }
trace_id="$(curl -sf --max-time 60 -D - -o /dev/null -X POST -d "${solve_req/SEED/99}" "$base/v1/solve" \
    | tr -d '\r' | awk 'tolower($1) == "x-trace-id:" {print $2}')"
[ -n "$trace_id" ] || { echo "check.sh: solve response carried no X-Trace-Id" >&2; exit 1; }
curl -sf --max-time 60 "$base/v1/trace/$trace_id" > "$trace_json" || {
    echo "check.sh: /v1/trace/$trace_id not retrievable" >&2; exit 1; }
grep -q '"traceEvents"' "$trace_json" || {
    echo "check.sh: request trace has no traceEvents" >&2; cat "$trace_json" >&2; exit 1; }
grep -q '"solve.trsm"' "$trace_json" || {
    echo "check.sh: request trace lacks per-task solve-plan spans" >&2; exit 1; }
traced_stats="$(curl -sf --max-time 60 "$base/v1/stats" || true)"
echo "$traced_stats" | grep -q '"queue_ms"' || {
    echo "check.sh: /v1/stats lacks the latency breakdown" >&2; exit 1; }
grep -q "$trace_id" "$access_log" || {
    echo "check.sh: access log has no line for trace $trace_id" >&2; cat "$access_log" >&2; exit 1; }
grep -q '"factor_ms"' "$access_log" || {
    echo "check.sh: access log lines lack the ms breakdown" >&2; exit 1; }
kill -TERM "$serve_pid"
reap "$serve_pid" || { echo "check.sh: traced tlrserve exited non-zero on SIGTERM" >&2; exit 1; }
/tmp/tlrserve-check -loadgen -n 512 -tile 64 -duration 2s -rate 30 -solve-workers 4 > "$serve_log" 2>&1 || {
    echo "check.sh: loadgen run failed" >&2; cat "$serve_log" >&2; exit 1; }
grep -q 'slowest request: trace ' "$serve_log" || {
    echo "check.sh: loadgen did not name its slowest request's trace" >&2; cat "$serve_log" >&2; exit 1; }
grep -q 'valid Chrome/Perfetto trace' "$serve_log" || {
    echo "check.sh: loadgen did not validate the slowest trace" >&2; cat "$serve_log" >&2; exit 1; }

echo "== fleet gate"
# A 3-shard fleet on a random port must run exactly one factorization
# fleet-wide for 8 concurrent solves against the same problem (owner
# routing + per-shard single-flight, asserted by summing the
# shardN.serve.factorize.runs counters from the merged /metrics
# scrape), and /v1/stats must answer with the fleet view (per-shard
# rows + the single-flight rollup). A skewed multi-tenant loadgen
# burst through a 3-shard fleet must then report per-shard load skew
# and the fleet-wide router counters.
: > "$serve_log"
bg /tmp/tlrserve-check -addr 127.0.0.1:0 -shards 3 -batch-window 50ms -drain-timeout 5s > "$serve_log" 2>&1
serve_pid=$!
base=""
for _ in $(seq 50); do
    base="$(sed -n 's|^tlrserve listening on \(http://[0-9.:]*\).*|\1|p' "$serve_log")"
    [ -n "$base" ] && break
    sleep 0.1
done
[ -n "$base" ] || { echo "check.sh: fleet tlrserve did not start"; cat "$serve_log" >&2; exit 1; }
pids=()
for i in $(seq 8); do
    bg curl -sf --max-time 60 -o /dev/null -X POST -d "${solve_req/SEED/$i}" "$base/v1/solve"
    pids+=($!)
done
for p in "${pids[@]}"; do
    reap "$p" || { echo "check.sh: concurrent fleet solve request failed" >&2; exit 1; }
done
fleet_runs="$(curl -sf --max-time 60 "$base/metrics" | awk '$1 ~ /^shard[0-9]+\.serve\.factorize\.runs$/ {s += $2} END {print s+0}')"
[ "$fleet_runs" = "1" ] || {
    echo "check.sh: expected exactly 1 factorization fleet-wide for 8 concurrent solves, got '$fleet_runs'" >&2; exit 1; }
fleet_stats="$(curl -sf --max-time 60 "$base/v1/stats")"
echo "$fleet_stats" | grep -q '"single_flight"' || {
    echo "check.sh: fleet /v1/stats lacks the single_flight rollup" >&2; exit 1; }
echo "$fleet_stats" | grep -q '"shards"' || {
    echo "check.sh: fleet /v1/stats lacks per-shard rows" >&2; exit 1; }
kill -TERM "$serve_pid"
reap "$serve_pid" || { echo "check.sh: fleet tlrserve exited non-zero on SIGTERM" >&2; exit 1; }
/tmp/tlrserve-check -loadgen -shards 3 -problems 8 -zipf 1.4 -factorize-frac 0.05 \
    -n 384 -tile 64 -duration 2s -rate 40 > "$serve_log" 2>&1 || {
    echo "check.sh: fleet loadgen run failed" >&2; cat "$serve_log" >&2; exit 1; }
grep -q 'load skew: hottest shard' "$serve_log" || {
    echo "check.sh: fleet loadgen did not report per-shard load skew" >&2; cat "$serve_log" >&2; exit 1; }
grep -Eq '^  shard [0-9]+' "$serve_log" || {
    echo "check.sh: fleet loadgen did not report per-shard lines" >&2; cat "$serve_log" >&2; exit 1; }
grep -q '^router: ' "$serve_log" || {
    echo "check.sh: fleet loadgen did not report router counters" >&2; cat "$serve_log" >&2; exit 1; }

echo "== indefinite factorization gate"
# The LDLᵀ keystone (factor + planned solve vs the dense reference on a
# saddle-point system Cholesky rejects) must hold under the race
# detector, and a CLI run of the full indefinite pipeline — augmented
# assembly, compression, LDLᵀ factor, solve — must report its residual.
go test -race -run 'TestLDLtMatchesDense|TestLDLtPlannedSolveBitwise' ./internal/core
ldlt_out="$(go run ./cmd/tlrchol -n 508 -b 64 -tol 1e-8 -factor ldlt -augmented)"
echo "$ldlt_out" | grep -q 'factor error |LDL^T - A|/|A|' || {
    echo "check.sh: ldlt run printed no LDL^T factor error" >&2; exit 1; }
echo "$ldlt_out" | grep -q 'solve residual |Ax - b|/|b|' || {
    echo "check.sh: ldlt run printed no solve residual" >&2; exit 1; }

echo "== recompression kernels gate"
# The column-major QR, QRCP and Jacobi SVD must agree with the At/Set
# kernels they replaced (kept as test references), the SVD must converge
# on rank-deficient cores, and no SVD of a real factorization may end on
# its sweep cap: the CLI's data-sparsity line reports the count.
go test -race -run 'TestSVDRankDeficientConverges|MatchesReference' ./internal/dense
go test -race -run 'TestRecompressMatchesDenseProduct' ./internal/tlr
kernels_out="$(go run ./cmd/tlrchol -n 2048 -b 128 -verify=false)"
echo "$kernels_out" | grep -q '^data sparsity: .* capped 0$' || {
    echo "check.sh: a Jacobi SVD ended on its sweep cap (or the summary lost the count):" >&2
    echo "$kernels_out" >&2; exit 1; }

echo "== micro-benchmark smoke run (1 iteration per benchmark)"
go test -run '^$' -bench=. -benchtime=1x . > /dev/null

echo "check.sh: all gates passed"
