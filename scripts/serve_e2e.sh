#!/usr/bin/env bash
# End-to-end crash-resume smoke for ccmserve: start the daemon with a
# checkpoint dir, submit a sweep, follow its NDJSON stream, kill -9 the
# process when the stream shows point 5 of 8, restart on the same dir,
# resubmit the same spec, and verify the resumed job (a) reports resumed
# points, (b) finishes, (c) produces a byte-identical result to an
# uninterrupted run, and (d) carries a full lifecycle timeline on
# /jobs/{id}/trace (checkpoint_restored included) with the SLO histogram
# families live on /metrics and X-Request-ID correlation on every
# response. Exercises
# /api/v1/jobs, /stream, /trace, /result, and /metrics end to end.
#
# Usage: scripts/serve_e2e.sh   (from the repo root; needs go + curl)
set -euo pipefail

WORK=$(mktemp -d)
CKPT="$WORK/ckpt"
mkdir -p "$CKPT"
PIDFILE="$WORK/pids"
touch "$PIDFILE"
cleanup() {
    while read -r pid; do kill -9 "$pid" 2>/dev/null || true; done <"$PIDFILE"
    rm -rf "$WORK"
}
trap cleanup EXIT

# 8 points on one serialized worker. Seeded, so results are deterministic.
SPEC='{"spec":{"n":2000,"trials":2,"r_values":[2,3,4,5,6,7,8,9],"seed":7}}'
POINTS=8
KILL_AT=$((POINTS / 2))

die() { echo "serve_e2e: FAIL: $*" >&2; exit 1; }

# start_daemon <checkpoint-dir> <logfile> <pidfile>: launches ccmserve on
# an ephemeral port and echoes the bound address. stdout must be detached
# from the caller's pipe or $(start_daemon ...) would block on the daemon.
start_daemon() {
    local dir=$1 log=$2 pidfile=$3
    "$WORK/ccmserve" -addr 127.0.0.1:0 -pool 1 -job-workers 1 \
        -checkpoint-dir "$dir" -checkpoint-ttl 24h -log-format json >/dev/null 2>"$log" &
    echo $! >"$pidfile"
    cat "$pidfile" >>"$PIDFILE"
    for _ in $(seq 1 100); do
        if grep -q 'listening on' "$log"; then
            sed -n 's/.*listening on \([0-9.:]*\).*/\1/p' "$log" | head -1
            return
        fi
        sleep 0.1
    done
    die "daemon never reported its address (log: $(cat "$log"))"
}

submit() { # submit <addr> -> response JSON on stdout
    curl -s "http://$1/api/v1/jobs" -d "$SPEC"
}

job_id() { sed -n 's/.*"id":"\([0-9a-f]\{64\}\)".*/\1/p' <<<"$1" | head -1; }

await_result() { # await_result <addr> <id> <outfile>: stream to the state line
    local code
    curl -sN --max-time 120 "http://$1/api/v1/jobs/$2/stream" >"$3.stream" || true
    grep -q '"event":"state".*"state":"done"' "$3.stream" \
        || die "job $2 did not stream a done state: $(tail -1 "$3.stream")"
    code=$(curl -s -o "$3" -w '%{http_code}' "http://$1/api/v1/jobs/$2/result")
    [ "$code" = 200 ] || die "job $2 is done but its result answered $code"
}

echo "serve_e2e: building ccmserve + ccmload"
go build -o "$WORK/ccmserve" ./cmd/ccmserve
go build -o "$WORK/ccmload" ./cmd/ccmload

# --- Phase 1: submit, stream, kill mid-sweep -----------------------------
ADDR=$(start_daemon "$CKPT" "$WORK/daemon1.log" "$WORK/daemon1.pid")
RESP=$(submit "$ADDR")
ID=$(job_id "$RESP")
[ -n "$ID" ] || die "no job id in submit response: $RESP"
echo "serve_e2e: submitted $ID on $ADDR"

# Read the live stream line by line as it arrives and kill -9 the daemon
# when it shows point KILL_AT+1. The server hands point k+1 to the stream
# only after point k's checkpoint line is written (both under the job's
# lock), so at least KILL_AT lines are on disk by then.
exec 3< <(curl -sN "http://$ADDR/api/v1/jobs/$ID/stream" 2>/dev/null)
echo $! >>"$PIDFILE"
SEQ=0
while [ "$SEQ" -le "$KILL_AT" ] && IFS= read -r -t 60 LINE <&3; do
    printf '%s\n' "$LINE" >>"$WORK/stream.ndjson"
    [[ $LINE =~ ^\{\"seq\":([0-9]+),\"event\":\"point\" ]] && SEQ=${BASH_REMATCH[1]}
done
[ "$SEQ" -gt "$KILL_AT" ] || die "stream ended before point $((KILL_AT + 1)) (last seq $SEQ)"
kill -9 "$(cat "$WORK/daemon1.pid")"
exec 3<&-

CKPT_FILE="$CKPT/$ID.ndjson"
LINES=0
[ -f "$CKPT_FILE" ] && LINES=$(wc -l <"$CKPT_FILE")
[ "$LINES" -ge "$KILL_AT" ] || die "checkpoint never reached $KILL_AT points"
[ "$LINES" -lt "$POINTS" ] || die "sweep finished before the kill (got $LINES points); spec too fast"
echo "serve_e2e: killed daemon at stream seq $SEQ with $LINES/$POINTS points checkpointed"

grep -q '"event":"point"' "$WORK/stream.ndjson" \
    || die "stream tail captured no point events"

# --- Phase 2: restart on the same dir, resubmit, resume ------------------
ADDR=$(start_daemon "$CKPT" "$WORK/daemon2.log" "$WORK/daemon2.pid")
RESP=$(submit "$ADDR")
[ "$(job_id "$RESP")" = "$ID" ] || die "resubmit produced a different job id: $RESP"
RESUMED=$(sed -n 's/.*"resumed_points":\([0-9]*\).*/\1/p' <<<"$RESP")
[ -n "$RESUMED" ] && [ "$RESUMED" -ge "$KILL_AT" ] \
    || die "resubmit reports resumed_points=$RESUMED, want >= $KILL_AT: $RESP"
echo "serve_e2e: resumed with $RESUMED checkpointed points"
await_result "$ADDR" "$ID" "$WORK/resumed.bin"

# --- Phase 2b: observability of the resumed job --------------------------
# The lifecycle timeline must show the whole story of the resumed run:
# received -> checkpoint_restored -> admitted -> scheduled -> running ->
# point_completed -> completed, with the queue-wait summary computed.
TRACE=$(curl -s "http://$ADDR/api/v1/jobs/$ID/trace")
for stage in received checkpoint_restored admitted scheduled running point_completed completed; do
    grep -q "\"stage\":\"$stage\"" <<<"$TRACE" \
        || die "trace missing stage $stage: $TRACE"
done
grep -q '"queue_wait_ms"' <<<"$TRACE" || die "trace missing queue_wait_ms summary: $TRACE"
grep -q '"class":"interactive"' <<<"$TRACE" || die "trace events carry no class: $TRACE"
echo "serve_e2e: trace timeline complete for resumed job"

# SLO histograms, per-class queue gauges, and the checkpoint GC counter
# must be live on /metrics.
METRICS=$(curl -s "http://$ADDR/metrics")
for family in \
    'netags_serve_queue_wait_ms_bucket{class="interactive"' \
    'netags_serve_point_ms_count' \
    'netags_serve_e2e_ms_count' \
    'netags_http_request_ms_bucket' \
    'netags_serve_queue_class_len{class="bulk"}' \
    'netags_serve_queue_class_len{class="interactive"}' \
    'netags_serve_checkpoint_purged_total'; do
    grep -qF "$family" <<<"$METRICS" || die "/metrics missing $family"
done
echo "serve_e2e: SLO histogram and queue-gauge families live"

# Request-ID correlation: generated when absent, echoed when supplied, and
# attached to the access log lines.
RID=$(curl -s -o /dev/null -D - "http://$ADDR/healthz" | tr -d '\r' | sed -n 's/^[Xx]-[Rr]equest-[Ii][Dd]: //p')
[ -n "$RID" ] || die "no X-Request-ID generated on response"
ECHOED=$(curl -s -o /dev/null -D - -H 'X-Request-ID: e2e-rid-42' "http://$ADDR/healthz" \
    | tr -d '\r' | sed -n 's/^[Xx]-[Rr]equest-[Ii][Dd]: //p')
[ "$ECHOED" = "e2e-rid-42" ] || die "client X-Request-ID not echoed (got '$ECHOED')"
grep -q '"request_id":"e2e-rid-42"' "$WORK/daemon2.log" \
    || die "access log missing the request id (daemon2.log)"
grep -q '"msg":"job admitted"' "$WORK/daemon2.log" \
    || die "structured job-admitted log missing (daemon2.log)"
echo "serve_e2e: request-id correlation and structured logs verified"

# --- Phase 3: uninterrupted reference run, byte-compare ------------------
mkdir -p "$WORK/ckpt-ref"
ADDR=$(start_daemon "$WORK/ckpt-ref" "$WORK/daemon3.log" "$WORK/daemon3.pid")
REF_ID=$(job_id "$(submit "$ADDR")")
await_result "$ADDR" "$REF_ID" "$WORK/reference.bin"

cmp "$WORK/resumed.bin" "$WORK/reference.bin" \
    || die "resumed result differs from uninterrupted run"
echo "serve_e2e: resumed result byte-identical ($RESUMED points skipped)"

# --- Phase 4: telemetry under load ---------------------------------------
# The reference daemon runs with the default sampler (1s resolution) and
# built-in SLO rules; a short gentle ccmload run must pass its own gates:
# p99 bound, no firing alerts, and non-empty serve/sim/runtime series on
# /api/v1/timeseries.
"$WORK/ccmload" -addr "$ADDR" -rps 2 -duration 5s -drain 30s \
    -large-ratio 0 -max-p99 30s -fail-on-alerts \
    -check-series serve_queue_len,serve_jobs_executed_total,sessions_total,runtime_goroutines \
    || die "ccmload telemetry gates failed (exit $?)"
echo "serve_e2e: PASS (telemetry live under load, no SLO violations)"
