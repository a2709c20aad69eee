#!/usr/bin/env bash
# Cluster failover e2e: three ccmserve workers behind ccmrouter.
#
#  Phase 0  single-node reference: run every spec on one worker and keep
#           the result payloads as ground truth.
#  Phase A  start workers + router, check every breaker closed on /metrics, and
#           gate a gentle ccmload run through the router on its own
#           verdicts (p99 bound, no alerts, cluster series non-empty,
#           -report-json carries the shed accounting).
#  Phase B  submit the specs through the router, byte-compare each result
#           against the reference, and record which backend owns which key
#           (X-CCM-Backend).
#  Phase C  kill -9 one owning worker: resubmits must fail over to the
#           next ring owner and still byte-match the reference, the
#           victim's breaker must show open on /metrics, and the
#           cluster_breaker_open alert must fire on /api/v1/alerts.
#  Phase D  restart the worker on the same port: half-open probes close
#           the breaker, the alert resolves, and the router log carries
#           both transitions.
#
# Re-execution is safe because jobs are content-addressed: the same spec
# yields byte-identical results on any worker, so a failover that re-runs
# a job cannot change what the client reads back.
#
# Usage: scripts/cluster_e2e.sh   (from the repo root; needs go + curl)
set -euo pipefail

WORK=$(mktemp -d)
PIDFILE="$WORK/pids"
touch "$PIDFILE"
cleanup() {
    while read -r pid; do kill -9 "$pid" 2>/dev/null || true; done <"$PIDFILE"
    rm -rf "$WORK"
}
trap cleanup EXIT

die() { echo "cluster_e2e: FAIL: $*" >&2; exit 1; }

# Fixed ports so a killed worker can come back on the same address the
# router was configured with. The range is arbitrary but uncommon.
ROUTER=127.0.0.1:19380
W1=127.0.0.1:19381
W2=127.0.0.1:19382
W3=127.0.0.1:19383

# Six small seeded specs: fast enough for CI, enough distinct
# content-addresses that every backend owns at least part of the keyspace
# with overwhelming probability.
NSPECS=6
spec() { printf '{"spec":{"n":500,"trials":1,"r_values":[2,3,4],"seed":%d}}' "$1"; }

echo "cluster_e2e: building ccmserve + ccmrouter + ccmload"
go build -o "$WORK/ccmserve" ./cmd/ccmserve
go build -o "$WORK/ccmrouter" ./cmd/ccmrouter
go build -o "$WORK/ccmload" ./cmd/ccmload

job_id() { sed -n 's/.*"id":"\([0-9a-f]\{64\}\)".*/\1/p' <<<"$1" | head -1; }

await_result() { # await_result <addr> <id> <outfile>
    local code
    for _ in $(seq 1 300); do
        code=$(curl -s -o "$3" -w '%{http_code}' "http://$1/api/v1/jobs/$2/result")
        [ "$code" = 200 ] && return
        sleep 0.2
    done
    die "job $2 never finished (last result status $code)"
}

# start_worker <addr> <logfile> <pidfile>: a plain ccmserve worker on a
# fixed port, no telemetry engine of its own (the router is the edge).
start_worker() {
    local addr=$1 log=$2 pidfile=$3
    "$WORK/ccmserve" -addr "$addr" -pool 2 -job-workers 1 -ts-resolution 0 \
        -log-format json >/dev/null 2>"$log" &
    echo $! >"$pidfile"
    cat "$pidfile" >>"$PIDFILE"
    for _ in $(seq 1 100); do
        grep -q 'listening on' "$log" && return
        sleep 0.1
    done
    die "worker $addr never reported its address (log: $(cat "$log"))"
}

# --- Phase 0: single-node reference results ------------------------------
"$WORK/ccmserve" -addr 127.0.0.1:0 -pool 2 -job-workers 1 -ts-resolution 0 \
    -log-format json >/dev/null 2>"$WORK/ref.log" &
echo $! >>"$PIDFILE"
for _ in $(seq 1 100); do
    grep -q 'listening on' "$WORK/ref.log" && break
    sleep 0.1
done
REF_ADDR=$(sed -n 's/.*listening on \([0-9.:]*\).*/\1/p' "$WORK/ref.log" | head -1)
[ -n "$REF_ADDR" ] || die "reference worker never reported its address"

for i in $(seq 1 "$NSPECS"); do
    ID=$(job_id "$(curl -s "http://$REF_ADDR/api/v1/jobs" -d "$(spec "$i")")")
    [ -n "$ID" ] || die "reference submit $i returned no job id"
    echo "$ID" >"$WORK/id.$i"
    await_result "$REF_ADDR" "$ID" "$WORK/ref.$i.bin"
done
echo "cluster_e2e: reference results captured ($NSPECS specs on $REF_ADDR)"

# --- Phase A: cluster up, topology + gentle load gate --------------------
start_worker "$W1" "$WORK/w1.log" "$WORK/w1.pid"
start_worker "$W2" "$WORK/w2.log" "$WORK/w2.pid"
start_worker "$W3" "$WORK/w3.log" "$WORK/w3.pid"

# Tight breaker so two failed proxy attempts trip it, short cooldown so
# recovery probes start quickly, fast sampler so the threshold alert's
# 10s window fills with enough points to judge.
"$WORK/ccmrouter" -addr "$ROUTER" -backends "$W1,$W2,$W3" \
    -breaker-consec 2 -breaker-cooldown 2s -ts-resolution 200ms \
    -log-format json >/dev/null 2>"$WORK/router.log" &
echo $! >>"$PIDFILE"
for _ in $(seq 1 100); do
    grep -q 'listening on' "$WORK/router.log" && break
    sleep 0.1
done
grep -q 'listening on' "$WORK/router.log" \
    || die "router never reported its address (log: $(cat "$WORK/router.log"))"
echo "cluster_e2e: router on $ROUTER fronting $W1 $W2 $W3"

METRICS=$(curl -s "http://$ROUTER/metrics")
for W in "$W1" "$W2" "$W3"; do
    grep -q "^netags_cluster_breaker_state{backend=\"$W\"} 0$" <<<"$METRICS" \
        || die "/metrics does not show $W's breaker closed: $(grep netags_cluster_breaker_state <<<"$METRICS")"
done

"$WORK/ccmload" -addr "$ROUTER" -rps 2 -duration 5s -drain 30s \
    -large-ratio 0 -max-p99 30s -fail-on-alerts \
    -check-series cluster_submits_total,cluster_forwarded_total,runtime_goroutines \
    -report-json "$WORK/load_report.json" \
    || die "gentle load through the router violated a gate (exit $?)"
grep -q '"shed_responses"' "$WORK/load_report.json" \
    || die "load report missing shed_responses: $(cat "$WORK/load_report.json")"
grep -q '"shed_rate"' "$WORK/load_report.json" \
    || die "load report missing shed_rate: $(cat "$WORK/load_report.json")"
echo "cluster_e2e: phase A passed (topology + load gates + shed report)"

# --- Phase B: routed submissions byte-match the reference ----------------
for i in $(seq 1 "$NSPECS"); do
    RESP=$(curl -s -D "$WORK/hdr.$i" "http://$ROUTER/api/v1/jobs" -d "$(spec "$i")")
    [ "$(job_id "$RESP")" = "$(cat "$WORK/id.$i")" ] \
        || die "router produced a different job id for spec $i: $RESP"
    tr -d '\r' <"$WORK/hdr.$i" | sed -n 's/^[Xx]-[Cc][Cc][Mm]-[Bb]ackend: //p' >"$WORK/owner.$i"
    [ -s "$WORK/owner.$i" ] || die "submit $i reply carries no X-CCM-Backend header"
    await_result "$ROUTER" "$(cat "$WORK/id.$i")" "$WORK/routed.$i.bin"
    cmp "$WORK/ref.$i.bin" "$WORK/routed.$i.bin" \
        || die "routed result $i differs from single-node reference"
done
echo "cluster_e2e: $NSPECS routed results byte-identical to reference"

# --- Phase C: kill an owning worker, fail over, breaker + alert ----------
VICTIM=$(cat "$WORK/owner.1")
case "$VICTIM" in
"$W1") VICTIM_PID=$WORK/w1.pid ;;
"$W2") VICTIM_PID=$WORK/w2.pid ;;
"$W3") VICTIM_PID=$WORK/w3.pid ;;
*) die "owner of spec 1 is not a configured backend: $VICTIM" ;;
esac
kill -9 "$(cat "$VICTIM_PID")"
echo "cluster_e2e: killed $VICTIM (owner of spec 1)"

# Every spec must still come back byte-identical: keys owned by the victim
# fail over to the next ring owner and re-execute there (content-addressed,
# so the bytes cannot differ); the rest are untouched.
for i in $(seq 1 "$NSPECS"); do
    curl -s "http://$ROUTER/api/v1/jobs" -d "$(spec "$i")" >/dev/null
    await_result "$ROUTER" "$(cat "$WORK/id.$i")" "$WORK/failover.$i.bin"
    cmp "$WORK/ref.$i.bin" "$WORK/failover.$i.bin" \
        || die "post-kill result $i differs from single-node reference"
done
echo "cluster_e2e: $NSPECS post-kill results byte-identical (keyspace re-routed)"

METRICS=$(curl -s "http://$ROUTER/metrics")
grep -q "netags_cluster_breaker_state{backend=\"$VICTIM\"} [12]" <<<"$METRICS" \
    || die "/metrics does not show $VICTIM breaker tripped"
FAILOVERS=$(grep '^netags_cluster_failovers_total' <<<"$METRICS" | awk '{print $2}')
[ "${FAILOVERS:-0}" -gt 0 ] || die "/metrics shows no failovers after the kill"

firing() { curl -s "http://$ROUTER/api/v1/alerts" | grep -o '"firing":[0-9]\+' | head -1 | cut -d: -f2; }

FIRED=
for _ in $(seq 1 300); do # threshold rule needs the 10s window mean >= 0.5
    if [ "$(firing)" -gt 0 ]; then FIRED=1; break; fi
    sleep 0.1
done
[ -n "$FIRED" ] || die "cluster_breaker_open never fired after the kill"
curl -s "http://$ROUTER/api/v1/alerts" | grep -q '"rule":"cluster_breaker_open"' \
    || die "firing alert is not cluster_breaker_open"
echo "cluster_e2e: breaker open on /metrics, cluster_breaker_open firing"

# --- Phase D: restart the worker, breaker closes, alert resolves ---------
case "$VICTIM" in
"$W1") start_worker "$W1" "$WORK/w1b.log" "$WORK/w1b.pid" ;;
"$W2") start_worker "$W2" "$WORK/w2b.log" "$WORK/w2b.pid" ;;
"$W3") start_worker "$W3" "$WORK/w3b.log" "$WORK/w3b.pid" ;;
esac
echo "cluster_e2e: restarted worker on $VICTIM"

# Traffic drives recovery: once the cooldown lapses, the next submission
# for the victim's keyspace runs as a half-open probe; enough successes
# close the breaker. Resubmits are cache-hits elsewhere and re-executions
# on the rebooted worker — cheap either way.
CLOSED=
for _ in $(seq 1 200); do
    curl -s "http://$ROUTER/api/v1/jobs" -d "$(spec 1)" >/dev/null
    if curl -s "http://$ROUTER/metrics" \
        | grep -q "netags_cluster_breaker_state{backend=\"$VICTIM\"} 0"; then
        CLOSED=1
        break
    fi
    sleep 0.3
done
[ -n "$CLOSED" ] || die "breaker for $VICTIM never closed after restart"
echo "cluster_e2e: breaker closed via half-open probes"

RESOLVED=
for _ in $(seq 1 300); do # the 10s window mean must fall back under 0.5
    if [ "$(firing)" -eq 0 ]; then RESOLVED=1; break; fi
    sleep 0.1
done
[ -n "$RESOLVED" ] || die "cluster_breaker_open never resolved after recovery"

grep -q '"msg":"breaker state".*"to":"open"' "$WORK/router.log" \
    || die "router log missing the open transition"
grep -q '"msg":"breaker state".*"to":"closed"' "$WORK/router.log" \
    || die "router log missing the closed transition"
echo "cluster_e2e: PASS (failover byte-identical, breaker lifecycle on metrics, alerts, and log)"
