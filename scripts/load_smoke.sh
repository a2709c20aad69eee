#!/usr/bin/env bash
# Load smoke for the telemetry engine: start ccmserve with a fast sampler
# and a tight burn-rate rule, then
#
#  Phase A  drive gentle load with ccmload and let its own verdicts gate:
#           p99 bound holds, no alert fires, and the serve/sim/runtime
#           time series are all non-empty on /api/v1/timeseries.
#  Phase B  induce overload (pool 1, large jobs, high RPS) and watch the
#           burn-rate alert transition firing -> resolved after the load
#           drops, on /api/v1/alerts, on /metrics (netags_alert_active),
#           and in the daemon's structured log.
#
# Usage: scripts/load_smoke.sh   (from the repo root; needs go + curl)
set -euo pipefail

WORK=$(mktemp -d)
PIDFILE="$WORK/pids"
touch "$PIDFILE"
cleanup() {
    while read -r pid; do kill -9 "$pid" 2>/dev/null || true; done <"$PIDFILE"
    rm -rf "$WORK"
}
trap cleanup EXIT

die() { echo "load_smoke: FAIL: $*" >&2; exit 1; }

echo "load_smoke: building ccmserve + ccmload"
go build -o "$WORK/ccmserve" ./cmd/ccmserve
go build -o "$WORK/ccmload" ./cmd/ccmload

# One burn-rate rule tuned for a smoke test: jobs finishing end-to-end
# under ~1s are good, a 10% error budget, burn 2x over an 8s window, and
# at least 3 jobs of traffic before a verdict. Gentle load passes easily;
# a saturated 1-worker pool blows through it within seconds.
RULES="$WORK/rules.json"
cat >"$RULES" <<'EOF'
[{"name":"e2e_burn","good":"serve_e2e_ms_le_1023","total":"serve_e2e_ms_count",
  "objective":0.9,"burn":2,"min_total":3,"window_s":8}]
EOF

"$WORK/ccmserve" -addr 127.0.0.1:0 -pool 1 -job-workers 1 -queue 256 \
    -ts-resolution 200ms -slo-rules "$RULES" -log-format json \
    >/dev/null 2>"$WORK/daemon.log" &
echo $! >>"$PIDFILE"
for _ in $(seq 1 100); do
    grep -q 'listening on' "$WORK/daemon.log" && break
    sleep 0.1
done
ADDR=$(sed -n 's/.*listening on \([0-9.:]*\).*/\1/p' "$WORK/daemon.log" | head -1)
[ -n "$ADDR" ] || die "daemon never reported its address (log: $(cat "$WORK/daemon.log"))"
echo "load_smoke: daemon on $ADDR"

# --- Phase A: gentle load, ccmload's own gates must all pass -------------
"$WORK/ccmload" -addr "$ADDR" -rps 1.5 -duration 8s -drain 30s \
    -large-ratio 0 -max-p99 20s -fail-on-alerts \
    -check-series serve_queue_len,serve_jobs_executed_total,sessions_total,runtime_goroutines \
    || die "gentle load violated an SLO gate (exit $?)"
echo "load_smoke: phase A passed (p99 bound, no alerts, series non-empty)"

# --- Phase B: overload, watch the burn-rate alert fire then resolve ------
# Large jobs at 10 rps against one worker: queue wait alone pushes e2e far
# past the 1s good threshold. No gates here — the point is the transition.
"$WORK/ccmload" -addr "$ADDR" -rps 10 -duration 6s -drain 60s \
    -large-ratio 1 >/dev/null &
LOAD_PID=$!
echo "$LOAD_PID" >>"$PIDFILE"

# The top-level "firing" count is the only numeric firing field — the
# per-rule states carry booleans.
firing() { curl -s "http://$ADDR/api/v1/alerts" | grep -o '"firing":[0-9]\+' | head -1 | cut -d: -f2; }

FIRED=
for _ in $(seq 1 200); do # up to 20s for the burn verdict
    if [ "$(firing)" -gt 0 ]; then FIRED=1; break; fi
    sleep 0.1
done
[ -n "$FIRED" ] || die "overload never fired the burn-rate alert"
curl -s "http://$ADDR/metrics" | grep -q 'netags_alert_active{rule="e2e_burn"} 1' \
    || die "/metrics does not show netags_alert_active 1 while firing"
echo "load_smoke: e2e_burn fired under overload"

wait "$LOAD_PID" || true # rejections/slow jobs are expected here
RESOLVED=
for _ in $(seq 1 300); do # the 8s window must go quiet: allow 30s
    if [ "$(firing)" -eq 0 ]; then RESOLVED=1; break; fi
    sleep 0.1
done
[ -n "$RESOLVED" ] || die "alert never resolved after the load dropped"
echo "load_smoke: e2e_burn resolved after load dropped"

grep -q '"msg":"slo alert firing"' "$WORK/daemon.log" \
    || die "daemon log missing the firing transition"
grep -q '"msg":"slo alert resolved"' "$WORK/daemon.log" \
    || die "daemon log missing the resolved transition"
echo "load_smoke: PASS (alert lifecycle observed on API, metrics, and log)"
