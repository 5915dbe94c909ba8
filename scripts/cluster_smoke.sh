#!/usr/bin/env bash
# Smoke test for the sharded gateway, run in CI after the unit tests:
# start two ebmfd backends and one ebmfgw on kernel-assigned free ports,
# solve the paper's Fig. 1b instance through the gateway, resubmit a
# row/column permutation and assert it comes back with the same depth as a
# cache hit (fingerprint routing + shard cache through the gateway), wait
# for the fresh result to be replicated to the ring successor so BOTH
# backends answer it from cache, then kill -9 the home backend of an
# in-flight async job and assert the gateway re-homes it to the survivor
# (same gw- ID, "rehomed":true, counted in /v1/metrics) while sync solves
# keep working. Any startup timeout fails fast with the daemons' logs.
set -euo pipefail

FIG1B='101100\n010011\n101010\n010101\n111000\n000111'
# Fig. 1b with rows and columns permuted; same canonical fingerprint.
FIG1B_PERM='110100\n111000\n000111\n001011\n010011\n101100'

LOG1=$(mktemp /tmp/ebmfd1-smoke.XXXXXX.log)
LOG2=$(mktemp /tmp/ebmfd2-smoke.XXXXXX.log)
LOGGW=$(mktemp /tmp/ebmfgw-smoke.XXXXXX.log)
go build -o /tmp/ebmfd-smoke ./cmd/ebmfd
go build -o /tmp/ebmfgw-smoke ./cmd/ebmfgw

PIDS=()
cleanup() {
  for pid in "${PIDS[@]}"; do kill "$pid" 2>/dev/null || true; done
}
trap cleanup EXIT

# wait_addr LOGFILE VAR — parse the "listening on" line a daemon prints.
wait_addr() {
  local log=$1 pid=$2 addr=
  for _ in $(seq 1 100); do
    addr=$(sed -n 's/.*listening on \(127\.0\.0\.1:[0-9]*\).*/\1/p' "$log" | head -1)
    [ -n "$addr" ] && { echo "$addr"; return 0; }
    if ! kill -0 "$pid" 2>/dev/null; then
      echo "FAIL: daemon exited during startup; log follows" >&2
      cat "$log" >&2
      return 1
    fi
    sleep 0.1
  done
  echo "FAIL: no listen address within 10s; log follows" >&2
  cat "$log" >&2
  return 1
}

/tmp/ebmfd-smoke -addr 127.0.0.1:0 >"$LOG1" 2>&1 &
PID1=$!; PIDS+=("$PID1")
/tmp/ebmfd-smoke -addr 127.0.0.1:0 >"$LOG2" 2>&1 &
PID2=$!; PIDS+=("$PID2")
ADDR1=$(wait_addr "$LOG1" "$PID1")
ADDR2=$(wait_addr "$LOG2" "$PID2")

# Fast probes + a short breaker cooldown so the backend-kill phase settles
# within the smoke budget.
/tmp/ebmfgw-smoke -addr 127.0.0.1:0 -backends "http://$ADDR1,http://$ADDR2" \
  -probe-interval 200ms -hedge-after 500ms -breaker-cooldown 1s >"$LOGGW" 2>&1 &
PIDGW=$!; PIDS+=("$PIDGW")
GW=$(wait_addr "$LOGGW" "$PIDGW")

for _ in $(seq 1 100); do
  curl -sf "http://$GW/v1/healthz" >/dev/null 2>&1 && break
  sleep 0.1
done
if ! curl -sf "http://$GW/v1/healthz" >/dev/null; then
  echo "FAIL: gateway healthz never came up on $GW; log follows"
  cat "$LOGGW"
  exit 1
fi

R1=$(curl -sf -X POST -d "{\"matrix\":\"$FIG1B\"}" "http://$GW/v1/solve")
R2=$(curl -sf -X POST -d "{\"matrix\":\"$FIG1B_PERM\"}" "http://$GW/v1/solve")
echo "cold:     $R1"
echo "permuted: $R2"

grep -q '"depth":5' <<<"$R1" || { echo "FAIL: cold solve depth != 5"; exit 1; }
grep -q '"optimal":true' <<<"$R1" || { echo "FAIL: cold solve not optimal"; exit 1; }
grep -q '"cache_hit":false' <<<"$R1" || { echo "FAIL: cold solve claims cache hit"; exit 1; }
grep -q '"depth":5' <<<"$R2" || { echo "FAIL: permuted solve depth != 5"; exit 1; }
grep -q '"cache_hit":true' <<<"$R2" || { echo "FAIL: permuted resubmission missed the cache through the gateway"; exit 1; }

FP1=$(sed -n 's/.*"fingerprint":"\([0-9a-f]*\)".*/\1/p' <<<"$R1")
FP2=$(sed -n 's/.*"fingerprint":"\([0-9a-f]*\)".*/\1/p' <<<"$R2")
[ -n "$FP1" ] && [ "$FP1" = "$FP2" ] || { echo "FAIL: fingerprints differ through the gateway"; exit 1; }

# Cache-fill replication: the fresh Fig. 1b result is asynchronously
# seeded to the ring successor. Wait for the gateway to report the fill
# stored, then both backends — home shard and successor — must answer the
# canonical instance from their own cache, with no new solve.
REPM=
for _ in $(seq 1 100); do
  REPM=$(curl -sf "http://$GW/v1/metrics")
  grep -q '"replication":{[^}]*"stored":1' <<<"$REPM" && break
  sleep 0.1
done
grep -q '"replication":{[^}]*"stored":1' <<<"$REPM" \
  || { echo "FAIL: gateway never stored a replication fill"; echo "$REPM"; exit 1; }
for A in "$ADDR1" "$ADDR2"; do
  RH=$(curl -sf -X POST -d "{\"matrix\":\"$FIG1B\"}" "http://$A/v1/solve")
  grep -q '"cache_hit":true' <<<"$RH" \
    || { echo "FAIL: backend $A cold after replication: $RH"; exit 1; }
done
# Exactly one backend accepted a fill; the other proved the result itself.
FILLS=0
for A in "$ADDR1" "$ADDR2"; do
  curl -sf "http://$A/v1/metrics" | grep -q '"fills":{"requests":1,"stored":1' && FILLS=$((FILLS + 1))
done
[ "$FILLS" = 1 ] || { echo "FAIL: expected exactly 1 backend with a stored fill, got $FILLS"; exit 1; }

# Batch through the gateway: split across shards, merged in order, with a
# per-item error for the invalid middle entry.
RB=$(curl -sf -X POST -d "{\"requests\":[{\"matrix\":\"10\\n01\"},{\"rows\":[]},{\"matrix\":\"$FIG1B\"}]}" "http://$GW/v1/batch")
echo "batch:    $RB"
grep -q '"depth":2' <<<"$RB" || { echo "FAIL: batch item 0 depth != 2"; exit 1; }
grep -q '"error":' <<<"$RB" || { echo "FAIL: zero-dimension batch item carried no error"; exit 1; }
grep -q '"depth":5' <<<"$RB" || { echo "FAIL: batch item 2 depth != 5"; exit 1; }

# Async job through the gateway: submit answers 202 with a gateway-minted
# ID, the SSE stream proxies through to a terminal done frame, the poll is
# sticky to the accepting backend, and the job shares the sync path's
# canonical key space (the same matrix re-solves as a cache hit).
JOBM='110101\n011011\n101110\n010111\n111010\n001101'
JOB=$(curl -sf -X POST -d "{\"matrix\":\"$JOBM\"}" "http://$GW/v1/jobs")
echo "job:      $JOB"
JOB_ID=$(sed -n 's/.*"id":"\(gw-[0-9a-f]*\)".*/\1/p' <<<"$JOB")
[ -n "$JOB_ID" ] || { echo "FAIL: gateway job submit returned no gw- ID: $JOB"; exit 1; }
STREAM=$(curl -sfN --max-time 60 "http://$GW/v1/jobs/$JOB_ID/events")
grep -q 'event: done' <<<"$STREAM" || { echo "FAIL: proxied job stream had no done event"; echo "$STREAM"; exit 1; }
grep -q "\"id\":\"$JOB_ID\"" <<<"$STREAM" || { echo "FAIL: proxied done frame not rewritten to gateway ID"; echo "$STREAM"; exit 1; }
JG=$(curl -sf "http://$GW/v1/jobs/$JOB_ID")
grep -q '"state":"done"' <<<"$JG" || { echo "FAIL: proxied job not done: $JG"; exit 1; }
grep -q '"optimal":true' <<<"$JG" || { echo "FAIL: proxied job not optimal: $JG"; exit 1; }
RJ=$(curl -sf -X POST -d "{\"matrix\":\"$JOBM\"}" "http://$GW/v1/solve")
grep -q '"cache_hit":true' <<<"$RJ" || { echo "FAIL: sync solve after job missed the cache: $RJ"; exit 1; }

# Observability: a fresh solve that genuinely runs SAT (8×8 gap matrix, so
# the trace carries depth-probe spans and solver progress) must yield ONE
# stitched trace on the gateway's debug endpoint — gateway root + proxy span
# + the backend's solve/block/probe subtree — while the client response
# carries no trace payload.
GAP8='10110101\n01101110\n11010011\n00111101\n11101010\n01011101\n10110110\n01101011'
RT=$(curl -sf -X POST -d "{\"matrix\":\"$GAP8\"}" "http://$GW/v1/solve")
grep -q '"depth":8' <<<"$RT" || { echo "FAIL: gap8 solve depth != 8"; exit 1; }
if grep -q '"trace"' <<<"$RT"; then
  echo "FAIL: gateway leaked the trace to the client"; exit 1
fi
GWTRACES=$(curl -sf "http://$GW/v1/debug/traces")
for span in gw.solve proxy solve block probe; do
  grep -q "\"name\":\"$span\"" <<<"$GWTRACES" \
    || { echo "FAIL: stitched trace missing $span span"; echo "$GWTRACES"; exit 1; }
done
grep -q '"t_us":' <<<"$GWTRACES" || { echo "FAIL: stitched trace carries no progress samples"; exit 1; }
# Cross-tier correlation: the newest gateway trace and the serving backend's
# ring must share one trace ID.
TID=$(grep -o '"trace_id":"[0-9a-f]*"' <<<"$GWTRACES" | head -1 | cut -d'"' -f4)
[ -n "$TID" ] || { echo "FAIL: no trace ID in gateway traces"; exit 1; }
BHIT=0
for A in "$ADDR1" "$ADDR2"; do
  curl -sf "http://$A/v1/debug/traces" | grep -q "$TID" && BHIT=$((BHIT + 1))
done
[ "$BHIT" -ge 1 ] || { echo "FAIL: no backend ring shares trace ID $TID"; exit 1; }

# A dimensionally invalid matrix must be a structured 400 at the gateway.
CODE=$(curl -s -o /dev/null -w '%{http_code}' -X POST -d '{"rows":[[]]}' "http://$GW/v1/solve")
[ "$CODE" = "400" ] || { echo "FAIL: zero-dimension matrix returned $CODE, want 400"; exit 1; }

# --- Job re-homing: kill a job's home backend mid-solve ---------------------
# Submit a slow job through the gateway, find which backend accepted it (its
# per-backend jobs.submitted counter moved), kill -9 that backend, and
# assert a single gateway poll answers a live re-homed snapshot — same gw-
# ID, "rehomed":true, no 502 — with the re-home counted in the gateway's
# /v1/metrics. The job must still reach done on the surviving backend. The
# slow job is benchgen.GapSuite(77, 18, 18, {4}, 8)[7], ~1s exact.
HARD='111000001010110010\n000000100100000001\n010000101000010001\n101000000110100010\n011000001010110011\n100000100100000000\n110000101110000011\n001000000000110000\n101100111000111000\n101111000010111011\n111011100011100100\n010000101111000101\n101010111100110110\n001011101101010101\n010011100111011010\n001001111000001000\n110000111100100001\n100111111110111010'
jobs_submitted() {
  curl -sf "http://$1/v1/metrics" | grep -o '"jobs":{"submitted":[0-9]*' | grep -o '[0-9]*$'
}
B1_BEFORE=$(jobs_submitted "$ADDR1")
B2_BEFORE=$(jobs_submitted "$ADDR2")
RJOB=$(curl -sf -X POST -d "{\"matrix\":\"$HARD\"}" "http://$GW/v1/jobs")
echo "rehome-job: $RJOB"
RID=$(sed -n 's/.*"id":"\(gw-[0-9a-f]*\)".*/\1/p' <<<"$RJOB")
[ -n "$RID" ] || { echo "FAIL: slow job submit returned no gw- ID: $RJOB"; exit 1; }
HOMEPID=; HOMEADDR=
if [ "$(jobs_submitted "$ADDR1")" -gt "$B1_BEFORE" ]; then
  HOMEPID=$PID1; HOMEADDR=$ADDR1
elif [ "$(jobs_submitted "$ADDR2")" -gt "$B2_BEFORE" ]; then
  HOMEPID=$PID2; HOMEADDR=$ADDR2
fi
[ -n "$HOMEPID" ] || { echo "FAIL: no backend's jobs.submitted moved"; exit 1; }
kill -9 "$HOMEPID"
wait "$HOMEPID" 2>/dev/null || true

RSNAP=$(curl -sf "http://$GW/v1/jobs/$RID") \
  || { echo "FAIL: poll of dead-backend job failed (no re-home); log follows"; cat "$LOGGW"; exit 1; }
echo "rehomed:  $RSNAP"
grep -q "\"id\":\"$RID\"" <<<"$RSNAP" || { echo "FAIL: re-home changed the gateway ID: $RSNAP"; exit 1; }
grep -q '"rehomed":true' <<<"$RSNAP" || { echo "FAIL: snapshot not flagged rehomed: $RSNAP"; exit 1; }
for _ in $(seq 1 300); do
  RSNAP=$(curl -sf "http://$GW/v1/jobs/$RID") || { echo "FAIL: re-homed job poll failed"; exit 1; }
  grep -q '"state":"done"' <<<"$RSNAP" && break
  sleep 0.1
done
grep -q '"state":"done"' <<<"$RSNAP" || { echo "FAIL: re-homed job never finished: $RSNAP"; exit 1; }
grep -q '"rehomed":true' <<<"$RSNAP" || { echo "FAIL: terminal snapshot lost the rehomed flag: $RSNAP"; exit 1; }
GWM=$(curl -sf "http://$GW/v1/metrics")
grep -Eq '"rehomed":[1-9]' <<<"$GWM" || { echo "FAIL: gateway metrics count no re-home"; echo "$GWM"; exit 1; }

# The dead backend's loss must not take the gateway down for sync solves
# either (failover + probes).
R3=$(curl -sf -X POST -d '{"matrix":"110\n011\n101"}' "http://$GW/v1/solve") \
  || { echo "FAIL: solve after backend kill failed"; cat "$LOGGW"; exit 1; }
echo "failover: $R3"
grep -q '"optimal":true' <<<"$R3" || { echo "FAIL: post-kill solve not optimal"; exit 1; }
# And the cached pattern must still be served (local LRU or surviving shard).
R4=$(curl -sf -X POST -d "{\"matrix\":\"$FIG1B_PERM\"}" "http://$GW/v1/solve") \
  || { echo "FAIL: cached solve after backend kill failed"; exit 1; }
grep -q '"depth":5' <<<"$R4" || { echo "FAIL: post-kill cached solve depth != 5"; exit 1; }

# Metrics aggregate per-backend state, the cache split and the latency
# histograms (gateway end-to-end + merged per-backend proxy round-trips).
METRICS=$(curl -sf "http://$GW/v1/metrics")
grep -q '"backends":\[' <<<"$METRICS" || { echo "FAIL: metrics missing backends section"; exit 1; }
grep -q '"breaker"' <<<"$METRICS" || { echo "FAIL: metrics missing breaker state"; exit 1; }
grep -q '"local"' <<<"$METRICS" || { echo "FAIL: metrics missing local cache section"; exit 1; }
grep -q '"p50_ns":' <<<"$METRICS" || { echo "FAIL: metrics missing latency percentiles"; exit 1; }
grep -q '"proxy_latency":{' <<<"$METRICS" || { echo "FAIL: metrics missing merged proxy histogram"; exit 1; }

# Graceful drain: gateway healthz flips and the process exits cleanly.
kill -TERM "$PIDGW"
for _ in $(seq 1 100); do
  kill -0 "$PIDGW" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$PIDGW" 2>/dev/null; then
  echo "FAIL: ebmfgw did not drain within 10s; log follows"
  cat "$LOGGW"
  exit 1
fi
echo "PASS: cluster smoke (2 backends + gateway, permuted hit through gateway, replication, batch split, proxied job+SSE, stitched trace, job re-homing after backend kill, drain)"
