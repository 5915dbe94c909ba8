#!/usr/bin/env bash
# Smoke test for the ebmfd solve service, run in CI after the unit tests:
# start the daemon on a kernel-assigned free port (so two CI jobs sharing a
# runner never collide), solve the paper's Fig. 1b instance, resubmit a
# row/column permutation of it, assert the permutation comes back with the
# same depth as a cache hit (the canonical-fingerprint + singleflight
# contract), and run a named solver strategy end to end (the retired racing
# values must be 400s). Then the
# crash-recovery phase: kill -9 the daemon, corrupt the durable store's WAL
# (flip a byte in the last record, append a garbage tail), restart on the
# same store directory and assert the permuted instance is still a cache
# hit — proved work survives a crash, corruption costs only the records it
# touches. Any startup timeout fails fast with the daemon's log.
#
# In between, the async job API: submit → SSE stream → terminal result,
# cancel-mid-solve frees the slot, a tenant over its quota gets a coded 429,
# and a degrade-opted submit under the same quota pressure gets a heuristic
# answer instead.
#
# The final phase is durable jobs: with -job-journal, two in-flight jobs
# (one mid-solve, one queued with a callback_url) survive a kill -9 —
# the restarted daemon replays the journal, finishes both under their
# ORIGINAL IDs, serves the already-proved one from the store without
# re-solving, and delivers the webhook at least once through an injected
# first-attempt failure.
set -euo pipefail

FIG1B='101100\n010011\n101010\n010101\n111000\n000111'
# Fig. 1b with rows and columns permuted; same canonical fingerprint.
FIG1B_PERM='110100\n111000\n000111\n001011\n010011\n101100'
# A reproducible 18x18 (benchgen.GapSuite(77, 18, 18, {4}, 8)[7]) whose
# exact solve takes ~1s: wide enough a window to cancel mid-solve
# deterministically.
HARD='111000001010110010\n000000100100000001\n010000101000010001\n101000000110100010\n011000001010110011\n100000100100000000\n110000101110000011\n001000000000110000\n101100111000111000\n101111000010111011\n111011100011100100\n010000101111000101\n101010111100110110\n001011101101010101\n010011100111011010\n001001111000001000\n110000111100100001\n100111111110111010'
# A reproducible 9x9 where the packing heuristic provably over-shoots the
# lower bound, so a heuristic-only (degraded) answer must be optimal=false.
GAPM='011100101\n010001001\n011101001\n100110100\n001101000\n010110110\n100100101\n101101110\n010100111'

LOG=$(mktemp /tmp/ebmfd-smoke.XXXXXX.log)
STORE=$(mktemp -d /tmp/ebmfd-smoke-store.XXXXXX)
go build -o /tmp/ebmfd-smoke ./cmd/ebmfd
/tmp/ebmfd-smoke -addr 127.0.0.1:0 -store "$STORE" -tenants 'smoke:smoke-key:3:1' >"$LOG" 2>&1 &
PID=$!
trap 'kill $PID 2>/dev/null || true; rm -rf "$STORE"' EXIT

# The daemon logs the actual address once the listener is up; parse it
# instead of hardcoding a port.
ADDR=
for _ in $(seq 1 100); do
  ADDR=$(sed -n 's/.*listening on \(127\.0\.0\.1:[0-9]*\).*/\1/p' "$LOG" | head -1)
  [ -n "$ADDR" ] && break
  if ! kill -0 "$PID" 2>/dev/null; then
    echo "FAIL: ebmfd exited during startup; log follows"
    cat "$LOG"
    exit 1
  fi
  sleep 0.1
done
if [ -z "$ADDR" ]; then
  echo "FAIL: ebmfd did not report a listen address within 10s; log follows"
  cat "$LOG"
  exit 1
fi

for _ in $(seq 1 100); do
  curl -sf "http://$ADDR/v1/healthz" >/dev/null 2>&1 && break
  sleep 0.1
done
if ! curl -sf "http://$ADDR/v1/healthz" >/dev/null; then
  echo "FAIL: healthz never came up on $ADDR; log follows"
  cat "$LOG"
  exit 1
fi

R1=$(curl -sf -X POST -d "{\"matrix\":\"$FIG1B\"}" "http://$ADDR/v1/solve")
R2=$(curl -sf -X POST -d "{\"matrix\":\"$FIG1B_PERM\"}" "http://$ADDR/v1/solve")
echo "cold:     $R1"
echo "permuted: $R2"

grep -q '"depth":5' <<<"$R1" || { echo "FAIL: cold solve depth != 5"; exit 1; }
grep -q '"optimal":true' <<<"$R1" || { echo "FAIL: cold solve not optimal"; exit 1; }
grep -q '"cache_hit":false' <<<"$R1" || { echo "FAIL: cold solve claims cache hit"; exit 1; }
grep -q '"depth":5' <<<"$R2" || { echo "FAIL: permuted solve depth != 5"; exit 1; }
grep -q '"cache_hit":true' <<<"$R2" || { echo "FAIL: permuted resubmission missed the cache"; exit 1; }

FP1=$(sed -n 's/.*"fingerprint":"\([0-9a-f]*\)".*/\1/p' <<<"$R1")
FP2=$(sed -n 's/.*"fingerprint":"\([0-9a-f]*\)".*/\1/p' <<<"$R2")
[ -n "$FP1" ] && [ "$FP1" = "$FP2" ] || { echo "FAIL: fingerprints differ"; exit 1; }

# A named strategy over the wire, on a matrix whose optimality genuinely
# needs the SAT stage (8×8, rank 7 < fooling-unreachable depth 8), so the
# strategy actually runs its narrowing loop.
GAP8='10110101\n01101110\n11010011\n00111101\n11101010\n01011101\n10110110\n01101011'
R3=$(curl -sf -X POST -d "{\"matrix\":\"$GAP8\",\"options\":{\"portfolio_strategies\":[\"luby\"]}}" "http://$ADDR/v1/solve")
echo "luby:     $R3"
grep -q '"depth":8' <<<"$R3" || { echo "FAIL: luby solve depth != 8"; exit 1; }
grep -q '"optimal":true' <<<"$R3" || { echo "FAIL: luby solve not optimal"; exit 1; }

# Strategy racing is retired: asking for a race must be a 400, and so must
# an unknown strategy — never a 500 or a silent solo run.
for OPTS in '{"portfolio":3}' '{"portfolio_strategies":["bogus"]}'; do
  CODE=$(curl -s -o /dev/null -w '%{http_code}' -X POST \
    -d "{\"matrix\":\"11\\n01\",\"options\":$OPTS}" "http://$ADDR/v1/solve")
  [ "$CODE" = "400" ] || { echo "FAIL: options $OPTS returned $CODE, want 400"; exit 1; }
done

METRICS=$(curl -sf "http://$ADDR/v1/metrics")
grep -q '"hits":1' <<<"$METRICS" || { echo "FAIL: metrics report no cache hit"; exit 1; }
grep -q '"p50_ns":' <<<"$METRICS" || { echo "FAIL: metrics missing latency percentiles"; exit 1; }
grep -q '"queue_wait":{' <<<"$METRICS" || { echo "FAIL: metrics missing queue wait histogram"; exit 1; }

# Observability: solves are traced by default; the debug endpoint must hold
# span trees (per-block, per-stage, depth probes) plus progress samples
# from the GAP8 solve, and a cached solve must be marked as a hit.
TRACES=$(curl -sf "http://$ADDR/v1/debug/traces")
for span in solve preprocess decompose block pack probe; do
  grep -q "\"name\":\"$span\"" <<<"$TRACES" || { echo "FAIL: traces missing $span span"; echo "$TRACES"; exit 1; }
done
grep -q '"t_us":' <<<"$TRACES" || { echo "FAIL: traces carry no solver progress samples"; exit 1; }
grep -q '"cache_hit":"true"' <<<"$TRACES" || { echo "FAIL: no trace records a cache hit"; exit 1; }

# --- Async jobs: submit → stream → result ---------------------------------
# A submit answers 202 with an ID immediately; the SSE stream must deliver
# lifecycle events and end with a terminal done frame carrying the result.
JOB=$(curl -sf -X POST -d "{\"matrix\":\"$GAP8\"}" "http://$ADDR/v1/jobs")
echo "job:      $JOB"
JOB_ID=$(sed -n 's/.*"id":"\([^"]*\)".*/\1/p' <<<"$JOB")
[ -n "$JOB_ID" ] || { echo "FAIL: job submit returned no ID"; exit 1; }
STREAM=$(curl -sfN --max-time 60 "http://$ADDR/v1/jobs/$JOB_ID/events")
grep -q 'event: done' <<<"$STREAM" || { echo "FAIL: job stream had no done event"; echo "$STREAM"; exit 1; }
grep -q '"depth":8' <<<"$STREAM" || { echo "FAIL: job stream result depth != 8"; echo "$STREAM"; exit 1; }
J=$(curl -sf "http://$ADDR/v1/jobs/$JOB_ID")
grep -q '"state":"done"' <<<"$J" || { echo "FAIL: streamed job not done: $J"; exit 1; }
grep -q '"optimal":true' <<<"$J" || { echo "FAIL: streamed job not optimal: $J"; exit 1; }

# --- Cancel mid-solve frees the slot --------------------------------------
JOB=$(curl -sf -X POST -d "{\"matrix\":\"$HARD\"}" "http://$ADDR/v1/jobs")
JOB_ID=$(sed -n 's/.*"id":"\([^"]*\)".*/\1/p' <<<"$JOB")
for _ in $(seq 1 100); do
  STATE=$(curl -sf "http://$ADDR/v1/jobs/$JOB_ID" | sed -n 's/.*"state":"\([a-z]*\)".*/\1/p')
  [ "$STATE" = running ] && break
  sleep 0.1
done
[ "$STATE" = running ] || { echo "FAIL: hard job never started running (state=$STATE)"; exit 1; }
curl -sf -X DELETE "http://$ADDR/v1/jobs/$JOB_ID" >/dev/null
for _ in $(seq 1 100); do
  STATE=$(curl -sf "http://$ADDR/v1/jobs/$JOB_ID" | sed -n 's/.*"state":"\([a-z]*\)".*/\1/p')
  [ "$STATE" = canceled ] && break
  sleep 0.1
done
[ "$STATE" = canceled ] || { echo "FAIL: canceled job state=$STATE"; exit 1; }
# The freed slot must serve new work promptly (a cached solve suffices).
R6=$(curl -sf --max-time 5 -X POST -d "{\"matrix\":\"$FIG1B\"}" "http://$ADDR/v1/solve")
grep -q '"depth":5' <<<"$R6" || { echo "FAIL: solve after cancel broken: $R6"; exit 1; }

# --- Tenant quota: coded 429, degrade opt-in sheds gracefully -------------
# Tenant "smoke" has quota 1: a second outstanding job must be rejected with
# the machine-readable code and a Retry-After hint...
JOB=$(curl -sf -X POST -H 'Authorization: Bearer smoke-key' \
  -d "{\"matrix\":\"$HARD\"}" "http://$ADDR/v1/jobs")
QUOTA_JOB_ID=$(sed -n 's/.*"id":"\([^"]*\)".*/\1/p' <<<"$JOB")
HDRS=$(mktemp /tmp/ebmfd-smoke.XXXXXX.hdrs)
OVER=$(curl -s -D "$HDRS" -X POST -H 'Authorization: Bearer smoke-key' \
  -d "{\"matrix\":\"$FIG1B\"}" "http://$ADDR/v1/jobs")
echo "quota:    $OVER"
grep -q '"code":"quota_exceeded"' <<<"$OVER" || { echo "FAIL: quota rejection lacks code: $OVER"; exit 1; }
grep -qi '^HTTP/.* 429' "$HDRS" || { echo "FAIL: quota rejection not a 429"; cat "$HDRS"; exit 1; }
grep -qi '^Retry-After:' "$HDRS" || { echo "FAIL: quota 429 without Retry-After"; cat "$HDRS"; exit 1; }
rm -f "$HDRS"
# ...unless the client opted into degradation: then it gets a heuristic-only
# answer (optimal=false) instead of the 429.
DEG=$(curl -sf -X POST -H 'Authorization: Bearer smoke-key' \
  -d "{\"matrix\":\"$GAPM\",\"degrade\":true}" "http://$ADDR/v1/jobs")
DEG_ID=$(sed -n 's/.*"id":"\([^"]*\)".*/\1/p' <<<"$DEG")
for _ in $(seq 1 100); do
  DJ=$(curl -sf "http://$ADDR/v1/jobs/$DEG_ID" -H 'Authorization: Bearer smoke-key')
  grep -q '"state":"done"' <<<"$DJ" && break
  sleep 0.1
done
echo "degraded: $DJ"
grep -q '"degraded":true' <<<"$DJ" || { echo "FAIL: shed job not marked degraded: $DJ"; exit 1; }
grep -q '"optimal":false' <<<"$DJ" || { echo "FAIL: shed job claims optimality: $DJ"; exit 1; }
# Free the quota-filling job so it does not burn CPU into the next phase.
curl -sf -X DELETE "http://$ADDR/v1/jobs/$QUOTA_JOB_ID" -H 'Authorization: Bearer smoke-key' >/dev/null

# Crash recovery: kill -9 (no drain, no flush beyond the write-through),
# corrupt the WAL, restart on the same store directory. The last record
# (the raced 8x8) gets a byte flipped — its CRC must fail and only it may
# be dropped — and a garbage tail simulates a torn final write.
kill -9 $PID
wait $PID 2>/dev/null || true
WAL="$STORE/wal.log"
[ -s "$WAL" ] || { echo "FAIL: no WAL written at $WAL"; exit 1; }
SIZE=$(wc -c <"$WAL")
printf '\xff' | dd of="$WAL" bs=1 seek=$((SIZE - 1)) conv=notrunc 2>/dev/null
printf 'torn-tail-garbage' >>"$WAL"

LOG2=$(mktemp /tmp/ebmfd-smoke.XXXXXX.log)
/tmp/ebmfd-smoke -addr 127.0.0.1:0 -store "$STORE" >"$LOG2" 2>&1 &
PID=$!
trap 'kill $PID 2>/dev/null || true; rm -rf "$STORE"' EXIT

ADDR=
for _ in $(seq 1 100); do
  ADDR=$(sed -n 's/.*listening on \(127\.0\.0\.1:[0-9]*\).*/\1/p' "$LOG2" | head -1)
  [ -n "$ADDR" ] && break
  if ! kill -0 "$PID" 2>/dev/null; then
    echo "FAIL: ebmfd exited during crash recovery; log follows"
    cat "$LOG2"
    exit 1
  fi
  sleep 0.1
done
[ -n "$ADDR" ] || { echo "FAIL: no listen address after restart; log follows"; cat "$LOG2"; exit 1; }
for _ in $(seq 1 100); do
  curl -sf "http://$ADDR/v1/healthz" >/dev/null 2>&1 && break
  sleep 0.1
done

# The permuted Fig. 1b must be a warm hit on a cold process: its record
# survived the crash and the corruption of its neighbour.
R5=$(curl -sf -X POST -d "{\"matrix\":\"$FIG1B_PERM\"}" "http://$ADDR/v1/solve")
echo "recovered: $R5"
grep -q '"depth":5' <<<"$R5" || { echo "FAIL: post-crash solve depth != 5"; exit 1; }
grep -q '"cache_hit":true' <<<"$R5" || { echo "FAIL: post-crash permuted resubmission re-solved"; cat "$LOG2"; exit 1; }

METRICS=$(curl -sf "http://$ADDR/v1/metrics")
grep -q '"store":{' <<<"$METRICS" || { echo "FAIL: metrics missing store section"; exit 1; }
grep -q '"skipped_corrupt":1' <<<"$METRICS" || { echo "FAIL: corrupted record not skipped exactly once"; echo "$METRICS"; exit 1; }
grep -Eq '"truncated_bytes":[1-9]' <<<"$METRICS" || { echo "FAIL: damaged bytes not discarded"; echo "$METRICS"; exit 1; }
grep -qv '"loaded_wal":0' <<<"$METRICS" || { echo "FAIL: no records recovered from the WAL"; exit 1; }

# Graceful drain: healthz flips to 503, the store is flushed, and the
# process exits cleanly.
kill -TERM $PID
for _ in $(seq 1 100); do
  kill -0 $PID 2>/dev/null || break
  sleep 0.1
done
if kill -0 $PID 2>/dev/null; then
  echo "FAIL: ebmfd did not drain within 10s; log follows"
  cat "$LOG2"
  exit 1
fi
grep -q 'store flushed' "$LOG2" || { echo "FAIL: drain did not flush the store; log follows"; cat "$LOG2"; exit 1; }

# --- Durable jobs: kill -9 mid-job, restart, same IDs, webhook, no re-solve
go build -o /tmp/webhooksink-smoke ./cmd/webhooksink
HOOKOUT=$(mktemp /tmp/ebmfd-smoke.XXXXXX.hooks)
HOOKLOG=$(mktemp /tmp/ebmfd-smoke.XXXXXX.hooklog)
# The sink 500s the first delivery, so success proves the retry path.
/tmp/webhooksink-smoke -addr 127.0.0.1:0 -out "$HOOKOUT" -fail-first 1 >"$HOOKLOG" 2>&1 &
HOOKPID=$!
JOURNAL=$(mktemp -d /tmp/ebmfd-smoke-journal.XXXXXX)
LOG3=$(mktemp /tmp/ebmfd-smoke.XXXXXX.log)
trap 'kill $PID $HOOKPID 2>/dev/null || true; rm -rf "$STORE" "$JOURNAL"' EXIT

HOOKADDR=
for _ in $(seq 1 100); do
  HOOKADDR=$(sed -n 's/.*listening on \(127\.0\.0\.1:[0-9]*\).*/\1/p' "$HOOKLOG" | head -1)
  [ -n "$HOOKADDR" ] && break
  sleep 0.1
done
[ -n "$HOOKADDR" ] || { echo "FAIL: webhooksink never came up"; cat "$HOOKLOG"; exit 1; }

# -concurrency 1: the hard job occupies the only slot, so the second job
# (whose result the store already holds from phase one) is still queued at
# kill time.
/tmp/ebmfd-smoke -addr 127.0.0.1:0 -concurrency 1 -store "$STORE" \
  -job-journal "$JOURNAL" -webhook-allow 127.0.0.1 >"$LOG3" 2>&1 &
PID=$!
ADDR=
for _ in $(seq 1 100); do
  ADDR=$(sed -n 's/.*listening on \(127\.0\.0\.1:[0-9]*\).*/\1/p' "$LOG3" | head -1)
  [ -n "$ADDR" ] && break
  if ! kill -0 "$PID" 2>/dev/null; then
    echo "FAIL: ebmfd with -job-journal exited during startup; log follows"
    cat "$LOG3"; exit 1
  fi
  sleep 0.1
done
[ -n "$ADDR" ] || { echo "FAIL: no listen address with -job-journal; log follows"; cat "$LOG3"; exit 1; }

HARD_JOB=$(curl -sf -X POST -d "{\"matrix\":\"$HARD\"}" "http://$ADDR/v1/jobs")
HARD_ID=$(sed -n 's/.*"id":"\([^"]*\)".*/\1/p' <<<"$HARD_JOB")
HOOK_JOB=$(curl -sf -X POST \
  -d "{\"matrix\":\"$FIG1B_PERM\",\"callback_url\":\"http://$HOOKADDR/hook\"}" "http://$ADDR/v1/jobs")
HOOK_ID=$(sed -n 's/.*"id":"\([^"]*\)".*/\1/p' <<<"$HOOK_JOB")
[ -n "$HARD_ID" ] && [ -n "$HOOK_ID" ] || { echo "FAIL: journaled submits returned no IDs"; exit 1; }

kill -9 $PID
wait $PID 2>/dev/null || true

LOG4=$(mktemp /tmp/ebmfd-smoke.XXXXXX.log)
/tmp/ebmfd-smoke -addr 127.0.0.1:0 -concurrency 1 -store "$STORE" \
  -job-journal "$JOURNAL" -webhook-allow 127.0.0.1 >"$LOG4" 2>&1 &
PID=$!
ADDR=
for _ in $(seq 1 100); do
  ADDR=$(sed -n 's/.*listening on \(127\.0\.0\.1:[0-9]*\).*/\1/p' "$LOG4" | head -1)
  [ -n "$ADDR" ] && break
  if ! kill -0 "$PID" 2>/dev/null; then
    echo "FAIL: ebmfd exited during journal replay; log follows"
    cat "$LOG4"; exit 1
  fi
  sleep 0.1
done
[ -n "$ADDR" ] || { echo "FAIL: no listen address after journal replay; log follows"; cat "$LOG4"; exit 1; }
grep -Eq 'journal-jobs=[1-9]' "$LOG4" || { echo "FAIL: restart loaded no journal records"; cat "$LOG4"; exit 1; }

# Both journaled jobs must reach terminal under their ORIGINAL IDs — a
# poll that 404s here is the bug this phase pins down.
for _ in $(seq 1 300); do
  HJ=$(curl -sf "http://$ADDR/v1/jobs/$HARD_ID") || { echo "FAIL: replayed hard job $HARD_ID not found"; cat "$LOG4"; exit 1; }
  grep -q '"state":"done"' <<<"$HJ" && break
  sleep 0.1
done
grep -q '"state":"done"' <<<"$HJ" || { echo "FAIL: replayed hard job never finished: $HJ"; exit 1; }
grep -q '"recovered":true' <<<"$HJ" || { echo "FAIL: replayed hard job not marked recovered: $HJ"; exit 1; }
for _ in $(seq 1 300); do
  QJ=$(curl -sf "http://$ADDR/v1/jobs/$HOOK_ID") || { echo "FAIL: replayed stored job $HOOK_ID not found"; cat "$LOG4"; exit 1; }
  grep -q '"state":"done"' <<<"$QJ" && break
  sleep 0.1
done
echo "replayed: $QJ"
grep -q '"recovered":true' <<<"$QJ" || { echo "FAIL: replayed job not marked recovered: $QJ"; exit 1; }
# The proved result came back from the durable store, not a re-solve.
grep -q '"cache_hit":true' <<<"$QJ" || { echo "FAIL: replayed job re-solved a stored result: $QJ"; exit 1; }
grep -q '"depth":5' <<<"$QJ" || { echo "FAIL: replayed job depth != 5: $QJ"; exit 1; }

# The webhook fires after the restart, surviving the sink's injected
# first-delivery failure: at-least-once, across both a crash and a 500.
HOOKED=
for _ in $(seq 1 300); do
  if grep -q "$HOOK_ID" "$HOOKOUT" 2>/dev/null; then HOOKED=1; break; fi
  sleep 0.1
done
[ -n "$HOOKED" ] || { echo "FAIL: webhook never delivered; sink log follows"; cat "$HOOKLOG"; cat "$LOG4"; exit 1; }
grep -q '"state":"done"' "$HOOKOUT" || { echo "FAIL: webhook body not terminal"; cat "$HOOKOUT"; exit 1; }
METRICS=$(curl -sf "http://$ADDR/v1/metrics")
grep -Eq '"delivered":[1-9]' <<<"$METRICS" || { echo "FAIL: metrics count no webhook delivery"; echo "$METRICS"; exit 1; }

kill -TERM $PID
for _ in $(seq 1 100); do
  kill -0 $PID 2>/dev/null || break
  sleep 0.1
done
kill -0 $PID 2>/dev/null && { echo "FAIL: journaled daemon did not drain; log follows"; cat "$LOG4"; exit 1; }
grep -q 'journal flushed' "$LOG4" || { echo "FAIL: drain did not flush the journal; log follows"; cat "$LOG4"; exit 1; }
kill $HOOKPID 2>/dev/null || true

trap - EXIT
rm -rf "$STORE" "$JOURNAL"
echo "PASS: server smoke (free port, cold solve, permuted cache hit, named strategy, traces, jobs+SSE, cancel, quota codes, degrade, crash recovery, durable jobs kill -9 replay, webhook at-least-once, drain)"
