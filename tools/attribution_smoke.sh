#!/bin/sh
# End-to-end smoke for request-level observability (DESIGN.md §13).
# Registered as the `attribution_smoke` ctest (bench/); also usable
# standalone:
#
#     tools/attribution_smoke.sh <service_storm> <chaos_storm> <obs_check>
#
# The drill:
#   1. run the latency storm at SB_BENCH_THREADS=1 and 8 in separate
#      scratch dirs; both must finish clean and print the tail
#      attribution table plus the "stage-balance: ok" gate line,
#   2. the exemplar-trace and flight-recorder artifacts must be
#      byte-identical across the two thread counts — the PRF sampler
#      and the dump registry must not leak scheduling,
#   3. obs_check must accept both artifacts under the strict RFC 8259
#      parser plus the flightrec/exemplars schema smoke,
#   4. observation must not change the observed output: a third run
#      with SB_OBS_TRACE=1 SB_OBS_METRICS=1 must write trace and
#      metrics files and print the same stdout,
#   5. the forced-panic drill (SB_CHAOS_FORCE_PANIC=1 chaos_storm)
#      must exit 2 with a panic-diag line carrying the service
#      forensics fields, a panic-flight line, and a flightrec
#      artifact containing the "panic" dump — validated by obs_check,
#   6. the chaos points are observable too: an observed quick
#      chaos_storm must write trace and metrics files and leave its
#      stdout, BENCH_resilience.json and flight dumps as an
#      unobserved one writes them.
set -eu

STORM=${1:?usage: attribution_smoke.sh <service_storm> <chaos_storm> <obs_check>}
CHAOS=${2:?usage: attribution_smoke.sh <service_storm> <chaos_storm> <obs_check>}
CHECK=${3:?usage: attribution_smoke.sh <service_storm> <chaos_storm> <obs_check>}
WORK1=$(mktemp -d /tmp/sbattr-smoke-1-XXXXXX)
WORK8=$(mktemp -d /tmp/sbattr-smoke-8-XXXXXX)
WORKU=$(mktemp -d /tmp/sbattr-smoke-u-XXXXXX)
WORKP=$(mktemp -d /tmp/sbattr-smoke-p-XXXXXX)
WORKC=$(mktemp -d /tmp/sbattr-smoke-c-XXXXXX)
WORKO=$(mktemp -d /tmp/sbattr-smoke-o-XXXXXX)
trap 'rm -rf "$WORK1" "$WORK8" "$WORKU" "$WORKP" "$WORKC" "$WORKO"' \
    EXIT INT TERM

fail()
{
    echo "attribution_smoke: FAIL: $1" >&2
    exit 1
}

# --- 1. two clean runs at different pool widths -----------------------
(cd "$WORK1" && SB_BENCH_THREADS=1 SB_BENCH_REGRESSION=0 \
    "$STORM" >out.txt 2>err.txt) ||
    fail "single-threaded run failed (see stderr):
$(tail -5 "$WORK1/err.txt")"
(cd "$WORK8" && SB_BENCH_THREADS=8 SB_BENCH_REGRESSION=0 \
    "$STORM" >out.txt 2>err.txt) ||
    fail "8-thread run failed (see stderr):
$(tail -5 "$WORK8/err.txt")"

grep -q 'Tail attribution' "$WORK1/out.txt" ||
    fail "attribution table missing from bench output"
grep -q 'svc.stage.queue_wait' "$WORK1/out.txt" ||
    fail "attribution table has no queue-wait row"
grep -q 'stage-balance: ok' "$WORK1/out.txt" ||
    fail "stage-balance gate line missing — stage totals do not sum"

EX1="$WORK1/exemplars-service_storm.jsonl"
EX8="$WORK8/exemplars-service_storm.jsonl"
FR1="$WORK1/flightrec-service_storm.json"
FR8="$WORK8/flightrec-service_storm.json"
[ -f "$EX1" ] || fail "exemplar traces not written (threads=1)"
[ -f "$FR1" ] || fail "flight-recorder artifact not written (threads=1)"

# --- 2. scheduling never reaches the artifacts ------------------------
cmp -s "$EX1" "$EX8" ||
    fail "exemplar traces differ between SB_BENCH_THREADS=1 and 8"
cmp -s "$FR1" "$FR8" ||
    fail "flight-recorder dumps differ between SB_BENCH_THREADS=1 and 8"

# --- 3. strict parse + schema smoke -----------------------------------
"$CHECK" "$EX1" "$FR1" >/dev/null ||
    fail "obs_check rejected the observability artifacts"

# --- 4. observation must not change the observed output ---------------
# Steps 1-2 ran unobserved (SB_OBS_* default off); this pass turns the
# tracer and metrics sampler on.  The attribution table, the gate
# lines and every artifact above are always-on, so stdout must not
# move by a byte.
(cd "$WORKU" && SB_OBS_TRACE=1 SB_OBS_METRICS=1 SB_BENCH_THREADS=8 \
    SB_BENCH_REGRESSION=0 "$STORM" >out.txt 2>err.txt) ||
    fail "observed (SB_OBS_TRACE=1) run failed (see stderr):
$(tail -5 "$WORKU/err.txt")"
ls "$WORKU"/trace-*.json >/dev/null 2>&1 ||
    fail "observed run wrote no trace-*.json — SB_OBS_TRACE was ignored"
ls "$WORKU"/metrics-*.jsonl >/dev/null 2>&1 ||
    fail "observed run wrote no metrics-*.jsonl — SB_OBS_METRICS was ignored"
cmp -s "$WORK1/out.txt" "$WORKU/out.txt" ||
    fail "stdout differs between observed and unobserved runs"
cmp -s "$EX1" "$WORKU/exemplars-service_storm.jsonl" ||
    fail "exemplar traces differ between observed and unobserved runs"
cmp -s "$FR1" "$WORKU/flightrec-service_storm.json" ||
    fail "flight dumps differ between observed and unobserved runs"

# --- 5. forced-panic drill: the flight recorder survives the crash ----
RC=0
(cd "$WORKP" && SB_CHAOS_FORCE_PANIC=1 \
    "$CHAOS" >out.txt 2>err.txt) || RC=$?
[ "$RC" -eq 2 ] ||
    fail "forced-panic drill exited $RC, want 2 (fatal corruption)"
grep -q 'panic-diag: .*pressure=' "$WORKP/err.txt" ||
    fail "panic-diag lacks the service-forensics fields"
grep -q 'last_watchdog_tick=' "$WORKP/err.txt" ||
    fail "panic-diag lacks the watchdog-tick field"
grep -q 'panic-flight: ' "$WORKP/err.txt" ||
    fail "no panic-flight line on the crash path"
FRP="$WORKP/flightrec-chaos_storm.json"
[ -f "$FRP" ] || fail "no flight-recorder artifact on the crash path"
grep -q '"panic"' "$FRP" ||
    fail "crash-path flight artifact carries no panic dump"
grep -q '"kind": "corruption"' "$FRP" ||
    fail "panic dump does not record the corruption event"
"$CHECK" "$FRP" >/dev/null ||
    fail "obs_check rejected the crash-path flight artifact"

# --- 6. the chaos points are observable ------------------------------
(cd "$WORKC" && SB_BENCH_QUICK=1 "$CHAOS" >out.txt 2>err.txt) ||
    fail "unobserved chaos_storm failed (see stderr):
$(tail -5 "$WORKC/err.txt")"
(cd "$WORKO" && SB_OBS_TRACE=1 SB_OBS_METRICS=1 SB_BENCH_QUICK=1 \
    "$CHAOS" >out.txt 2>err.txt) ||
    fail "observed chaos_storm failed (see stderr):
$(tail -5 "$WORKO/err.txt")"
ls "$WORKO"/trace-*.json >/dev/null 2>&1 ||
    fail "observed chaos_storm wrote no trace-*.json"
ls "$WORKO"/metrics-*.jsonl >/dev/null 2>&1 ||
    fail "observed chaos_storm wrote no metrics-*.jsonl"
cmp -s "$WORKC/out.txt" "$WORKO/out.txt" ||
    fail "chaos_storm stdout differs between observed and unobserved runs"
cmp -s "$WORKC/BENCH_resilience.json" "$WORKO/BENCH_resilience.json" ||
    fail "BENCH_resilience.json differs between observed and unobserved runs"
cmp -s "$WORKC/flightrec-chaos_storm.json" \
    "$WORKO/flightrec-chaos_storm.json" ||
    fail "chaos_storm flight dumps differ between observed and unobserved runs"

echo "attribution_smoke: OK (attribution balanced, artifacts" \
    "byte-identical at 1 and 8 threads, panic path dumps the ring," \
    "chaos points observable)"
