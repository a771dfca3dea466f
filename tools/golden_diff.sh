#!/bin/sh
# Golden diff between two builds of this repository: run every
# deterministic bench surface from both builds in quick mode and diff
# what they print and the deterministic artifacts they write.
#
#     tools/golden_diff.sh <parent-build-dir> <change-build-dir>
#
# Each argument is a CMake build directory (the one holding bench/ and
# examples/).  Surfaces: perf_smoke (its two checksum lines and
# checksum fields only; the rest is wall time), fig08/10/13/15/16/17,
# ablation_design_choices, stash_occupancy, security_rrwp,
# fault_sweep, chaos_storm and service_storm from bench/, plus the
# payload-mode examples quickstart, secure_kv_store and
# pattern_hiding_demo.  Compared per surface: exit code, stdout, and
# the BENCH_*.json, flightrec-*.json and exemplars-*.jsonl files it
# writes.
#
# An observed pass then reruns fig10 and fig15 (Insecure, Tiny and
# Shadow) with tracing, metrics and checkpointing on and also diffs
# each run's trace-<label>.json and metrics-<label>.jsonl, which
# carry the "checkpoint" instants and the ckpt.snapshots column.
#
# Prints nothing and exits 0 when every golden is byte-identical;
# otherwise prints the diffs and exits 1.  Not a ctest: it needs two
# builds.  SB_BENCH_THREADS and other SB_BENCH_* knobs pass through.
set -eu

usage="usage: golden_diff.sh <parent-build-dir> <change-build-dir>"
A=$(cd "${1:?$usage}" && pwd)
B=$(cd "${2:?$usage}" && pwd)
WORK=$(mktemp -d /tmp/sbgolden-XXXXXX)
trap 'rm -rf "$WORK"' EXIT INT TERM

# Paths of the surface binaries, relative to a build directory.
SURFACES="bench/perf_smoke bench/fig08_dup_no_tp
bench/fig10_dri_counter_width bench/fig13_dup_tp
bench/fig15_slowdown_tp bench/fig16_treetop_hitrate
bench/fig17_related_work bench/ablation_design_choices
bench/stash_occupancy bench/security_rrwp bench/fault_sweep
bench/chaos_storm bench/service_storm examples/quickstart
examples/secure_kv_store examples/pattern_hiding_demo"

# run <build-dir> <side>: every surface into $WORK/<side>/<surface>.
run()
{
    for s in $SURFACES; do
        dir="$WORK/$2/$s"
        mkdir -p "$dir"
        code=0
        (cd "$dir" && SB_BENCH_QUICK=1 SB_BENCH_REGRESSION=0 \
            "$1/$s" >stdout.txt 2>stderr.txt) || code=$?
        echo "exit $code" >"$dir/exit.txt"
        if [ "$s" = bench/perf_smoke ]; then
            grep checksum "$dir/stdout.txt" |
                sed 's/^.*checksum/checksum/' >"$dir/checksums.txt"
            grep '"[a-z_]*checksum"' "$dir/BENCH_perf.json" \
                >>"$dir/checksums.txt" || true
            rm -f "$dir/stdout.txt" "$dir/BENCH_perf.json"
        fi
        # Manifests, traces, checkpoint dirs and stderr carry wall
        # times and paths; only the deterministic files stay.
        find "$dir" -mindepth 1 \( -name stderr.txt -o -name 'manifest-*' \
            -o -name 'trace-*' -o -type d \) -prune -exec rm -rf {} +
    done
}

# observe <build-dir> <side>: the observed pass into
# $WORK/<side>/observed/<surface>.  Each run gets a fresh checkpoint
# dir: a reused one answers points from their .done markers and
# writes no artifacts.
observe()
{
    for s in bench/fig10_dri_counter_width bench/fig15_slowdown_tp; do
        dir="$WORK/$2/observed/$s"
        mkdir -p "$dir/ckpt"
        code=0
        (cd "$dir" && SB_BENCH_QUICK=1 SB_BENCH_REGRESSION=0 \
            SB_OBS_TRACE=1 SB_OBS_METRICS=1 SB_OBS_INTERVAL=100 \
            SB_CKPT_INTERVAL=150 SB_CKPT_DIR="$dir/ckpt" \
            "$1/$s" >stdout.txt 2>stderr.txt) || code=$?
        echo "exit $code" >"$dir/exit.txt"
        # The runner-lane trace and the manifest carry wall times.
        find "$dir" -mindepth 1 \( -name stderr.txt -o -name 'manifest-*' \
            -o -name trace-runner.json -o -type d \) -prune \
            -exec rm -rf {} +
    done
}

run "$A" parent
run "$B" change
observe "$A" parent
observe "$B" change

diff -r "$WORK/parent" "$WORK/change"
