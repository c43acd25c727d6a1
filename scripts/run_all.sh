#!/usr/bin/env bash
# Builds everything, runs the full test suite (plain and under ASan/UBSan),
# regenerates every paper table/figure plus the ablations, then runs the
# engine perf gate. Outputs land at the repository root:
#   test_output.txt / test_asan_output.txt  — ctest logs
#   bench_output.txt                        — human-readable bench tables
#   perf_output.txt                         — bench_micro_engine report
#   bench_json/<bench>.json                 — per-bench machine-readable rows
#   BENCH_perf.json                         — consolidated benches + PERF metrics
#
# Knobs:
#   FABACUS_SWEEP_THREADS       sweep-pool width (default: hardware threads;
#                               set 1 to force serial execution)
#   FABACUS_MIN_EVENTS_PER_SEC  perf-gate floor for the calendar engine's
#                               churn throughput (default below; set 0 to
#                               disable the gate on slow machines)
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -G Ninja
cmake --build build

# Fast pass first (fail fast on the cheap tests), then the slow-labelled
# long-runners (fuzzers, crash-recovery sweeps) separately so their runtime
# is visible on its own line.
ctest --test-dir build -LE slow 2>&1 | tee test_output.txt
ctest --test-dir build -L slow 2>&1 | tee -a test_output.txt

# Sanitizer pass: the whole suite — slow tests included, since memory bugs
# love to hide in the long fault/fuzz runs — under ASan + UBSan with -Werror.
# RelWithDebInfo (-O2 -g), not the Release default: sanitizer reports need
# line info, and GCC's -O3 inliner trips false-positive stringop warnings
# under -Werror.
cmake -B build-asan -G Ninja -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DFABACUS_SANITIZE=ON -DFABACUS_WERROR=ON
cmake --build build-asan
ctest --test-dir build-asan 2>&1 | tee test_asan_output.txt

# Bench pass: every figure/table/ablation bench, with machine-readable JSON
# collected per bench (see BenchJson in bench/bench_util.h).
BENCH_JSON_DIR="$PWD/bench_json"
rm -rf "$BENCH_JSON_DIR"
mkdir -p "$BENCH_JSON_DIR"
{
  for b in build/bench/bench_*; do
    echo
    echo "##### $b"
    FABACUS_BENCH_JSON_DIR="$BENCH_JSON_DIR" "$b"
  done
} 2>&1 | tee bench_output.txt

# Snapshot pass (docs/SNAPSHOT.md): snapshot_ctl's resume-and-run gate on the
# Small() preset — segmented-vs-unbroken byte identity, then inspect/diff/
# resume-run over the snapshot it leaves behind.
SNAP_DIR="$PWD/build/snapshot_smoke"
rm -rf "$SNAP_DIR"
mkdir -p "$SNAP_DIR"
./build/tools/snapshot_ctl run-demo --out="$SNAP_DIR"
./build/tools/snapshot_ctl inspect "$SNAP_DIR/demo_device.snap" >/dev/null
./build/tools/snapshot_ctl diff "$SNAP_DIR/demo_device.snap" "$SNAP_DIR/demo_device.snap"
./build/tools/snapshot_ctl resume-run "$SNAP_DIR/demo_device.snap"

# Perf pass: the engine micro-benchmark gates on a minimum events/sec for the
# calendar-queue engine's loaded event churn.
# The default floor is ~1/4 of a release-build laptop core's measured rate —
# loose enough for CI noise, tight enough to catch an accidental O(log n) or
# per-event-allocation regression. See docs/PERFORMANCE.md.
: "${FABACUS_MIN_EVENTS_PER_SEC:=4000000}"
export FABACUS_MIN_EVENTS_PER_SEC
./build/bench/bench_micro_engine 2>&1 | tee perf_output.txt

# Consolidate: one BENCH_perf.json holding every bench's JSON plus the PERF
# metric lines from the perf pass.
{
  printf '{"schema_version": 1, "benches": ['
  first=1
  for f in "$BENCH_JSON_DIR"/*.json; do
    [ -e "$f" ] || continue
    if [ "$first" -eq 0 ]; then printf ','; fi
    first=0
    cat "$f"
  done
  printf '], "perf": ['
  first=1
  while read -r _ metric label value; do
    if [ "$first" -eq 0 ]; then printf ','; fi
    first=0
    printf '{"metric": "%s", "label": "%s", "value": %s}' "$metric" "$label" "$value"
  done < <(grep '^PERF ' perf_output.txt || true)
  printf ']}\n'
} > BENCH_perf.json
echo "wrote BENCH_perf.json"
