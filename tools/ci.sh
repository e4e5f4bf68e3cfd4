#!/usr/bin/env bash
# Local CI pipeline — the gating jobs of .github/workflows/ci.yml (the
# workflow's extra failover-smoke job is reporting-only and runs the
# bench/failover table as a per-push artifact), runnable on any machine
# with the base toolchain:
#
#   1. plain    : dev preset build + full ctest
#   2. sanitize : asan-ubsan preset build + ctest -L sanitize
#   3. tsan     : tsan preset build + ctest -L sanitize — the race gate for
#                 sim/parallel_sweep and the work-stealing pool
#   4. analyze  : tools/run_static_analysis.sh (clang-tidy or fallback,
#                 plus the rt-lint RT-safety gate)
#   5. perf     : micro_dsp hot-path benches + tools/bench_gate.py against
#                 the committed BENCH_baseline.json (DESIGN.md §10)
#   6. soak-smoke : bench/chaos_soak on a short multi-seed schedule — the
#                 mesh-resilience invariants (never louder than passive,
#                 bounded re-acquisition, allocation-free steady state)
#                 under randomized fault chaos; writes soak-report.json
#                 (DESIGN.md §12)
#   7. fleet-smoke : bench/fleet_soak on a small churned tenant fleet —
#                 per-tenant never-louder verdicts plus the zero
#                 worker-lane heap traffic contract of the fleet runtime;
#                 writes fleet-soak-report.json — then bench/fleet serving
#                 long-lived tenants for 30 simulated seconds at the
#                 default arena (bounded tenant memory; DESIGN.md §14)
#   8. bench-smoke : fleetbench/run.py on every workload for one short
#                 traced seed — builds the harness against the public
#                 fleet API and exits non-zero when its checks fail
#                 (bit-identical single-thread replay, zero worker-lane
#                 heap allocations, finite metrics)
#
# `rt-lint` is also available standalone (subset of analyze): it re-runs
# only the static RT-safety gate, seconds instead of a full tidy sweep.
#
# Usage: tools/ci.sh [plain|sanitize|tsan|analyze|rt-lint|perf|soak-smoke|
#                     fleet-smoke|bench-smoke]...
#        (default: plain sanitize tsan analyze perf soak-smoke fleet-smoke
#         bench-smoke)
#
# Every ctest run carries --timeout 900: a hung test (deadlock, runaway
# convergence loop) fails after 15 minutes instead of wedging the job.

set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
JOBS="${CI_JOBS:-$(nproc)}"
cd "$ROOT"

run_plain() {
  echo "=== job: plain build + ctest ==="
  cmake --preset dev
  cmake --build --preset dev -j "$JOBS"
  ctest --preset dev -j "$JOBS" --timeout 900
}

run_sanitize() {
  echo "=== job: asan-ubsan build + ctest -L sanitize ==="
  cmake --preset asan-ubsan
  cmake --build --preset asan-ubsan -j "$JOBS"
  ctest --preset asan-ubsan -j "$JOBS" --timeout 900
}

run_tsan() {
  echo "=== job: tsan build + ctest -L sanitize ==="
  cmake --preset tsan
  cmake --build --preset tsan -j "$JOBS"
  ctest --preset tsan -j "$JOBS" --timeout 900
}

run_analyze() {
  echo "=== job: static analysis (incl. rt-lint) ==="
  tools/run_static_analysis.sh
}

run_rt_lint() {
  echo "=== job: rt-lint (static RT-safety gate) ==="
  tools/run_static_analysis.sh --rt-lint-only
}

# Filter shared with the perf-smoke workflow job: calibration + every
# benchmark bench_gate.py pins (plus their other tap sizes, informational).
BENCH_FILTER='BM_Calibration|BM_Kernel|BM_FirFilterPerSample|BM_FxlmsCycle|BM_FdLancBlock|BM_AdaptiveFirStep|BM_ShadowObserve|BM_FleetThroughput'

run_perf() {
  echo "=== job: perf smoke (bench_gate) ==="
  cmake --preset dev
  cmake --build --preset dev -j "$JOBS" --target micro_dsp
  ./build-dev/bench/micro_dsp \
    --benchmark_filter="$BENCH_FILTER" \
    --benchmark_min_time=0.3 \
    --json bench-current.json
  python3 tools/bench_gate.py bench-current.json
}

# Short but real chaos: 3 seeds of randomized fault episodes on a 4-relay
# mesh (~30 s on one core, seeds run in parallel where cores allow). Exits
# non-zero on any invariant violation; the JSON verdict is the CI artifact.
run_soak_smoke() {
  echo "=== job: soak smoke (chaos invariants) ==="
  cmake --preset dev
  cmake --build --preset dev -j "$JOBS" --target chaos_soak
  ./build-dev/bench/chaos_soak \
    --relays 4 --duration 8 --seeds 3 --json soak-report.json
}

# Small but real fleet churn: mixed profiles (one with a scripted relay
# dropout), admit/drain rounds, per-tenant never-louder verdicts, and the
# zero worker-lane heap allocation contract. Exits non-zero on any
# violation; the JSON verdict is the CI artifact.
run_fleet_smoke() {
  echo "=== job: fleet smoke (multi-tenant runtime invariants) ==="
  cmake --preset dev
  cmake --build --preset dev -j "$JOBS" --target fleet_soak fleet
  ./build-dev/bench/fleet_soak \
    --devices 64 --sim-seconds 3 --json fleet-soak-report.json
  # Long-lived leg: tenants served 30 simulated seconds without churn at
  # the default 4 MiB arena. A tenant whose memory grows with serving
  # time aborts here ("monotonic arena exhausted").
  ./build-dev/bench/fleet --max-devices 2 --skip-naive --sim-seconds 30
}

# The fleet serving benchmark at smoke length: one traced seed per
# workload (5-13 s each after a one-off harness build into .bench_build/).
# Failed tenant sessions are reported, not gating; check failures exit
# non-zero.
run_bench_smoke() {
  echo "=== job: bench smoke (fleetbench checks) ==="
  for workload in serve-steady serve-lowlat churn-mixed; do
    python3 fleetbench/run.py --workload "$workload" --seed 1 --seconds 1 \
      --trace 1
  done
}

if [[ $# -eq 0 ]]; then
  set -- plain sanitize tsan analyze perf soak-smoke fleet-smoke bench-smoke
fi

for job in "$@"; do
  case "$job" in
    plain) run_plain ;;
    sanitize) run_sanitize ;;
    tsan) run_tsan ;;
    analyze) run_analyze ;;
    rt-lint) run_rt_lint ;;
    perf) run_perf ;;
    soak-smoke) run_soak_smoke ;;
    fleet-smoke) run_fleet_smoke ;;
    bench-smoke) run_bench_smoke ;;
    *)
      echo "unknown job: $job" \
        "(expected plain|sanitize|tsan|analyze|rt-lint|perf|soak-smoke|" \
        "fleet-smoke|bench-smoke)" >&2
      exit 2
      ;;
  esac
done

echo "=== CI pipeline passed ==="
