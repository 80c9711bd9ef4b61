#!/usr/bin/env bash
# Builds and runs the full test suite under AddressSanitizer and
# UndefinedBehaviorSanitizer, plus the concurrency stress suite under
# ThreadSanitizer (see MVOPT_SANITIZE in the top-level CMakeLists.txt),
# an observability smoke step (metrics_driver --selfcheck), the
# crash/recovery matrix, a repeated run of the chaos soaks on a plain
# build, and the static-analysis pass (thread-safety
# gate + clang-tidy + negative-compile harness; SKIPs without Clang).
# Each sanitizer gets its own build tree so the instrumented objects
# never mix with the regular build.
#
# Usage: tools/ci/run_sanitizers.sh [build-root]
#   build-root defaults to ./build-sanitize
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/../.." && pwd)"
build_root="${1:-${repo_root}/build-sanitize}"
jobs="$(nproc 2>/dev/null || echo 4)"

run_one() {
  local sanitizer="$1"
  local build_dir="${build_root}/${sanitizer}"
  echo "=== ${sanitizer}: configure ==="
  cmake -B "${build_dir}" -S "${repo_root}" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DMVOPT_SANITIZE="${sanitizer}" >/dev/null
  echo "=== ${sanitizer}: build ==="
  cmake --build "${build_dir}" -j "${jobs}"
  echo "=== ${sanitizer}: test ==="
  # halt_on_error makes UBSan failures fatal even where
  # -fno-sanitize-recover is not honoured by the toolchain.
  ASAN_OPTIONS=detect_leaks=1:strict_string_checks=1 \
  UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
    ctest --test-dir "${build_dir}" --output-on-failure -j "${jobs}"
}

run_thread() {
  local build_dir="${build_root}/thread"
  echo "=== thread: configure ==="
  cmake -B "${build_dir}" -S "${repo_root}" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DMVOPT_SANITIZE=thread >/dev/null
  echo "=== thread: build ==="
  cmake --build "${build_dir}" \
    --target concurrency_stress_test snapshot_test \
             snapshot_stress_test serving_chaos_test shard_chaos_test \
             match_program_stress_test \
             -j "${jobs}"
  echo "=== thread: test ==="
  # TSan only pays off on the multi-threaded suites (the `stress` ctest
  # label): catalog concurrency, concurrent probes cross-checked
  # against a serial reference, the lock-free snapshot probe path
  # (probes pinned on snapshots being retired by concurrent publication
  # and lifecycle flaps), the
  # serving chaos soak (tenant threads racing admission, quota flips,
  # failpoint faults, and drain), and the sharded-catalog chaos soak
  # (probes and AddView racing quarantine, scrub readmission and
  # revalidation ticks). The rest of the tests are single-threaded and
  # already covered by ASan/UBSan.
  TSAN_OPTIONS=halt_on_error=1:second_deadlock_stack=1 \
    ctest --test-dir "${build_dir}" --output-on-failure \
    -L 'stress' -j "${jobs}"
  # (The stress label includes match_program_stress_test: compiled-tier
  # probes under cross-check enforce racing registration and mode flips.)
}

run_metrics_smoke() {
  # Observability smoke: run the metrics driver over a small workload in
  # the ASan tree and let its --selfcheck validate that the Prometheus
  # exposition parses, the JSON dumps parse, and every mandatory pipeline
  # metric is present and non-negative (probe/optimize counters > 0).
  local build_dir="${build_root}/address"
  echo "=== metrics smoke: build driver ==="
  cmake --build "${build_dir}" --target metrics_driver -j "${jobs}"
  echo "=== metrics smoke: selfcheck ==="
  ASAN_OPTIONS=detect_leaks=1 \
    "${build_dir}/examples/metrics_driver" \
    --views 100 --queries 30 --quiet --selfcheck
  # Same workload with every compiled verdict replayed against the
  # generic oracle: the selfcheck fails on any tier mismatch, so this is
  # the instrumented end-to-end proof that the two tiers agree.
  echo "=== metrics smoke: cross-check enforce ==="
  ASAN_OPTIONS=detect_leaks=1 \
    "${build_dir}/examples/metrics_driver" \
    --views 100 --queries 30 --quiet --selfcheck --cross-check enforce
}

run_crash_recovery() {
  # The crash/recover matrix reuses the ASan tree: the recovery path and
  # the torn-tail repair run instrumented, and leaks in the recovery
  # loop would surface here.
  local build_dir="${build_root}/address"
  echo "=== crash recovery: build driver ==="
  cmake --build "${build_dir}" --target recovery_driver -j "${jobs}"
  echo "=== crash recovery: kill-at-every-failpoint loop ==="
  ASAN_OPTIONS=detect_leaks=0 \
    "${repo_root}/tools/ci/run_crash_recovery.sh" "${build_dir}" 3
}

run_soak_repeat() {
  # The chaos soaks race threads against each other, so one pass can
  # miss a rare interleaving (an acknowledged registration lost to a
  # scrub swap, say). Repeat both on a plain build until one fails; a
  # run takes tens of milliseconds, so 200 repeats cost seconds.
  local build_dir="${build_root}/plain"
  echo "=== soak repeat: configure ==="
  cmake -B "${build_dir}" -S "${repo_root}" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
  echo "=== soak repeat: build ==="
  cmake --build "${build_dir}" \
    --target serving_chaos_test shard_chaos_test -j "${jobs}"
  echo "=== soak repeat: test ==="
  ctest --test-dir "${build_dir}" --output-on-failure \
    -R 'ChaosTest\.Soak' --repeat until-fail:200
}

run_static_analysis() {
  # Compile-time lock-discipline gate (see DESIGN.md §12): builds the
  # tree under -Werror=thread-safety, runs clang-tidy, and asserts the
  # negative-compile violations are rejected. Writes the machine-
  # readable summary to results/static_analysis.txt; steps the local
  # toolchain cannot run (no Clang) report SKIP and stay green.
  echo "=== static analysis ==="
  "${repo_root}/tools/ci/run_static_analysis.sh" \
    "${build_root}/static-analysis"
}

run_one address
run_one undefined
run_thread
run_metrics_smoke
run_crash_recovery
run_soak_repeat
run_static_analysis
echo "=== sanitizers clean ==="
