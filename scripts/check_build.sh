#!/usr/bin/env bash
# Tier-1 verification: configure, build, and run the full test suite.
#
#   scripts/check_build.sh          # tier-1 build + full ctest
#   scripts/check_build.sh --asan   # additionally run obs/sim/arena tests under
#                                   # AddressSanitizer (-DFGCS_SANITIZE=address)
#   scripts/check_build.sh --chaos  # additionally run the fault-injection /
#                                   # robustness suites under
#                                   # -DFGCS_SANITIZE=address,undefined, plus
#                                   # the kill(-9) crash harness (--crash)
#   scripts/check_build.sh --crash  # additionally run the crash-injection
#                                   # harness (tools/fgcs_crashtest): SIGKILL a
#                                   # checkpointed sweep at randomized commit
#                                   # points, resume, and require bit-identical
#                                   # output across >= 20 kill points
#   scripts/check_build.sh --fuzz   # additionally run the deterministic fuzz
#                                   # driver (10k iterations per target) under
#                                   # -DFGCS_SANITIZE=address,undefined
#   scripts/check_build.sh --tsan   # additionally run the fleet sweep engine,
#                                   # thread-pool, parallel-prediction,
#                                   # parallel-query-scan, and arena/knob
#                                   # suites under -DFGCS_SANITIZE=thread
#
# The fgcs_obs module itself always compiles with -Werror (see
# src/fgcs/obs/CMakeLists.txt), so the observability layer stays clean
# under -Wall -Wextra -Wpedantic in every build this script runs.
set -euo pipefail

cd "$(dirname "$0")/.."

run_asan=0
run_chaos=0
run_crash=0
run_fuzz=0
run_tsan=0
for arg in "$@"; do
  case "$arg" in
    --asan) run_asan=1 ;;
    --chaos) run_chaos=1; run_crash=1 ;;
    --crash) run_crash=1 ;;
    --fuzz) run_fuzz=1 ;;
    --tsan) run_tsan=1 ;;
    *) echo "usage: $0 [--asan] [--chaos] [--crash] [--fuzz] [--tsan]" >&2
       exit 2 ;;
  esac
done

echo "== tier-1: lint =="
scripts/lint_determinism.sh

echo "== tier-1: configure + build =="
cmake -B build -S . -DFGCS_WERROR=OFF
cmake --build build -j

echo "== tier-1: ctest =="
ctest --test-dir build --output-on-failure -j "$(nproc)"

if [[ "$run_asan" -eq 1 ]]; then
  echo "== asan: configure + build =="
  cmake -B build-asan -S . -DFGCS_SANITIZE=address
  cmake --build build-asan -j

  echo "== asan: obs + sim + arena tests =="
  ctest --test-dir build-asan --output-on-failure -j "$(nproc)" \
    -R '^(Obs|TraceSink|JsonEscape|Observer|Counter|Gauge|Histogram|Metric|Simulation|EventQueue|SimTime|SimDuration|Arena|Knobs)'
fi

if [[ "$run_chaos" -eq 1 ]]; then
  echo "== chaos: configure + build (address,undefined) =="
  cmake -B build-chaos -S . -DFGCS_SANITIZE=address,undefined
  cmake --build build-chaos -j

  echo "== chaos: fault-injection + robustness suites =="
  ctest --test-dir build-chaos --output-on-failure -j "$(nproc)" \
    -R '^(FaultPlan|FaultInjector|MachineFaultSession|FaultChaos|GuestStudy|GuestController|CheckpointPolicy|ControllerFixture|TraceSalvage)'
fi

if [[ "$run_crash" -eq 1 ]]; then
  echo "== crash: kill(-9) + resume bit-identity harness =="
  cmake --build build -j --target fgcs_crashtest
  build/tools/fgcs_crashtest --points 20 --machines 16 --days 4 \
    --dir build/crash_harness.tmp
fi

if [[ "$run_fuzz" -eq 1 ]]; then
  echo "== fuzz: configure + build (address,undefined) =="
  cmake -B build-fuzz -S . -DFGCS_SANITIZE=address,undefined
  cmake --build build-fuzz -j --target fgcs_fuzz_driver

  echo "== fuzz: deterministic driver, 10k iterations per target =="
  build-fuzz/tests/fuzz/fgcs_fuzz_driver \
    --target all --corpus tests/fuzz/corpus --iterations 10000 --seed 20060806
fi

if [[ "$run_tsan" -eq 1 ]]; then
  echo "== tsan: configure + build (thread) =="
  cmake -B build-tsan -S . -DFGCS_SANITIZE=thread
  cmake --build build-tsan -j

  echo "== tsan: fleet + parallel + columnar + serve + query suites =="
  ctest --test-dir build-tsan --output-on-failure -j "$(nproc)" \
    -R '^(Fleet|TraceV2|PredictParallel|ObsShard|ObsFlightRecorder|ThreadPool|ParallelFor|Testbed|Arena|Knobs|Serve|Query)'
fi

echo "check_build: OK"
