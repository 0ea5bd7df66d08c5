#!/usr/bin/env bash
# Line-coverage gate for the fgcs library sources.
#
#   scripts/coverage.sh               # build, test, report, enforce floor
#   FGCS_COVERAGE_FLOOR=80 scripts/coverage.sh
#   scripts/coverage.sh --report-only # skip the floor check (just print)
#
# Builds with -DFGCS_COVERAGE=ON (GCC: --coverage -O0; Clang:
# -fprofile-instr-generate), runs the ctest suite but the `bench` gates,
# then aggregates per-line execution counts with `gcov --json-format`
# across all translation units.  Coverage is measured over src/fgcs/**
# only — tests, tools, and third-party code are excluded.
#
# Tool fallbacks: prefers gcovr if installed (nicer report), else raw
# gcov + an inline aggregator; bails out gracefully when neither the
# compiler's coverage runtime nor gcov is present.
set -euo pipefail

cd "$(dirname "$0")/.."

floor="${FGCS_COVERAGE_FLOOR:-70}"
report_only=0
for arg in "$@"; do
  case "$arg" in
    --report-only) report_only=1 ;;
    *) echo "usage: $0 [--report-only]" >&2; exit 2 ;;
  esac
done

if ! command -v gcov >/dev/null 2>&1 && ! command -v gcovr >/dev/null 2>&1; then
  echo "coverage: neither gcov nor gcovr found; skipping (install gcc or gcovr)" >&2
  exit 0
fi

echo "== coverage: configure + build (-DFGCS_COVERAGE=ON) =="
cmake -B build-cov -S . -DFGCS_COVERAGE=ON -DFGCS_WERROR=OFF
cmake --build build-cov -j

echo "== coverage: run test suite =="
# Stale counters from a previous run would double-count.
find build-cov -name '*.gcda' -delete
# The `bench` gates hold Release-build costs. In this -O0, instrumented
# build they gate nothing, and the million-machine one alone ran 18
# minutes on 4 vCPUs (its workers share gcov counters), close to ctest's
# 25-minute default timeout. The code they drive has its own fleet,
# recover and query tests.
ctest --test-dir build-cov -j "$(nproc)" --output-on-failure -LE bench

echo "== coverage: aggregate =="
if command -v gcovr >/dev/null 2>&1; then
  gcovr --root . --filter 'src/fgcs/' build-cov --fail-under-line "$floor" \
    $([[ "$report_only" -eq 1 ]] && echo --fail-under-line 0)
  echo "coverage: OK (gcovr, floor ${floor}%)"
  exit 0
fi

percent=$(python3 - "$floor" <<'PY'
import json, os, subprocess, sys

covered = {}   # (source, line) -> hit?
for dirpath, _dirs, files in os.walk("build-cov"):
    if "_deps" in dirpath:
        continue
    for name in files:
        if not name.endswith(".gcda"):
            continue
        out = subprocess.run(
            ["gcov", "--stdout", "--json-format", os.path.join(dirpath, name)],
            capture_output=True, text=True)
        if out.returncode != 0 or not out.stdout:
            continue
        for chunk in out.stdout.splitlines():
            if not chunk.strip():
                continue
            try:
                data = json.loads(chunk)
            except json.JSONDecodeError:
                continue
            for f in data.get("files", []):
                src = os.path.normpath(f["file"])
                if not src.startswith("src/fgcs/"):
                    src = os.path.relpath(src, os.getcwd())
                if not src.startswith("src/fgcs/"):
                    continue
                for line in f.get("lines", []):
                    key = (src, line["line_number"])
                    covered[key] = covered.get(key, False) or line["count"] > 0

total = len(covered)
hit = sum(1 for v in covered.values() if v)
if total == 0:
    print("coverage: no instrumented lines under src/fgcs found", file=sys.stderr)
    sys.exit(3)

by_file = {}
for (src, _line), ok in covered.items():
    t, h = by_file.get(src, (0, 0))
    by_file[src] = (t + 1, h + (1 if ok else 0))
for src in sorted(by_file):
    t, h = by_file[src]
    print(f"  {100.0 * h / t:6.1f}%  {h:5d}/{t:<5d}  {src}", file=sys.stderr)

pct = 100.0 * hit / total
print(f"coverage: {pct:.1f}% of {total} lines under src/fgcs", file=sys.stderr)
print(f"{pct:.1f}")
PY
)

echo "== coverage: ${percent}% (floor ${floor}%) =="
if [[ "$report_only" -eq 1 ]]; then
  echo "coverage: report-only mode, floor not enforced"
  exit 0
fi
awk -v p="$percent" -v f="$floor" 'BEGIN { exit !(p + 0 >= f + 0) }' || {
  echo "coverage: FAILED — ${percent}% is below the ${floor}% floor" >&2
  exit 1
}
echo "coverage: OK"
