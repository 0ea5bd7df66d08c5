#!/usr/bin/env bash
# Pins the exact bytes fgcs writes for two reference runs, by SHA-256:
#
#   simulate  the default `fgcs simulate` trace (20 machines x 92 days)
#   fleet     every file of a faulted, spilled, single-threaded
#             `fgcs fleet` (40 machines x 14 days, crash/dropout/skew plan)
#
# Usage: output_digests.sh simulate|fleet <fgcs binary> <work dir> <expected>
#
# <expected> holds `sha256sum` lines for the files under <work dir>/out.
# Any difference fails with the command that produced the output. A
# deliberate output change copies <work dir>/actual.sha256 over <expected>
# and records the change, with its measured size, in CHANGES.md.
set -euo pipefail

if [[ $# -ne 4 ]]; then
  echo "usage: $0 simulate|fleet <fgcs binary> <work dir> <expected>" >&2
  exit 2
fi
mode=$1 fgcs=$2 work=$3 expected=$4

rm -rf "$work"
mkdir -p "$work/out"
cd "$work"
case "$mode" in
  simulate)
    cmd=("$fgcs" simulate --out out/simulate.trc)
    ;;
  fleet)
    printf '%s\n' '# fgcs-fault-plan v1' \
      'crash rate_per_day=0.05 mean_minutes=30' \
      'dropout rate_per_day=0.2 mean_minutes=5' \
      'skew rate_per_day=0.1 mean_minutes=10 skew_ms=400' > plan.txt
    cmd=("$fgcs" fleet --machines 40 --days 14 --threads 1
         --fault-plan plan.txt --spill-dir out/fleet)
    ;;
  *)
    echo "unknown mode '$mode' (expected simulate or fleet)" >&2
    exit 2
    ;;
esac

"${cmd[@]}" > run.log
(cd out && find . -type f | LC_ALL=C sort | sed 's|^\./||' |
   xargs sha256sum) > actual.sha256

if ! diff -u "$expected" actual.sha256; then
  echo >&2
  echo "output digests differ from $expected" >&2
  echo "command (in $work): ${cmd[*]}" >&2
  echo "A deliberate output change copies $work/actual.sha256 over" >&2
  echo "$expected and logs the change in CHANGES.md." >&2
  exit 1
fi
echo "$mode: $(wc -l < actual.sha256) file digest(s) match"
