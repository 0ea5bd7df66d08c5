#!/usr/bin/env python3
"""The fgcs benchmark: four workloads through the library's public calls.

    python3 perfbench/run.py --seed N
                             [--workload sweep|sweep-faults|query|serve|all]
                             [--seconds S] [--trace 0|1] [--held-out-seed N]

Builds perfbench/ (Release, into .bench_build/, again only when a source
file changed) against the library sources of this checkout, runs the
driver binary once per workload and relays its table: every metric by
name with its unit, plus the run environment. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics. It holds every end-to-end metric of BENCHMARK.json (--trace 0),
or every per-layer one (--trace 1: a separate, traced run; a layer the
workload never calls reads 0). --workload all, the default, runs each
workload BENCHMARK.json lists in turn and ends with one object whose
metrics are named <workload>.<metric>. BENCHMARK.json's command carries
the default seed and the held-out seed kept for confirming claims.

Exits non-zero without a result line when the library sources are
missing, the build fails, a run fails, or the run environment would not
give comparable numbers (status 3).
"""

import argparse
import hashlib
import json
import os
import pathlib
import shutil
import subprocess
import sys

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "fgcs_perfbench"
RUN_TIMEOUT_S = 175  # a run must end within 180 s


def fail(message, status=1):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)
    sys.exit(status)


def source_digest():
    """SHA-256 over every file the binary is built from."""
    files = [ROOT / "CMakeLists.txt"]
    for base in (ROOT / "src", BENCH):
        files += sorted(p for p in base.rglob("*")
                        if p.is_file() and p.suffix in (".cpp", ".hpp", ".txt"))
    digest = hashlib.sha256()
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def build(digest):
    stamp = BUILD / "source.sha256"
    if BINARY.exists() and stamp.exists() and stamp.read_text() == digest:
        return
    configure = ["cmake", "-S", str(BENCH), "-B", str(BUILD),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not (BUILD / "CMakeCache.txt").exists():
        configure += ["-G", "Ninja"]
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    for cmd in (configure,
                ["cmake", "--build", str(BUILD), "--parallel", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd), 2)
    stamp.write_text(digest)


def commit():
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def contract(workload, raw, spec, trace):
    """The result object BENCHMARK.json promises for this mode."""
    wanted = spec["per_layer" if trace else "end_to_end"]
    measured = raw["metrics"]
    unknown = sorted(set(measured) - {m["name"] for m in wanted})
    if unknown:
        fail(f"{workload}: metrics missing from BENCHMARK.json: {unknown}")
    metrics = {}
    for m in wanted:
        got = measured.get(m["name"])
        if got is None:
            if not trace:
                fail(f"{workload}: {m['name']} was not measured")
            got = {"value": 0.0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            fail(f"{workload}: {m['name']} is in {got['unit']}, "
                 f"BENCHMARK.json says {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return {"correct": raw["correct"], "attempted": raw["attempted"],
            "failed": raw["failed"], "metrics": metrics}


def run_workload(args, workload, spec, digest, rev):
    cmd = [str(BINARY), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", str(ROOT), "--commit", rev, "--source-digest", digest]
    if args.held_out_seed is not None:
        cmd += ["--held-out-seed", str(args.held_out_seed)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: no result within {RUN_TIMEOUT_S} s")
    raw = None
    for line in proc.stdout.splitlines():
        if line.startswith("result "):
            raw = json.loads(line[len("result "):])
        else:
            print(line)
    if proc.returncode != 0 or raw is None:
        fail(f"{workload}: driver exited with status {proc.returncode}",
             proc.returncode or 1)
    return contract(workload, raw, spec, args.trace == 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        help="a workload BENCHMARK.json lists, or all")
    parser.add_argument("--seed", type=int, required=True,
                        help="workload seed")
    parser.add_argument("--seconds", type=float,
                        help="measured seconds (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--held-out-seed", type=int,
                        help="seed kept for confirming claims only; "
                             "recorded with every result")
    args = parser.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").exists():
        fail(f"no fgcs library sources under {ROOT}", 2)
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists():
        fail(f"{spec_path} is missing", 2)
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        fail(f"unknown workload {args.workload!r}; BENCHMARK.json lists "
             + ", ".join(names), 2)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]

    digest = source_digest()
    build(digest)
    rev = commit()
    workloads = names if args.workload == "all" else [args.workload]
    results = {w: run_workload(args, w, spec, digest, rev) for w in workloads}
    if len(results) == 1:
        final = results[workloads[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": m for w, r in results.items()
                        for name, m in r["metrics"].items()},
        }
    print(json.dumps(final), flush=True)


if __name__ == "__main__":
    main()
