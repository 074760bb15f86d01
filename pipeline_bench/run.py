#!/usr/bin/env python3
"""Builds bench_pipeline from this checkout and runs one workload.

    python3 pipeline_bench/run.py --workload curate --seed 7 --trace 0

Run from the repository root. Every run measures run_seconds of
BENCHMARK.json; --seconds, which the benchmark's command line carries, must
equal it. The build goes to $CARGO_TARGET_DIR (default
.bench_build) under the root; result files, traces and temporary snapshots
go under that directory too. The last line of standard output is one JSON
object: correct, attempted, failed and metrics -- the end-to-end metrics
named in BENCHMARK.json for --trace 0, the per-layer ones for --trace 1.
Exit status 0 only when every output was correct; non-zero without a
result line when the build or the run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(__file__).resolve().parent
BUILD_TYPE = "RelWithDebInfo"


def build(build_root):
    """Configures (once) and builds bench_pipeline; returns its path."""
    build_dir = build_root / "pipeline_bench"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(PACKAGE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", str(build_dir), "--target",
                  "bench_pipeline", "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        rc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                            stderr=sys.stderr).returncode
        if rc != 0:
            raise SystemExit("build failed: " + " ".join(cmd))
    return build_dir / "bench_pipeline"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=None,
                    help="accepted only as run_seconds of BENCHMARK.json: "
                         "every run measures the same length")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--results", default=None,
                    help="also copy the result file (and trace) here")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        raise SystemExit("unknown workload " + args.workload)
    seconds = spec["run_seconds"]
    if args.seconds is not None and args.seconds != seconds:
        raise SystemExit("--seconds %g: this benchmark measures run_seconds "
                         "(%d) of BENCHMARK.json in every run" %
                         (args.seconds, seconds))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_root.is_absolute():
        build_root = ROOT / build_root
    binary = build(build_root)

    tag = "%s-seed%d-%s" % (args.workload, args.seed,
                            "traced" if args.trace else "untraced")
    out_dir = build_root / "results"
    tmp_dir = build_root / "tmp" / ("%s-%d" % (tag, os.getpid()))
    out_dir.mkdir(parents=True, exist_ok=True)
    tmp_dir.mkdir(parents=True, exist_ok=True)
    out = out_dir / (tag + ".json")
    trace = out_dir / (tag + ".trace.json")
    cmd = [str(binary), "--workload=" + args.workload,
           "--seed=%d" % args.seed, "--seconds=%s" % seconds,
           "--out=" + str(out), "--tmp_dir=" + str(tmp_dir),
           "--git_sha=" + os.environ.get("BENCH_GIT_SHA", "unknown")]
    if args.trace:
        cmd.append("--trace=" + str(trace))
    if out.exists():
        out.unlink()
    try:
        rc = subprocess.run(cmd, cwd=ROOT).returncode
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
    if not out.exists():
        raise SystemExit("bench_pipeline exited %d without a result" % rc)
    result = json.loads(out.read_text())

    section = result["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] not in section:
            raise SystemExit("bench_pipeline did not report " + m["name"])
        got = section[m["name"]]
        if got["unit"] != m["unit"]:
            raise SystemExit("%s: unit %s, BENCHMARK.json says %s" %
                             (m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}

    if args.results:
        dest = Path(args.results)
        dest.mkdir(parents=True, exist_ok=True)
        shutil.copy(out, dest / out.name)
        if args.trace and trace.exists():
            shutil.copy(trace, dest / trace.name)

    correct = bool(result["correct"]) and rc == 0
    print(json.dumps({"correct": correct,
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
