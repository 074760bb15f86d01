#!/usr/bin/env python3
"""Compares bench_pipeline results of a parent and a change commit.

    python3 pipeline_bench/bench_diff.py --parent A/ --change B/

Each side is a list of result files written by bench_pipeline (run.py
keeps them under .bench_build/results; run_benchmark.sh copies them to its
results directory), or directories holding them. Untraced results give one
row per workload and end-to-end metric: each side's median and quartiles,
the change of the median, and a verdict against the metric's bound in
BENCHMARK.json:

  worse       the change's median is worse by more than the bound
  better      better by more than the parent's own spread, and the change
              wins at least nine tenths of all parent/change run pairs
  same        neither
  unresolved  a side's spread (quartile distance over median) exceeds the
              bound, unless every change run beats or loses to every
              parent run

A second table does the same for the instructions per op of every kind a
result file keeps under `details` (each template, open mode and the
ingest), against the op_minstr bound: op_minstr is a geometric mean over
the kinds, so one kind that costs half as much again can move it by less
than its bound. A third table shows the wall-time and cycle details (per
kind, per round, throughput) with no verdict: on a shared host they move
with the host. Traced results add a table of per-layer medians.

Exit status 1 when a run's output digest differs from the other side's run
with the same workload and seed, when the change's error rate is higher,
or when any row of the first two tables is `worse`.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(paths):
    """Result dicts from files and directories of result files."""
    out = []
    for p in map(Path, paths):
        files = sorted(p.glob("*.json")) if p.is_dir() else [p]
        for f in files:
            if f.name.endswith(".trace.json"):
                continue
            r = json.loads(f.read_text())
            if "workload" in r and "mode" in r:
                out.append(r)
    return out


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(parent, change, better, bound):
    sign = 1.0 if better == "lower" else -1.0
    pm = quartiles(parent)[1]
    cm = quartiles(change)[1]
    worse_by = sign * (cm - pm) / abs(pm) if pm else 0.0
    pairs = [(p, c) for p in parent for c in change]
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) > 0)
    if max(spread(parent), spread(change)) > bound:
        if wins == len(pairs):
            return worse_by, "better"
        if losses == len(pairs):
            return worse_by, "worse"
        return worse_by, "unresolved"
    if worse_by > bound:
        return worse_by, "worse"
    if -worse_by > spread(parent) and wins >= 0.9 * len(pairs):
        return worse_by, "better"
    return worse_by, "same"


def fmt(v):
    return "%.4g" % v


def side(values):
    q1, med, q3 = quartiles(values)
    return "%s [%s, %s] n=%d" % (fmt(med), fmt(q1), fmt(q3), len(values))


def error_rate(results):
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    return failed / attempted if attempted else 1.0


def row(workload, name, unit, better, bound, pv, cv):
    """A table row; with no bound, the verdict is left empty."""
    worse_by, v = verdict(pv, cv, better, bound if bound is not None else 1e9)
    change = -worse_by if better == "higher" else worse_by
    return (workload, name, unit, side(pv), side(cv), "%+.1f%%" % (100 * change),
            "%.1f%%" % (100 * max(spread(pv), spread(cv))),
            "-" if bound is None else "%.0f%%" % (100 * bound),
            "-" if bound is None else v)


def table(rows):
    head = ("workload", "metric", "unit", "parent median [q1, q3]",
            "change median [q1, q3]", "change", "spread", "bound", "verdict")
    widths = [max(len(str(x)) for x in col) for col in zip(head, *rows)]
    for r in [head] + rows:
        print("  ".join(str(x).ljust(n) for x, n in zip(r, widths)))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", nargs="+", required=True)
    ap.add_argument("--change", nargs="+", required=True)
    ap.add_argument("--spec", default=str(SPEC))
    args = ap.parse_args()
    spec = json.loads(Path(args.spec).read_text())
    parent, change = load(args.parent), load(args.change)
    if not parent or not change:
        sys.exit("no result files on one side")
    status = 0

    by_key = {}
    for r in parent:
        by_key[(r["workload"], r["seed"])] = r["output_digest"]
    for r in change:
        want = by_key.get((r["workload"], r["seed"]))
        if want is not None and want != r["output_digest"]:
            print("DIGEST MISMATCH %s seed %d: parent %s, change %s" %
                  (r["workload"], r["seed"], want, r["output_digest"]))
            status = 1

    workloads = [w["name"] for w in spec["workloads"]]
    op_bound = {m["name"]: m["bound"] for m in spec["end_to_end"]}["op_minstr"]
    rows, kind_rows, time_rows = [], [], []
    for w in workloads:
        ps = [r for r in parent if r["workload"] == w]
        cs = [r for r in change if r["workload"] == w]
        if not ps or not cs:
            continue
        pe, ce = error_rate(ps), error_rate(cs)
        if ce > pe:
            print("ERROR RATE ROSE on %s: %.6g -> %.6g" % (w, pe, ce))
            status = 1
        pu = [r for r in ps if r["mode"] == "untraced"]
        cu = [r for r in cs if r["mode"] == "untraced"]
        if not pu or not cu:
            continue
        for m in spec["end_to_end"]:
            pv = [r["end_to_end"][m["name"]]["value"] for r in pu]
            cv = [r["end_to_end"][m["name"]]["value"] for r in cu]
            rows.append(row(w, m["name"], m["unit"], m["better"], m["bound"],
                            pv, cv))
        kinds = set(pu[0]["details"])
        for r in pu + cu:
            kinds &= set(r["details"])
        for k in sorted(kinds):
            pv = [r["details"][k]["value"] for r in pu]
            cv = [r["details"][k]["value"] for r in cu]
            unit = pu[0]["details"][k]["unit"]
            if unit == "Minstr":
                kind_rows.append(row(w, k, unit, "lower", op_bound, pv, cv))
            else:
                better = "higher" if unit == "1/s" else "lower"
                time_rows.append(row(w, k, unit, better, None, pv, cv))
    if rows:
        table(rows)
    if kind_rows:
        print("\ninstructions per op, per kind (medians of each run), "
              "against the op_minstr bound:")
        table(kind_rows)
    if time_rows:
        print("\nwall time and cycles (no bound; they move with the host):")
        table(time_rows)

    for w in workloads:
        pt = [r for r in parent if r["workload"] == w and r["mode"] == "traced"]
        ct = [r for r in change if r["workload"] == w and r["mode"] == "traced"]
        if not pt or not ct:
            continue
        print("\nper-layer, %s (traced; medians):" % w)
        for m in spec["per_layer"]:
            pv = [r["per_layer"][m["name"]]["value"] for r in pt]
            cv = [r["per_layer"][m["name"]]["value"] for r in ct]
            if any(pv) or any(cv):
                print("  %-36s %-8s %12s -> %-12s" %
                      (m["name"], m["unit"], fmt(quartiles(pv)[1]),
                       fmt(quartiles(cv)[1])))

    print()
    for name, rs in (("end-to-end", rows), ("per-kind", kind_rows)):
        verdicts = [r[-1] for r in rs]
        print("%s: %d rows, %d worse, %d better, %d unresolved" %
              (name, len(rs), verdicts.count("worse"),
               verdicts.count("better"), verdicts.count("unresolved")))
        if "worse" in verdicts:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
