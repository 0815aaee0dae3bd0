"""Summarize one result set, or compare two, against the bounds in BENCHMARK.json.

    python3 bench/compare.py RESULTS            # spread of each metric in one set
    python3 bench/compare.py BEFORE AFTER       # before/after view

A result set is a directory of run records as ``bench/run.py --results DIR``
writes them, typically ten runs per workload with different seeds.  For each
workload and end-to-end metric this prints each side's median and quartiles,
the run-to-run spread (quartile distance over median), and the change of the
median against the metric's bound; a change is "unresolved" when either
side's spread exceeds the bound.  Per-layer metrics from traced runs are
printed as median changes; they have no bound.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_set(directory) -> dict:
    """(workload, trace) -> metric name -> list of values, over every record in the directory."""
    values: dict = defaultdict(lambda: defaultdict(list))
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text())
        meta = record["meta"]
        key = (meta["workload"], meta["trace"])
        for name, m in record["result"]["metrics"].items():
            values[key][name].append(m["value"])
        values[key]["failed_ops"].append(record["result"]["failed"])
    return values


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


def spread(xs: list[float]) -> float:
    q1, med, q3 = quartiles(xs)
    return (q3 - q1) / abs(med) if med else 0.0


def worse_by(before: float, after: float, better: str) -> float:
    """Relative change of the median, positive when the metric got worse."""
    if not before:
        return 0.0
    change = (after - before) / abs(before)
    return change if better == "lower" else -change


def fmt(q) -> str:
    q1, med, q3 = q
    return f"{med:11.5g} [{q1:.5g}, {q3:.5g}]"


def summarize(spec, results) -> int:
    status = 0
    for (workload, trace), metrics in sorted(results.items()):
        if trace:
            continue
        runs = len(metrics["failed_ops"])
        print(f"== {workload}: {runs} runs, failed ops {sum(metrics['failed_ops'])}")
        for m in spec["end_to_end"]:
            xs = metrics.get(m["name"])
            if not xs:
                continue
            s = spread(xs)
            verdict = "steady" if s <= m["bound"] / 3 else "within bound" if s <= m["bound"] else "TOO WIDE"
            if s > m["bound"]:
                status = 1
            print(
                f"  {m['name']:14s} {fmt(quartiles(xs))} {m['unit']:5s} "
                f"spread {s:6.3f} bound {m['bound']:.2f}  {verdict}"
            )
    return status


def compare(spec, before, after) -> int:
    status = 0
    for key in sorted(set(before) & set(after)):
        workload, trace = key
        a, b = before[key], after[key]
        if trace:
            print(f"== {workload} per-layer (traced runs: {len(a['failed_ops'])} before, {len(b['failed_ops'])} after)")
            for m in spec["per_layer"]:
                if m["name"] not in a or m["name"] not in b:
                    continue
                ma, mb = statistics.median(a[m["name"]]), statistics.median(b[m["name"]])
                change = f"{(mb - ma) / abs(ma):+8.1%}" if ma else "       -"
                print(f"  {m['name']:44s} {ma:12.5g} -> {mb:12.5g} {m['unit']:6s} {change}")
            continue
        print(f"== {workload} ({len(a['failed_ops'])} runs before, {len(b['failed_ops'])} after)")
        for m in spec["end_to_end"]:
            xa, xb = a.get(m["name"]), b.get(m["name"])
            if not xa or not xb:
                continue
            w = worse_by(statistics.median(xa), statistics.median(xb), m["better"])
            if max(spread(xa), spread(xb)) > m["bound"]:
                verdict = "unresolved"
            elif w > m["bound"]:
                verdict = "REGRESSION"
                status = 1
            else:
                verdict = "ok"
            print(
                f"  {m['name']:14s} before {fmt(quartiles(xa))}  after {fmt(quartiles(xb))} "
                f"{m['unit']:5s} worse by {w:+7.1%} (bound {m['bound']:.0%})  {verdict}"
            )
        print(f"  failed ops     before {sum(a['failed_ops'])}  after {sum(b['failed_ops'])}")
    return status


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sets = [load_set(d) for d in argv]
    if len(sets) == 1:
        return summarize(spec, sets[0])
    return compare(spec, *sets)


if __name__ == "__main__":
    sys.exit(main())
