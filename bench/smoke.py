"""Smoke check of the benchmark: a handful of ops per workload, traced and untraced.

    python3 bench/smoke.py

Checks that every metric BENCHMARK.json names is printed with its unit, that
every name uses only letters, digits, '_', '.' and '-', and that no op failed
(op_fail_frac is 0).  Exits 1 on the first run that breaks a rule.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
OPS = 6


def check_run(spec, workload: str, trace: int) -> list[str]:
    argv = [
        sys.executable, str(BENCH / "run.py"),
        "--workload", workload, "--seed", "0", "--seconds", "1", "--trace", str(trace),
        "--ops", str(OPS), "--results", str(BENCH / "out" / "smoke"),
    ]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
    where = f"{workload} trace={trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}\n{proc.stderr}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    if set(result["metrics"]) != {m["name"] for m in listed}:
        problems.append(f"{where}: printed metrics differ from BENCHMARK.json")
    for m in listed:
        got = result["metrics"].get(m["name"])
        if got is None or got.get("unit") != m["unit"] or not isinstance(got.get("value"), float):
            problems.append(f"{where}: {m['name']} missing or without unit {m['unit']}")
    fail_line = [line for line in lines if line.startswith("op_fail_frac")]
    if len(fail_line) != 1 or float(fail_line[0].split()[1]) != 0.0:
        problems.append(f"{where}: op_fail_frac is not 0: {fail_line}")
    if result["failed"] or not result["correct"] or result["attempted"] < OPS:
        problems.append(f"{where}: {result['failed']} of {result['attempted']} ops failed\n{proc.stderr}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    problems = [f"bad name {n!r}" for n in names if not NAME.match(n)]
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            found = check_run(spec, workload, trace)
            print(f"{workload} trace={trace}: {'ok' if not found else 'FAIL'}")
            problems += found
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
