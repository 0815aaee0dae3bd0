"""Benchmark runner for fillinlab.

    python3 bench/run.py --workload gadget-heuristic --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

One run builds the workload's round of ops from the seed (set-up), then
repeats the round, one op after another in this one process, as many times
as fill ``--seconds`` at the workload's nominal round time; every op's
outputs are re-checked and fingerprinted.  With ``--trace 0`` the end-to-end
metrics of BENCHMARK.json are reported, and between the timed ops the set-up
is timed again in fresh processes (``--setup-probe``) for ``setup_s``; with
``--trace 1`` untraced and traced rounds alternate and the per-layer metrics
are reported.  The last line of standard output is the
result as one JSON object; a record with run metadata goes to
``bench/out/runs``.  ``--workload all`` runs each workload in a fresh process.

See bench/README.md for the workloads and the metric definitions.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
FINGERPRINTS = BENCH / "fingerprints"

WORKLOAD_NAMES = ("gadget-heuristic", "audit-corpus", "sparse-factor")
#: Fresh-process set-ups per untraced run; ``setup_s`` is their median.
SETUP_PROBES = 15


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


# -- run metadata ----------------------------------------------------------------


def blas_info() -> dict:
    """OpenBLAS build string and thread count, from the library NumPy loaded."""
    info = {"openblas": None, "blas_threads": None}
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return info
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_", ""):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}openblas_get_config{suffix}", None)
                if threads is None or config is None:
                    continue
                threads.restype = ctypes.c_int
                config.restype = ctypes.c_char_p
                info["openblas"] = config().decode()
                info["blas_threads"] = threads()
                return info
    return info


def git_commit() -> str:
    """HEAD of the checkout; 'unknown' outside a git repository."""
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_metadata(workload: str, seed: int, seconds: float, trace: int) -> dict:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        **blas_info(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "started": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


# -- op execution ----------------------------------------------------------------


class Ledger:
    """Attempted and failed ops, and the fingerprint each op must reproduce."""

    def __init__(self, workloads, n_ops: int, expected: list | None):
        self.workloads = workloads
        self.expected = list(expected) if expected else [None] * n_ops
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def fail(self, i: int, op, reason: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"op {i} ({op.kind}, size {op.size}): {reason}")

    def execute(self, i: int, op):
        self.attempted += 1
        try:
            outcome = self.workloads.run_op(op)
        except Exception:  # any error fails the op; the run goes on and reports it
            self.fail(i, op, traceback.format_exc(limit=4))
            return None
        want = self.expected[i]
        if want is None:
            self.expected[i] = outcome.fingerprint
        elif want != outcome.fingerprint:
            self.fail(i, op, f"fingerprint {outcome.fingerprint} != recorded {want}")
            return None
        return outcome


def timed_round(ledger: Ledger, ops, tracer=None, pause=None):
    """Run every op once; returns (per-op latencies in s, round wall time in s).

    ``pause(i)``, when given, runs after op ``i``; its time is left out of the
    round's wall time.
    """
    gc.collect()
    lat = []
    paused = 0.0
    start = time.perf_counter()
    for i, op in enumerate(ops):
        t0 = time.perf_counter()
        if tracer is None:
            ledger.execute(i, op)
        else:
            span = tracer.begin_op(i)
            outcome = ledger.execute(i, op)
            tracer.end_op(span)
            if outcome is not None:
                for name, k in outcome.counters.items():
                    tracer.counts[name] += k
        lat.append(time.perf_counter() - t0)
        if pause is not None:
            p0 = time.perf_counter()
            pause(i)
            paused += time.perf_counter() - p0
    return lat, time.perf_counter() - start - paused


def tail(samples: list[float]) -> tuple[float, float, int]:
    """Value at the highest percentile with at least ten samples above it.

    Returns (value, percentile, sample count); with ten samples or fewer the
    maximum is returned at percentile 100.
    """
    s = sorted(samples)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0, n
    return s[n - 11], 100.0 * (n - 10) / n, n


def load_expected(workload: str, seed: int, digest: str, n_ops: int):
    path = FINGERPRINTS / f"{workload}.json"
    if not path.exists():
        return None, "none recorded"
    entry = json.loads(path.read_text()).get(str(seed))
    if entry is None:
        return None, "none recorded for this seed"
    if entry["inputs"] != digest:
        return None, "recorded for other inputs"
    return entry["fingerprints"][:n_ops], "recorded"


def record_fingerprints(workload: str, seed: int, digest: str, fingerprints: list) -> None:
    FINGERPRINTS.mkdir(exist_ok=True)
    path = FINGERPRINTS / f"{workload}.json"
    table = json.loads(path.read_text()) if path.exists() else {}
    table[str(seed)] = {"inputs": digest, "fingerprints": fingerprints}
    ordered = dict(sorted(table.items(), key=lambda kv: int(kv[0])))
    path.write_text(json.dumps(ordered, indent=1) + "\n")


# -- one workload ------------------------------------------------------------------


def warmup_index(ops) -> int:
    """The round's smallest op, run untimed during set-up."""
    return min(range(len(ops)), key=lambda i: (ops[i].size, i))


def setup_probe(args) -> int:
    """``--setup-probe``: one set-up in this fresh process, timed from before the import.

    Prints its time, the inputs digest and the warm-up op's fingerprint as one
    JSON line; the parent run checks both against its own set-up.
    """
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import workloads

    ops = workloads.build_round(args.workload, args.seed, OUT / "work" / f"{args.workload}-probe")
    digest = workloads.inputs_digest(ops)
    if args.ops:
        ops = ops[: args.ops]
    warm = warmup_index(ops)
    outcome = workloads.run_op(ops[warm])
    setup_s = time.perf_counter() - t0
    probe = {"setup_s": setup_s, "inputs": digest, "fingerprint": outcome.fingerprint}
    print(json.dumps(probe))
    return 0


def run_probe(args, ledger: Ledger, ops, digest: str):
    """Time one set-up in a fresh process; its warm-up op counts as an attempted op.

    Returns the set-up seconds, or None when the probe failed (the failure is
    recorded in the ledger).
    """
    argv = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", "1", "--setup-probe",
    ]
    if args.ops:
        argv += ["--ops", str(args.ops)]
    warm = warmup_index(ops)
    ledger.attempted += 1
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        ledger.fail(warm, ops[warm], f"set-up probe exited {proc.returncode}: {proc.stderr[-2000:]}")
        return None
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    if probe["inputs"] != digest:
        ledger.fail(warm, ops[warm], f"set-up probe built inputs {probe['inputs']}, not {digest}")
        return None
    if probe["fingerprint"] != ledger.expected[warm]:
        ledger.fail(warm, ops[warm], f"set-up probe fingerprint {probe['fingerprint']}")
        return None
    return probe["setup_s"]


def run_workload(args) -> int:
    if not (SRC / "fillinlab" / "__init__.py").is_file():
        print(f"error: fillinlab sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args)
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import workloads  # imports numpy and fillinlab

    import_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    ops = workloads.build_round(args.workload, args.seed, OUT / "work" / args.workload)
    digest = workloads.inputs_digest(ops)
    if args.ops:
        ops = ops[: args.ops]
    expected, fp_source = load_expected(args.workload, args.seed, digest, len(ops))
    ledger = Ledger(workloads, len(ops), expected)
    warm = warmup_index(ops)
    ledger.execute(warm, ops[warm])
    inprocess_setup_s = time.perf_counter() - t0

    meta = run_metadata(args.workload, args.seed, args.seconds, args.trace)
    rounds = workloads.rounds_for(args.workload, args.seconds, traced=bool(args.trace))
    meta.update(rounds=rounds, ops_per_round=len(ops), inputs=digest, fingerprints=fp_source)
    if args.trace:
        metrics, extra = traced_phase(args, ops, ledger, meta)
    else:
        metrics, extra = untraced_phase(args, ops, ledger, meta, digest)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    extra["import_s"] = import_s
    extra["inprocess_setup_s"] = inprocess_setup_s
    extra["op_fail_frac"] = ledger.failed / ledger.attempted

    if args.record_fingerprints and not args.trace and not args.ops and ledger.failed == 0:
        record_fingerprints(args.workload, args.seed, digest, ledger.expected)

    spec = load_spec()
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    correct = ledger.failed == 0 and extra.get("counts_repeat", True)
    result = {
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {
            m["name"]: {"value": float(metrics.get(m["name"], 0.0)), "unit": m["unit"]}
            for m in listed
        },
    }
    write_record(Path(args.results), meta, result, extra, ledger)
    print_summary(meta, result, extra, ledger)
    print(json.dumps(result))
    return 0 if correct else 1


def untraced_phase(args, ops, ledger, meta, digest):
    """Timed rounds, with the set-up probes spread evenly over the run's ops.

    Spreading the probes over the whole run makes ``setup_s`` sample the same
    stretch of machine time as the op metrics, rather than one short burst;
    their time is left out of the rounds.
    """
    n_rounds, n_ops = meta["rounds"], len(ops)
    total = n_rounds * n_ops
    due = Counter(total * (k + 1) // (SETUP_PROBES + 1) for k in range(SETUP_PROBES))
    rounds, probes = [], []
    for r in range(n_rounds):

        def pause(i, first=r * n_ops):
            for _ in range(due[first + i]):
                probes.append(run_probe(args, ledger, ops, digest))

        rounds.append(timed_round(ledger, ops, pause=pause))
    samples = [x for lat, _ in rounds for x in lat]
    timed_s = sum(wall for _, wall in rounds)
    tail_s, tail_pct, n = tail(samples)
    setup_times = [x for x in probes if x is not None]
    metrics = {
        "setup_s": statistics.median(setup_times) if setup_times else 0.0,
        "ops_per_s": len(samples) / timed_s,
        "op_p50_ms": 1000.0 * statistics.median(samples),
        "op_tail_ms": 1000.0 * tail_s,
    }
    extra = {
        "tail_percentile": tail_pct,
        "samples": n,
        "timed_s": timed_s,
        "round_s": [wall for _, wall in rounds],
        "setup_probes_s": setup_times,
    }
    return metrics, extra


def traced_phase(args, ops, ledger, meta):
    import tracing

    tracer = tracing.Tracer()
    untraced, traced, layer_rounds = [], [], []
    span_path = None
    for _ in range(meta["rounds"]):
        untraced.append(timed_round(ledger, ops)[1])
        tracer.reset()
        tracer.install()
        try:
            traced.append(timed_round(ledger, ops, tracer)[1])
        finally:
            tracer.uninstall()
        layer_rounds.append(tracer.layer_metrics())
        if span_path is None:
            span_path = OUT / "trace" / f"{args.workload}-seed{args.seed}-{os.getpid()}.npz"
            span_path.parent.mkdir(parents=True, exist_ok=True)
            tracer.write_spans(span_path)
    # times vary from round to round and are medians; counts must repeat exactly
    metrics = dict(layer_rounds[0])
    unstable = []
    for name in metrics:
        values = [r.get(name, 0.0) for r in layer_rounds]
        if name.endswith("_s"):
            metrics[name] = statistics.median(values)
        elif len(set(values)) != 1:
            unstable.append(f"{name} {values}")
    for line in unstable:
        print(f"# COUNT DIFFERS BETWEEN ROUNDS {line}", file=sys.stderr)
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1
    extra = {
        "untraced_round_s": untraced,
        "traced_round_s": traced,
        "counts_repeat": not unstable,
        "unstable_counts": unstable,
        "spans_file": str(span_path.relative_to(ROOT)),
        "all_layer_metrics": metrics,
    }
    return metrics, extra


def write_record(runs: Path, meta, result, extra, ledger) -> None:
    runs.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    name = f"{meta['workload']}-seed{meta['seed']}-trace{meta['trace']}-{stamp}-{os.getpid()}.json"
    record = {"meta": meta, "result": result, "extra": extra, "failures": ledger.failures}
    (runs / name).write_text(json.dumps(record, indent=1, default=float) + "\n")


def print_summary(meta, result, extra, ledger) -> None:
    print(
        f"# workload={meta['workload']} seed={meta['seed']} trace={meta['trace']} "
        f"rounds={meta['rounds']} ops/round={meta['ops_per_round']} "
        f"fingerprints={meta['fingerprints']}"
    )
    print(
        f"# python={meta['python']} numpy={meta['numpy']} openblas={meta['openblas']} "
        f"blas_threads={meta['blas_threads']} nproc={meta['nproc']} commit={meta['commit']}"
    )
    for name, m in result["metrics"].items():
        note = ""
        if name == "op_tail_ms":
            note = f"  (p{extra['tail_percentile']:.1f} of {extra['samples']} samples)"
        elif name == "setup_s":
            note = f"  (median of {len(extra['setup_probes_s'])} fresh-process set-ups)"
        print(f"{name:44s} {m['value']:>14.6g} {m['unit']}{note}")
    print(
        f"{'op_fail_frac':44s} {extra['op_fail_frac']:>14.6g} ratio"
        f"  ({ledger.failed} of {ledger.attempted} ops)"
    )
    for line in ledger.failures[:3]:
        print(f"# FAILED {line}", file=sys.stderr)


# -- all workloads, one process each ----------------------------------------------------


def run_all(args) -> int:
    results = {}
    code = 0
    for workload in WORKLOAD_NAMES:
        argv = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        argv += ["--results", args.results]
        if args.ops:
            argv += ["--ops", str(args.ops)]
        if args.record_fingerprints:
            argv.append("--record-fingerprints")
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print(f"== {workload}")
        for line in lines[:-1]:
            print(line)
        if proc.returncode != 0 or not lines:
            print(f"error: {workload} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        results[workload] = json.loads(lines[-1])
        if not results[workload]["correct"]:
            code = 1
    print(json.dumps(results))
    return code


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOAD_NAMES, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument(
        "--results", default=str(OUT / "runs"), help="directory for the run record"
    )
    ap.add_argument("--ops", type=int, default=0, help="use only the first OPS ops of the round")
    ap.add_argument(
        "--record-fingerprints",
        action="store_true",
        help="store this seed's op fingerprints under bench/fingerprints",
    )
    ap.add_argument(
        "--setup-probe",
        action="store_true",
        help="time one set-up in this process and print it (the runner starts these itself)",
    )
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
