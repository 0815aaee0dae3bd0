"""Command-line front door: instance generation, reduction, solving,
verification suites, elimination runs, and report re-checking.

Exit codes: 0 all checks pass, 1 a verification check failed (a proven
inequality was violated, which should never happen), 2 invalid input,
3 a resource guardrail, or NumPy's allocator, refused the work.

Reports are JSON on stdout (or ``--out``); a human summary goes to stderr.
All randomness flows from the single ``--seed`` flag, whose default is fixed
rather than time-derived, and JSON output is byte-identical across runs for
identical (command, inputs, seed); wall-clock timings are embedded only when
``--timings`` is given.  ``FILLIN_LAB_LIMIT_OVERRIDE=1`` lifts the gadget byte
cap.

Each ``verify`` suite is one ``_SUITES`` row: the flags it reads, the draw of one
trial's payload and the task that turns it into records.  Every payload is drawn,
and every flag checked, before the first trial runs; ``--jobs`` runs the tasks on
at most one worker process per trial.

``report`` only loads a JSON file and prints what ``report.recheck`` finds in it:
the ``report`` module writes the report format and is its one reader, with the
certificate table and the rules for numbers and instances.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from fractions import Fraction

import numpy as np

from . import generate, matrix, transfer
from .chordal import _validate_permutation, elimination_fill_matches, verify_fillin
from .errors import CounterexampleError, GraphInputError, ResourceLimitError
from .graph import Graph, dimacs_text, load_dimacs, parse_ints, save_dimacs
from .reduction import (
    GADGET_MAX_BYTES,
    brooks_coloring,
    decision_equivalence_check,
    produced_fillins,
    reduce_colored,
    reduce_primitive,
    save_instance,
    verify_sandwich,
)
from .report import RunReport, check, instance_descriptor, recheck
from .solvers import (
    GREEDY_STRATEGIES,
    exact_fillin_ordering_oracle,
    exact_vertex_cover,
    greedy_game,
    is_vertex_cover,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_LIMIT = 3

DEFAULT_SEED = 20240613

#: Flags shared by several subcommands; each subcommand attaches those it reads.
_COMMON_FLAGS = {
    "seed": {"type": int, "default": DEFAULT_SEED},
    "out": {"help": "write the output here instead of stdout"},
    "timings": {"action": "store_true", "help": "embed wall-clock timings"},
    "jobs": {"type": int, "default": 1, "help": "parallel corpus workers"},
}


def _emit(report: RunReport, args) -> None:
    payload = report.dumps() + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    for line in report.summary_lines():
        print(line, file=sys.stderr)


# -- subcommands -----------------------------------------------------------------


def cmd_gen(args) -> int:
    rng = np.random.default_rng(args.seed)
    if args.model == "gnp":
        g = generate.gnp(args.n, args.p, rng)
    elif args.model == "regular":
        g = generate.random_regular(args.n, args.d, rng)
    elif args.model == "cycle":
        g = generate.cycle(args.n)
    else:
        g = generate.grid(args.rows, args.cols)
    if args.out:
        save_dimacs(g, args.out, comments=[f"model={args.model} seed={args.seed}"])
        print(f"wrote {g.n} vertices, {g.m} edges to {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(dimacs_text(g))
    return EXIT_OK


def cmd_reduce(args) -> int:
    g = load_dimacs(args.input)
    t0 = time.perf_counter()
    lifted = os.environ.get("FILLIN_LAB_LIMIT_OVERRIDE", "") not in ("", "0")
    max_bytes = None if lifted else GADGET_MAX_BYTES
    if args.mode == "primitive":
        inst = reduce_primitive(g, max_bytes)
    else:
        inst = reduce_colored(g, args.b, brooks_coloring(g, args.d), max_bytes)
    sidecar = save_instance(inst, args.graph_out)
    report = RunReport(
        command="reduce",
        instance=instance_descriptor(g, args.input),
        params={"mode": args.mode, "b": args.b, "d": args.d},
        outputs={
            "gadget_vertices": inst.graph.n,
            "gadget_edges": inst.graph.m,
            "block_deficit": inst.block_deficit,
            "graph_file": str(args.graph_out),
            "sidecar_file": sidecar,
            "q": inst.q,
        },
    )
    if args.timings:
        report.timings = {"seconds": time.perf_counter() - t0}
    _emit(report, args)
    return EXIT_OK


def cmd_solve(args) -> int:
    g = load_dimacs(args.input)
    codes = matrix.pattern_from_graph(g).codes
    report = RunReport(
        command=f"solve-{args.problem}",
        instance=instance_descriptor(g, args.input, codes),
        params={"budget": args.budget, "strategy": args.strategy},
    )
    report.instance["edges"] = np.column_stack(np.divmod(codes, g.n))
    t0 = time.perf_counter()
    code = EXIT_OK
    if args.problem == "vc":
        res = exact_vertex_cover(g, node_budget=args.budget)
        report.outputs = {"size": res.size, "status": res.status, "nodes": res.nodes}
        report.certificates["cover"] = sorted(res.vertices)
        report.add(check("cover_is_valid", int(is_vertex_cover(g, res.vertices)), 1, "=="))
        if not res.optimal:
            code = EXIT_LIMIT
    else:  # fillin or fillin-heuristic: sorted codes, written as sorted pairs
        optimal = args.problem == "fillin"
        fill = exact_fillin_ordering_oracle(g) if optimal else greedy_game(g, args.strategy)[1]
        report.outputs = {"size": fill.size, "status": "optimal" if optimal else "heuristic"}
        report.certificates["fillin"] = np.column_stack(np.divmod(fill, g.n))
        report.add(check("fillin_is_valid", int(bool(verify_fillin(g, fill))), 1, "=="))
    if args.timings:
        report.timings = {"seconds": time.perf_counter() - t0}
    _emit(report, args)
    if code == EXIT_OK and not report.passed:
        code = EXIT_CHECK_FAILED
    return code


def cmd_eliminate(args) -> int:
    use_mm = args.format == "mm" or (args.format == "auto" and args.input.endswith(".mtx"))
    if use_mm:
        pattern = matrix.load_matrix_market(args.input)
        g = matrix.graph_from_pattern(pattern)
    else:
        g = load_dimacs(args.input)
        pattern = matrix.pattern_from_graph(g)
    graph_fill = None  # a greedy ordering's own game gives the graph-side fill
    if args.ordering is not None:  # read once; both fills then test the int64 array
        order = _validate_permutation(g.n, parse_ints(args.ordering.split(","), "--ordering"))
    elif args.strategy == "natural":
        order = np.arange(g.n)
    else:
        order, graph_fill = greedy_game(g, args.strategy)
    fill, total = matrix.symbolic_fill_codes(pattern, order)
    if graph_fill is None:  # the game's fill rows against the codes, a block at a time: one fill array
        agree = elimination_fill_matches(g, order, fill)
    else:  # no bool array as long as the fill, unlike np.array_equal; the peak is the two fill arrays
        agree = fill.data == graph_fill.data
    report = RunReport(
        command="eliminate",
        instance=instance_descriptor(g, args.input, pattern.codes),
        params={"ordering_source": args.ordering or args.strategy},
        outputs={"fill_size": fill.size, "total_nonzeros": total, "ordering": order},
    )
    report.add(check("matrix_graph_fill_agree", int(agree), 1, "=="))
    report.add(check("nonzero_accounting", total, 2 * (g.m + fill.size) + g.n, "=="))
    _emit(report, args)
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


# -- verification suites (draws and tasks are top-level so --jobs can pickle them) --


def _run_tasks(func, payloads, jobs: int) -> list:
    """The records ``func`` returns for each payload, in order, on at most one
    worker process per payload."""
    workers = min(jobs, len(payloads))
    if workers <= 1:
        results = map(func, payloads)
    else:
        from concurrent.futures import ProcessPoolExecutor  # only here: a serial run never pays its import

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(func, payloads))
    return [record for records in results for record in records]


def _random_graph(rng, nmax: int) -> Graph:
    n = 2 + int(rng.integers(0, nmax - 1))
    return generate.gnp(n, float(rng.uniform(0.15, 0.85)), rng)


def _draw_sandwich(rng, args):
    return _random_graph(rng, args.nmax), int(rng.integers(2**32))


def _sandwich_task(payload):
    t, g, seed = payload
    sub = verify_sandwich(g, rng=np.random.default_rng(seed), random_orderings=1)
    note = f"tau={sub.outputs.get('tau')} phi={sub.outputs.get('phi_gadget')}"
    return [check(f"sandwich[{t}:n={g.n}]", int(sub.passed), 1, "==", note=note)]


def _draw_theorem4(rng, args):
    g = _random_graph(rng, args.nmax)
    return g, int(rng.integers(0, g.n + 1)), int(rng.integers(2**32))


def _theorem4_task(payload):
    t, g, c, seed = payload
    inst = reduce_primitive(g)
    fills = produced_fillins(inst, rng=np.random.default_rng(seed), random_orderings=1)
    out = []
    for name, fill in sorted(fills.items()):
        sub = decision_equivalence_check(g, c, fill, inst)
        note = f"tau={sub.outputs.get('tau')}"
        out.append(check(f"theorem4[{t}:n={g.n},c={c},{name}]", int(sub.passed), 1, "==", note=note))
    return out


def _draw_transfer(rng, args):
    """A subcubic graph with an edge and the two configs of ``--eps`` and ``--d``,
    so a bad value is refused before the first trial runs.  Stripping K_4
    components can leave no edge: the graph is drawn again, so every trial runs."""
    try:
        eps = Fraction(args.eps)
    except (ValueError, ZeroDivisionError):
        raise GraphInputError(f"--eps: expected a fraction, got {args.eps!r}") from None
    configs = {mode: transfer.TransferConfig(epsilon=eps, d=args.d, mode=mode) for mode in ("fillin", "completion")}
    n = 6 + 2 * int(rng.integers(0, 4))
    while True:
        g = generate.random_subcubic(n, rng)
        if g.m:
            return g, configs


#: Transfer run -> its pipeline, procedure, config mode, and whether its cover
#: must be optimum (noted by its ratio; otherwise by its gate).
_TRANSFERS = (
    ("fillin", transfer.vc_via_fillin, transfer.exact_backed_fillin, "fillin", True),
    ("completion", transfer.vc_via_completion, transfer.exact_backed_completion, "completion", True),
    ("heuristic", transfer.vc_via_fillin, transfer.heuristic_backed_fillin("min-fill"), "fillin", False),
)


def _transfer_task(payload):
    t, g, configs = payload
    out = []
    for label, pipeline, procedure, mode, optimal in _TRANSFERS:
        cover, audit = pipeline(g, procedure, configs[mode])
        ok = audit.passed and (len(cover) == audit.tau or not optimal)
        note = f"ratio={audit.ratio}" if optimal else f"gate={audit.gate}"
        out.append(check(f"transfer-{label}[{t}:n={g.n}]", int(ok), 1, "==", note=note))
    return out


def _draw_matrix(rng, args):
    g = _random_graph(rng, args.nmax)
    return g, rng.permutation(g.n)


def _matrix_task(payload):
    t, g, order = payload
    ok = matrix.fill_equivalence_check(matrix.pattern_from_graph(g), order)
    return [check(f"matrix[{t}:n={g.n}]", int(ok), 1, "==")]


#: Suite -> the suite-specific flags it reads, its payload draw and its task: sandwich,
#: theorem4 and matrix draw G(n, p) with n = 2..nmax, transfer draws subcubic graphs
#: with n = 6..12.  Each draw takes the suite's generator and the parsed flags; each
#: task takes ``(trial, *draw)`` and returns its records.
_SUITES = {
    "matrix": (("nmax",), _draw_matrix, _matrix_task),
    "sandwich": (("nmax",), _draw_sandwich, _sandwich_task),
    "theorem4": (("nmax",), _draw_theorem4, _theorem4_task),
    "transfer": (("eps", "d"), _draw_transfer, _transfer_task),
}


def cmd_verify(args) -> int:
    reads, draw, task = _SUITES[args.suite]
    for flag, least in (("trials", 1), ("nmax", 2), ("jobs", 1)):
        if flag in (*reads, "trials", "jobs") and getattr(args, flag) < least:
            raise GraphInputError(f"--{flag} must be at least {least}, got {getattr(args, flag)}")
    report = RunReport(
        command=f"verify-{args.suite}",
        params={"seed": args.seed, "trials": args.trials, **{f: getattr(args, f) for f in reads}},
    )
    t0 = time.perf_counter()
    rng = np.random.default_rng(args.seed)
    payloads = [(t, *draw(rng, args)) for t in range(args.trials)]
    report.extend(_run_tasks(task, payloads, args.jobs))
    if args.timings:
        report.timings = {"seconds": time.perf_counter() - t0}
    _emit(report, args)
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


# -- offline report re-check ---------------------------------------------------------


def cmd_report(args) -> int:
    with open(args.input) as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:
            raise GraphInputError(f"{args.input}: not a JSON report ({exc})") from None
    problems = recheck(data, args.input)
    for p in problems:
        print(f"RECHECK FAIL: {p}", file=sys.stderr)
    if problems:
        return EXIT_CHECK_FAILED
    print(f"report {args.input}: recheck OK ({len(data.get('checks', []))} checks)", file=sys.stderr)
    return EXIT_OK


# -- argument parsing -----------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process: parsing does not change it, and each
    build costs about a millisecond (a help formatter per argument).  Only callers
    that run ``main`` many times in one process (tests, notebooks) save anything."""
    ap = argparse.ArgumentParser(
        prog="fillinlab",
        description="Minimum fill-in laboratory: gadget reductions, exact oracles, audits.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, *flags):
        """Attach the shared flags that the subcommand reads."""
        for flag in flags:
            p.add_argument(f"--{flag}", **_COMMON_FLAGS[flag])

    p = sub.add_parser("gen", help="generate a graph file")
    p.add_argument("model", choices=["gnp", "regular", "cycle", "grid"])
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--p", type=float, default=0.5)
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--rows", type=int, default=3)
    p.add_argument("--cols", type=int, default=3)
    common(p, "seed", "out")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("reduce", help="build a gadget instance from a graph file")
    p.add_argument("input")
    p.add_argument("--mode", choices=["primitive", "colored"], required=True)
    p.add_argument("--b", type=int, default=1)
    p.add_argument("--d", type=int, default=3)
    p.add_argument(
        "--graph-out", required=True, help="gadget DIMACS path (sidecar appends .json)"
    )
    common(p, "out", "timings")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("solve", help="run a solver on a graph file")
    p.add_argument("input")
    p.add_argument("problem", choices=["vc", "fillin", "fillin-heuristic"])
    p.add_argument("--budget", type=int, default=5_000_000, help="node budget (vc)")
    p.add_argument("--strategy", choices=GREEDY_STRATEGIES, default="min-fill")
    common(p, "out", "timings")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="run a verification suite over a corpus")
    p.add_argument("suite", choices=sorted(_SUITES))
    p.add_argument("--trials", type=int, default=25)
    p.add_argument(
        "--nmax", type=int, default=6, help="largest graph size (sandwich, theorem4, matrix)"
    )
    p.add_argument("--eps", default="1/2", help="approximation slack epsilon (transfer)")
    p.add_argument("--d", type=int, default=3, help="degree bound of the coloring (transfer)")
    common(p, "seed", "out", "timings", "jobs")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("eliminate", help="fill of an ordering on a matrix or graph")
    p.add_argument("input", help="DIMACS graph or Matrix Market .mtx file")
    p.add_argument("--format", choices=["auto", "dimacs", "mm"], default="auto")
    p.add_argument("--ordering", help="comma-separated 0-based pivot order")
    p.add_argument("--strategy", choices=("natural", *GREEDY_STRATEGIES), default="natural")
    common(p, "out")
    p.set_defaults(func=cmd_eliminate)

    p = sub.add_parser("report", help="re-check a previously emitted JSON report")
    p.add_argument("input")
    p.set_defaults(func=cmd_report)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except GraphInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except (ResourceLimitError, MemoryError) as exc:  # a size refused by a guardrail or by NumPy
        print(f"limit: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except CounterexampleError as exc:
        print(
            f"HARD FAILURE (implementation bug or falsified guarantee): {exc}",
            file=sys.stderr,
        )
        return EXIT_CHECK_FAILED
    except OSError as exc:  # a path that cannot be opened as asked: missing, a directory, ...
        if exc.filename is None:
            raise
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
