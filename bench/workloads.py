"""The three benchmark workloads: seeded inputs, one op per input, and the
independent re-checks and output fingerprints that decide whether an op failed.

A workload turns a seed into one *round*: a fixed list of ops whose sizes are
stratified over the ranges the workload covers, in a fixed order, so the work
in a round barely depends on the seed; the seed draws the graphs, patterns
and thresholds.  The runner repeats the round.

Op functions look library functions up through the package modules at call
time, so the spans ``tracing.install`` puts in place see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

import fillinlab as fl
from fillinlab import cli, generate, matrix, reduction


class CheckFailed(Exception):
    """An output failed an independent re-check."""


@dataclass(frozen=True)
class Op:
    kind: str
    size: int  # vertices of the input; the smallest op is the warm-up
    payload: dict


@dataclass
class Outcome:
    fingerprint: str
    counters: dict


def _require(ok, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _fingerprint(obj) -> str:
    text = json.dumps(obj, sort_keys=True, default=str, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


_RELATIONS = {
    "<": operator.lt,
    "<=": operator.le,
    "==": operator.eq,
    ">=": operator.ge,
    ">": operator.gt,
}


def _recheck_records(records, what: str) -> None:
    """Every record passed, and its relation holds when evaluated here."""
    for rec in records:
        _require(rec.passed, f"{what}: record {rec.name} did not pass")
        _require(_RELATIONS[rec.op](rec.lhs, rec.rhs), f"{what}: record {rec.name} does not hold")


def _graph(payload) -> fl.Graph:
    return fl.Graph.build(payload["n"], payload["edges"])


def _gnp_payload(rng, n: int) -> dict:
    p = float(rng.uniform(0.15, 0.85))
    return {"n": n, "edges": generate.gnp(n, p, rng).edge_list()}


def _subcubic_payload(rng, n: int) -> dict:
    while True:  # stripping K4 components can leave an edgeless graph
        g = generate.random_subcubic(n, rng)
        if g.m:
            return {"n": g.n, "edges": g.edge_list()}


def _capture(procedure, box: dict):
    """Pass a transfer procedure through, keeping its input and output for re-checks."""

    def run(inst):
        box["inst"] = inst
        box["out"] = procedure(inst)
        return box["out"]

    return run


# The gate and the split-completion size depend on which optimal cover the
# exact solver picks, so fingerprints leave them out.


def _audit_fingerprint(audit) -> dict:
    return {
        "verdict": audit.passed,
        "ratio": audit.ratio,
        "tau": audit.tau,
        "cover": audit.cover_size,
        "gadget_n": audit.gadget_n,
        "q": audit.q,
    }


def _sandwich_fingerprint(rep) -> dict:
    fills = {
        r.name: r.rhs
        for r in rep.checks
        if r.name.startswith("window_lower[") and r.name != "window_lower[split-completion]"
    }
    out = {k: rep.outputs.get(k) for k in ("tau", "phi_gadget")}
    return {"verdict": rep.verdict, "fills": fills, **out}


# -- op paths ------------------------------------------------------------------

EPS = Fraction(1, 2)
BRANCH_NODE_BUDGET = 10
BRANCH_FILL_SLACK = 2


def op_sandwich(payload):
    g = _graph(payload)
    rep = fl.verify_sandwich(g, rng=np.random.default_rng(payload["seed"]), random_orderings=1)
    _recheck_records(rep.checks, "sandwich")
    return _sandwich_fingerprint(rep), {}


def op_transfer_heuristic(payload):
    g = _graph(payload)
    box = {}
    proc = _capture(fl.heuristic_backed_fillin("min-fill"), box)
    cover, audit = fl.vc_via_fillin(g, proc, fl.TransferConfig(epsilon=EPS))
    _recheck_records(audit.records, "transfer")
    fill = frozenset((min(u, v), max(u, v)) for u, v in box["out"])
    _require(fl.verify_fillin(box["inst"].graph, fill), "greedy fill-in is invalid")
    _require(fl.is_vertex_cover(g, cover), "transfer cover is not a cover")
    _require(len(cover) == audit.cover_size, "cover size differs from the audit")
    inst = box["inst"]
    return {
        **_audit_fingerprint(audit),
        "fill": _fingerprint(sorted(fill)),
        "gadget": (inst.graph.n, inst.graph.m),
    }, {}


def op_theorem4(payload):
    g = _graph(payload)
    inst = fl.reduce_primitive(g)
    fills = reduction.produced_fillins(
        inst, rng=np.random.default_rng(payload["seed"]), random_orderings=1
    )
    out = {"gadget": (inst.graph.n, inst.graph.m)}
    for name, fill in sorted(fills.items()):
        _require(fl.verify_fillin(inst.graph, fill), f"{name} fill-in is invalid")
        rep = fl.decision_equivalence_check(g, payload["c"], fill, inst)
        _recheck_records(rep.checks, f"theorem4[{name}]")
        out[name] = {"size": len(fill), "tau": rep.outputs.get("tau"), "verdict": rep.verdict}
    return out, {}


def op_transfer_exact(payload):
    g = _graph(payload)
    out = {}
    box = {}
    cfg = fl.TransferConfig(epsilon=EPS, mode="fillin")
    cover, audit = fl.vc_via_fillin(g, _capture(fl.exact_backed_fillin, box), cfg)
    _recheck_records(audit.records, "transfer-fillin")
    _require(fl.verify_fillin(box["inst"].graph, box["out"]), "exact-backed fill-in is invalid")
    _require(fl.is_vertex_cover(g, cover) and len(cover) == audit.tau, "fillin cover is not optimal")
    out["fillin"] = _audit_fingerprint(audit)

    box = {}
    cfg = fl.TransferConfig(epsilon=EPS, mode="completion")
    cover, audit = fl.vc_via_completion(g, _capture(fl.exact_backed_completion, box), cfg)
    _recheck_records(audit.records, "transfer-completion")
    h = box["inst"].graph
    fill = box["out"].edge_set() - h.edge_set()
    _require(fl.verify_fillin(h, fill), "completion fill-in is invalid")
    _require(
        fl.is_vertex_cover(g, cover) and len(cover) == audit.tau, "completion cover is not optimal"
    )
    out["completion"] = _audit_fingerprint(audit)
    return out, {}


def op_matrix(payload):
    pattern = matrix.pattern_from_graph(_graph(payload))
    _require(fl.fill_equivalence_check(pattern, payload["order"]), "matrix and graph fill differ")
    return {"agree": True}, {}


def op_oracle(payload):
    g = _graph(payload)
    fill = fl.exact_fillin_ordering_oracle(g)
    _require(fl.verify_fillin(g, fill), "oracle fill-in is invalid")
    return {"opt": len(fill)}, {}


def op_branch(payload):
    """Branch search with a fill budget above the optimum and a small node budget.

    A search that ran out of nodes may return a fill-in larger than the
    optimum under status 'found'; that is counted, not failed.  Only the
    oracle optimum is fingerprinted, since whether a search is cut depends
    on the solver's node count.
    """
    g = _graph(payload)
    opt_fill = fl.exact_fillin_ordering_oracle(g)
    _require(fl.verify_fillin(g, opt_fill), "oracle fill-in is invalid")
    opt = len(opt_fill)
    res = fl.exact_fillin_branch(g, opt + BRANCH_FILL_SLACK, node_budget=BRANCH_NODE_BUDGET)
    cut = res.nodes > BRANCH_NODE_BUDGET
    if res.fillin is not None:
        _require(fl.verify_fillin(g, res.fillin), "branch fill-in is invalid")
        _require(opt <= len(res.fillin) <= opt + BRANCH_FILL_SLACK, "branch fill-in size out of range")
    if not cut:
        _require(
            res.fillin is not None and len(res.fillin) == opt,
            f"complete branch search returned {res.status} instead of the optimum",
        )
    found_not_optimal = int(res.status == "found" and res.fillin is not None and len(res.fillin) > opt)
    return {"opt": opt}, {"solvers.branch.found_not_optimal": found_not_optimal}


def op_eliminate(payload):
    out_path = payload["out"]
    argv = ["eliminate", payload["file"], "--strategy", payload["strategy"], "--out", out_path]
    with contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    _require(code == 0, f"eliminate exited {code}")
    with open(out_path) as fh:
        rep = json.load(fh)
    _require(rep["verdict"] == "PASS", "eliminate report failed")
    for rec in rep["checks"]:
        _require(rec["pass"] and _RELATIONS[rec["op"]](rec["lhs"], rec["rhs"]), rec["name"])
    n, m = payload["n"], payload["m"]
    outputs = rep["outputs"]
    order = outputs["ordering"]
    if isinstance(order, str):  # RunReport serializes list outputs as their str()
        order = json.loads(order)
    _require(rep["instance"]["n"] == n and rep["instance"]["m"] == m, "instance size differs")
    _require(sorted(order) == list(range(n)), "ordering is not a permutation")
    if payload["strategy"] == "natural":
        _require(order == list(range(n)), "natural ordering is not the identity")
    fill, nnz = outputs["fill_size"], outputs["total_nonzeros"]
    _require(nnz == 2 * (m + fill) + n, "nonzero count does not match the fill size")
    return {"fill": fill, "nnz": nnz, "ordering": _fingerprint(order)}, {}


_OPS = {
    "sandwich": op_sandwich,
    "transfer-heuristic": op_transfer_heuristic,
    "theorem4": op_theorem4,
    "transfer-exact": op_transfer_exact,
    "matrix": op_matrix,
    "oracle": op_oracle,
    "branch": op_branch,
    "eliminate": op_eliminate,
}


def run_op(op: Op) -> Outcome:
    stable, counters = _OPS[op.kind](op.payload)
    return Outcome(_fingerprint([op.kind, stable]), counters)


# -- rounds --------------------------------------------------------------------


def gadget_heuristic_round(rng, workdir: Path) -> list[Op]:
    """Primitive-gadget sandwich audits and colored-gadget min-fill transfers.

    Transfer inputs take every even size from 20 to 50, so op costs spread
    evenly and the latency quantiles do not sit on a jump between two sizes.
    """
    ops = []
    for _ in range(3):
        for n in (4, 5, 6, 7):
            payload = {**_gnp_payload(rng, n), "seed": int(rng.integers(2**32))}
            ops.append(Op("sandwich", n**3 + n, payload))
    for n in range(20, 51, 2):
        ops.append(Op("transfer-heuristic", n, _subcubic_payload(rng, n)))
    return ops


def audit_corpus_round(rng, workdir: Path) -> list[Op]:
    """Fifty small instances through each of six exact audit paths."""
    ops = []
    for i in range(50):
        small = 2 + i % 5
        payload = {**_gnp_payload(rng, small), "seed": int(rng.integers(2**32))}
        ops.append(Op("sandwich", small, payload))
        payload = _gnp_payload(rng, small)
        payload.update(c=int(rng.integers(0, small + 1)), seed=int(rng.integers(2**32)))
        ops.append(Op("theorem4", small, payload))
        ops.append(Op("transfer-exact", 6 + i % 7, _subcubic_payload(rng, 6 + i % 7)))
        payload = _gnp_payload(rng, small)
        payload["order"] = [int(v) for v in rng.permutation(small)]
        ops.append(Op("matrix", small, payload))
        ops.append(Op("oracle", 8 + i % 3, _gnp_payload(rng, 8 + i % 3)))
        ops.append(Op("branch", 6 + i % 4, _gnp_payload(rng, 6 + i % 4)))
    return ops


def _grid_pattern(k: int, dims: int) -> matrix.SparsePattern:
    n = k**dims
    idx = np.arange(n).reshape((k,) * dims)
    pairs = []
    for axis in range(dims):
        lo = np.take(idx, np.arange(k - 1), axis=axis).ravel()
        hi = np.take(idx, np.arange(1, k), axis=axis).ravel()
        pairs.extend(zip(lo.tolist(), hi.tolist()))
    return matrix.SparsePattern(n, frozenset(pairs))


def _random_pattern(rng, n: int) -> matrix.SparsePattern:
    """About four nonzeros per row: the diagonal plus three off-diagonal entries."""
    want = 3 * n // 2
    pairs: set = set()
    while len(pairs) < want:
        i, j = rng.integers(0, n, size=(2, want))
        pairs.update((int(min(a, b)), int(max(a, b))) for a, b in zip(i, j) if a != b)
    ordered = sorted(pairs)
    keep = rng.choice(len(ordered), size=want, replace=False)
    return matrix.SparsePattern(n, frozenset(ordered[k] for k in sorted(keep)))


MIN_FILL_MAX_ROWS = 400


def sparse_factor_round(rng, workdir: Path) -> list[Op]:
    """``fillinlab eliminate`` on grid and random Matrix Market patterns.

    Sizes are fixed so that a round's work does not depend on the seed; the
    seed draws the random patterns.  Many sizes spread the op costs evenly, so
    the latency quantiles do not sit on a jump between two sizes.  The
    largest files stop at 1728 rows: the n^2 steps at 3600 rows swing with
    the memory traffic of other tenants on a shared machine.
    """
    patterns = [(f"grid2d-{k}", _grid_pattern(k, 2)) for k in range(20, 41, 4)]
    patterns += [(f"grid3d-{k}", _grid_pattern(k, 3)) for k in range(8, 13)]
    patterns += [(f"random-{n}", _random_pattern(rng, n)) for n in range(500, 1001, 100)]
    workdir.mkdir(parents=True, exist_ok=True)
    out = str(workdir / "eliminate.json")
    ops = []
    for name, pattern in patterns:
        path = workdir / f"{name}.mtx"
        matrix.save_matrix_market(pattern, path)
        strategies = ["natural", "min-degree"]
        if pattern.n <= MIN_FILL_MAX_ROWS:
            strategies.append("min-fill")
        for strategy in strategies:
            payload = {
                "file": str(path),
                "strategy": strategy,
                "n": pattern.n,
                "m": pattern.nnz_offdiag,
                "out": out,
            }
            ops.append(Op("eliminate", pattern.n, payload))
    return ops


#: Workload name -> (round builder, seed salt, nominal round seconds).  The
#: salt keeps the input streams of different workloads apart under one seed.
#: The nominal round time, measured on a 2-CPU machine, fixes how many rounds
#: a run of a given length makes, so that the sample count, and with it the
#: tail percentile, does not depend on how fast or loaded the machine is.
WORKLOADS = {
    "gadget-heuristic": (gadget_heuristic_round, 1, 3.5),
    "audit-corpus": (audit_corpus_round, 2, 8.0),
    "sparse-factor": (sparse_factor_round, 3, 7.0),
}


def build_round(workload: str, seed: int, workdir: Path) -> list[Op]:
    builder, salt, _ = WORKLOADS[workload]
    return builder(np.random.default_rng([seed, salt]), workdir)


def rounds_for(workload: str, seconds: float, traced: bool = False) -> int:
    """Rounds a run of ``seconds`` makes; a traced run pairs each round with an untraced one."""
    nominal = WORKLOADS[workload][2] * (2 if traced else 1)
    return max(1, math.ceil(seconds / nominal))


def inputs_digest(ops: list[Op]) -> str:
    """Digest of a round's inputs, including the bytes of any file an op reads."""
    h = hashlib.sha256()
    for op in ops:
        payload = {k: v for k, v in op.payload.items() if k not in ("file", "out")}
        h.update(json.dumps([op.kind, payload], sort_keys=True).encode())
        if "file" in op.payload:
            h.update(Path(op.payload["file"]).read_bytes())
    return h.hexdigest()[:16]
