"""Span tracing installed from outside the fillinlab package.

``install`` wraps the public functions of each package layer at every module
that binds them (``reduction`` imports ``is_chordal`` by name, ``cli`` imports
``greedy_ordering``, and so on), plus the ``Graph`` constructors and
derivers and the building and serialising methods of ``RunReport`` and
``IneqRecord``.  Each call then records one span: name, start, end, parent span and
op id.  Spans stay in memory; ``Tracer.layer_metrics`` derives self time (a
span's duration minus the time its child spans cover) and call counts, and
work counts come from the wrapped functions' return values.

Calls between ``_bits`` primitives (``indices`` calling ``unpack``) are not
split into spans: a primitive's cost is its own.  Per-element ``Graph``
queries (``has_edge``, ``neighbors``, ``degree``) are left unwrapped; their
time stays with the caller.
"""

from __future__ import annotations

import inspect
import time
from collections import defaultdict

import numpy as np

import fillinlab
from fillinlab import _bits, chordal, cli, graph, matrix, reduction, report, solvers, transfer

#: Layer name -> package module whose public functions are wrapped.
LAYERS = {
    "bits": _bits,
    "graph": graph,
    "chordal": chordal,
    "solvers": solvers,
    "reduction": reduction,
    "transfer": transfer,
    "matrix": matrix,
    "report": report,
    "cli": cli,
}

#: Every module that may bind a wrapped function by name.
_BINDING_MODULES = [fillinlab, *LAYERS.values()]

#: (span name prefix, class, methods) wrapped on the class itself.
_METHODS = (
    ("graph.", graph.Graph, ("build", "from_packed_rows", "add_edges", "packed_rows", "induced_subgraph")),
    ("report.RunReport.", report.RunReport, ("add", "extend", "to_json", "dumps")),
    ("report.IneqRecord.", report.IneqRecord, ("to_json", "line")),
)

#: Span names that differ from ``<layer>.<function>``.
_RENAMED = {
    "exact_vertex_cover": "solvers.vc",
    "exact_fillin_ordering_oracle": "solvers.oracle",
    "exact_fillin_branch": "solvers.branch",
    "reduce_primitive": "reduction.reduce",
    "reduce_colored": "reduction.reduce",
    "verify_sandwich": "reduction.audit",
    "decision_equivalence_check": "reduction.audit",
}

_GREEDY = ("greedy_ordering", "greedy_minfill_heuristic")


def _arg(fn, args, kwargs, name):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


def _count_elimination(counts, fn, args, kwargs, result):
    counts["chordal.elim_steps"] += args[0].n
    counts["chordal.fill_edges"] += len(result)


def _count_ordering(counts, fn, args, kwargs, result):
    counts["chordal.elim_steps"] += len(result)


def _count_branch(counts, fn, args, kwargs, result):
    counts["solvers.branch.nodes"] += result.nodes
    counts["solvers.branch.budget_cut"] += result.nodes > _arg(fn, args, kwargs, "node_budget")


def _count_vc(counts, fn, args, kwargs, result):
    counts["solvers.vc.nodes"] += result.nodes


def _count_reduce(counts, fn, args, kwargs, result):
    counts["reduction.gadget_vertices"] += result.graph.n


def _count_transfer(counts, fn, args, kwargs, result):
    counts["transfer.audit_records"] += len(result[1].records)


def _count_symbolic(counts, fn, args, kwargs, result):
    n = _arg(fn, args, kwargs, "pattern").n
    counts["matrix.fill_positions"] += len(result[0])
    counts["matrix.factor_nnz"] += result[1]
    counts["matrix.symbolic_factor.bytes_computed"] += n * n


_COUNTERS = {
    "elimination_fill": _count_elimination,
    "greedy_minfill_heuristic": _count_elimination,
    "greedy_ordering": _count_ordering,
    "exact_fillin_branch": _count_branch,
    "exact_vertex_cover": _count_vc,
    "reduce_primitive": _count_reduce,
    "reduce_colored": _count_reduce,
    "vc_via_fillin": _count_transfer,
    "vc_via_completion": _count_transfer,
    "symbolic_factor": _count_symbolic,
}


class Tracer:
    """In-memory span store; spans are ``(name_id, start_ns, end_ns, parent, op_id)``."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list = []
        self.counts: dict[str, int] = defaultdict(int)
        self.current = -1
        self.layer = None
        self.op_id = -1
        self._patches: list = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def reset(self) -> None:
        self.spans = []
        self.counts = defaultdict(int)
        self.current = -1
        self.layer = None

    # -- op spans ------------------------------------------------------------

    def begin_op(self, op_id: int) -> int:
        self.op_id = op_id
        idx = len(self.spans)
        self.spans.append((self.name_id("op"), time.perf_counter_ns(), 0, -1, op_id))
        self.current = idx
        self.layer = "bench"
        return idx

    def end_op(self, idx: int) -> None:
        name, start, _, parent, op_id = self.spans[idx]
        self.spans[idx] = (name, start, time.perf_counter_ns(), parent, op_id)
        self.current = -1
        self.layer = None

    # -- wrapping --------------------------------------------------------------

    def _wrap(self, layer: str, fn, span_name: str | None):
        tracer = self
        perf = time.perf_counter_ns
        flat = layer == "bits"
        fixed = None if span_name is None else self.name_id(span_name)
        count = _COUNTERS.get(fn.__name__)

        def traced(*args, **kwargs):
            if flat and tracer.layer == "bits":
                return fn(*args, **kwargs)
            if fixed is None:  # greedy games are named by their strategy
                name = tracer.name_id("solvers.greedy." + str(_arg(fn, args, kwargs, "strategy")))
            else:
                name = fixed
            spans = tracer.spans
            parent, outer = tracer.current, tracer.layer
            idx = len(spans)
            spans.append(None)
            tracer.current, tracer.layer = idx, layer
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                tracer.current, tracer.layer = parent, outer
                spans[idx] = (name, start, end, parent, tracer.op_id)
            if count is not None:
                count(tracer.counts, fn, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self) -> None:
        """Wrap every public layer function at every binding, and the class methods above."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer, mod in LAYERS.items():
            for attr, fn in vars(mod).items():
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__
                    or inspect.isgeneratorfunction(fn)
                ):
                    continue
                span = None if attr in _GREEDY else _RENAMED.get(attr, f"{layer}.{attr}")
                wrappers[id(fn)] = self._wrap(layer, fn, span)
        for mod in _BINDING_MODULES:
            for attr, val in list(vars(mod).items()):
                wrapper = wrappers.get(id(val))
                if wrapper is not None:
                    self._patches.append((mod, attr, val))
                    setattr(mod, attr, wrapper)
        for prefix, cls, attrs in _METHODS:
            layer = prefix.split(".")[0]
            for attr in attrs:
                original = cls.__dict__[attr]
                self._patches.append((cls, attr, original))
                if isinstance(original, classmethod):
                    wrapped = self._wrap(layer, original.__func__, prefix + attr)
                    setattr(cls, attr, classmethod(wrapped))
                else:
                    setattr(cls, attr, self._wrap(layer, original, prefix + attr))

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches = []

    # -- derived metrics -----------------------------------------------------

    def span_table(self) -> np.ndarray:
        return np.asarray(self.spans, dtype=np.int64).reshape(-1, 5)

    def self_times(self) -> tuple[dict[str, int], dict[str, float]]:
        """Calls and summed self seconds per span name."""
        table = self.span_table()
        k = len(self.names)
        dur = table[:, 2] - table[:, 1]
        child = np.zeros(table.shape[0], dtype=np.int64)
        has_parent = table[:, 3] >= 0
        np.add.at(child, table[has_parent, 3], dur[has_parent])
        own = dur - child
        calls = np.bincount(table[:, 0], minlength=k)
        self_ns = np.bincount(table[:, 0], weights=own, minlength=k)
        return (
            {name: int(calls[i]) for i, name in enumerate(self.names)},
            {name: float(self_ns[i]) * 1e-9 for i, name in enumerate(self.names)},
        )

    def layer_metrics(self) -> dict[str, float]:
        """Per-span calls and self seconds, per-layer self seconds, and work counts."""
        calls, own = self.self_times()
        out: dict[str, float] = {}
        for name in self.names:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = own[name]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(v for k, v in own.items() if k.startswith(layer + "."))
        out.update(self.counts)
        branch_calls = calls.get("solvers.branch", 0)
        if branch_calls:
            cut = self.counts.get("solvers.branch.budget_cut", 0)
            out["solvers.branch.complete_frac"] = (branch_calls - cut) / branch_calls
        return out

    def write_spans(self, path) -> None:
        """Compressed .npz: span columns, times in ns from the first span, and the names."""
        table = self.span_table()
        t0 = int(table[:, 1].min()) if table.size else 0
        np.savez_compressed(
            path,
            name=table[:, 0].astype(np.int32),
            start_ns=table[:, 1] - t0,
            end_ns=table[:, 2] - t0,
            parent=table[:, 3],
            op=table[:, 4].astype(np.int32),
            names=np.array(self.names),
        )
