"""Machine-readable run reports.

A report is self-contained: it embeds the instance descriptor with a content
hash, every checked inequality with both sides and the slack, and any
certificates, so a consumer can re-check it offline.  Serialization is
deterministic; wall-clock timings default to null so that identical
(command, inputs, seed) runs emit byte-identical JSON, and are filled in
only on request.  A report holds NumPy arrays as they are: ``RunReport.to_json``
gives them as nested lists, and ``RunReport.dumps`` gives the bytes of
``json.dumps(report.to_json(), indent=2)``, one integer per line, but writes
each 1-D or 2-D integer array (orderings, edge lists, certificates) from the
array by one format call, with no lists made of it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .graph import Graph

_OPS = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    "==": lambda a, b: a == b,
    ">=": lambda a, b: a >= b,
    ">": lambda a, b: a > b,
}


def _num_to_json(x):
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    if isinstance(x, (bool, int, str, np.ndarray)) or x is None:
        return x
    if isinstance(x, (list, tuple)):
        return [_num_to_json(v) for v in x]
    return str(x)


#: Stands in for one integer array while ``json`` lays out the rest of a report;
#: ``json`` writes it as ``_SLOT_TEXT``.
_SLOT = "\x00int-array\x00"
_SLOT_TEXT = json.dumps(_SLOT)


def _int_array(array: np.ndarray, indent: str) -> str:
    """``json.dumps(array.tolist(), indent=2)`` nested at ``indent``, by one format
    call, for a non-empty 1-D or 2-D integer array."""
    inner = indent + "  "
    item = "%d"
    if array.ndim == 2:
        item = "[\n" + inner + "  " + (",\n" + inner + "  ").join([item] * array.shape[1]) + "\n" + inner + "]"
    text = (",\n" + inner).join([item] * len(array)) % tuple(array.ravel().tolist())
    return "[\n" + inner + text + "\n" + indent + "]"


def _lift(obj, arrays: list | None):
    """``obj`` as JSON values, each NumPy array as nested lists; but with ``arrays``,
    each non-empty 1-D or 2-D integer array is replaced by ``_SLOT`` and appended to
    ``arrays`` as it is, in the order ``json`` writes them."""
    if isinstance(obj, dict):
        return {k: _lift(v, arrays) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_lift(v, arrays) for v in obj]
    if not isinstance(obj, np.ndarray):
        return obj
    if arrays is None or obj.dtype.kind not in "iu" or obj.ndim not in (1, 2) or not obj.size:
        return obj.tolist()
    arrays.append(obj)
    return _SLOT


def _encode(obj) -> str:
    """``json.dumps(_lift(obj, None), indent=2)``, byte for byte: ``json`` lays out the
    text with each integer array lifted out, and ``_int_array`` writes each array at
    the indent of the line that holds its slot."""
    arrays = []
    parts = json.dumps(_lift(obj, arrays), indent=2).split(_SLOT_TEXT)
    if len(parts) != len(arrays) + 1:  # a string of the report holds the slot's text
        return json.dumps(_lift(obj, None), indent=2)
    out = [parts[0]]
    for array, before, after in zip(arrays, parts, parts[1:]):
        line = before[before.rfind("\n") + 1 :]
        out += [_int_array(array, " " * (len(line) - len(line.lstrip(" ")))), after]
    return "".join(out)


@dataclass(frozen=True)
class IneqRecord:
    """One checked relation lhs <op> rhs, with its outcome."""

    name: str
    lhs: object
    rhs: object
    op: str = "<="
    passed: bool = True
    note: str = ""

    @property
    def slack(self):
        try:
            return self.rhs - self.lhs
        except TypeError:
            return None

    def to_json(self) -> dict:
        out = {
            "name": self.name,
            "lhs": _num_to_json(self.lhs),
            "rhs": _num_to_json(self.rhs),
            "op": self.op,
            "pass": self.passed,
            "slack": _num_to_json(self.slack),
        }
        if self.note:
            out["note"] = self.note
        return out

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        note = f"  [{self.note}]" if self.note else ""
        return f"{tag}  {self.name}: {self.lhs} {self.op} {self.rhs}  (slack {self.slack}){note}"


def check(name: str, lhs, rhs, op: str = "<=", note: str = "") -> IneqRecord:
    """Evaluate lhs <op> rhs and record the outcome."""
    return IneqRecord(name, lhs, rhs, op, bool(_OPS[op](lhs, rhs)), note)


def instance_descriptor(graph: Graph, name: str = "") -> dict:
    return {"name": name, "n": graph.n, "m": graph.m, "hash": graph.content_hash()}


@dataclass
class RunReport:
    """Record of one command or verification run."""

    command: str
    instance: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)
    checks: list[IneqRecord] = field(default_factory=list)
    certificates: dict = field(default_factory=dict)
    timings: dict | None = None
    notes: list[str] = field(default_factory=list)

    def add(self, record: IneqRecord) -> IneqRecord:
        self.checks.append(record)
        return record

    def extend(self, records) -> None:
        self.checks.extend(records)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.checks)

    @property
    def verdict(self) -> str:
        return "PASS" if self.passed else "FAIL"

    def _fields(self) -> dict:
        """The report as JSON values, except that NumPy arrays stay arrays."""
        return {
            "command": self.command,
            "instance": self.instance,
            "params": {k: _num_to_json(v) for k, v in sorted(self.params.items())},
            "outputs": {k: _num_to_json(v) for k, v in sorted(self.outputs.items())},
            "checks": [r.to_json() for r in self.checks],
            "certificates": self.certificates,
            "timings": self.timings,
            "notes": self.notes,
            "verdict": self.verdict,
        }

    def to_json(self) -> dict:
        """The report as plain JSON values: each NumPy array as nested lists."""
        return _lift(self._fields(), None)

    def dumps(self) -> str:
        """``json.dumps(self.to_json(), indent=2)``, byte for byte, from the arrays as
        they are: each 1-D or 2-D integer array is written by one format call."""
        return _encode(self._fields())

    def summary_lines(self):
        yield f"== {self.command}: {self.verdict} ({len(self.checks)} checks)"
        for r in self.checks:
            yield "   " + r.line()
