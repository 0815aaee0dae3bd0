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

This module is also the one reader of the format: ``recheck`` takes a report as
``json.load`` gives it and re-derives everything it claims.  Each check is
evaluated again through ``check``, with both sides read as ``_num_to_json`` writes
a number (an int, a bool as 0/1, or a ``"p/q"`` string) and ``pass`` a JSON bool.
When the instance embeds its edges, its ``m`` and ``hash`` are recounted from them,
and each certificate in ``_CERTIFICATES`` is read once and checked against them.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .chordal import check_hole, check_peo, verify_fillin
from .errors import GraphInputError
from .graph import Graph, _id_array, _id_pairs, _vertex_ids, codes_hash
from .solvers import _covers

_OPS = {"<": operator.lt, "<=": operator.le, "==": operator.eq, ">=": operator.ge, ">": operator.gt}


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


def instance_descriptor(graph: Graph, name: str = "", codes: np.ndarray | None = None) -> dict:
    """The graph's name, size and content hash; a caller that holds the graph's sorted
    upper codes passes them as ``codes`` to have them hashed as they are."""
    digest = graph.content_hash() if codes is None else codes_hash(graph.n, codes)
    return {"name": name, "n": graph.n, "m": graph.m, "hash": digest}


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


# -- offline re-check ------------------------------------------------------------


def _number(x) -> Fraction:
    """One side of a check as ``_num_to_json`` writes a number: an int (a bool as
    0/1) or a ``"p/q"`` string.  Anything else raises ValueError, and a zero
    denominator ZeroDivisionError."""
    if isinstance(x, int) or (isinstance(x, str) and "/" in x):
        return Fraction(x)
    raise ValueError(f"{x!r} is not a number")


def _vertex_pairs(values) -> np.ndarray:
    """The pairs of a JSON array as an (m, 2) array, each id read once by ``graph._id_pairs``."""
    pairs, stop = _id_pairs(values)
    if stop:
        raise GraphInputError(f"{stop[0]!r} is not a pair of vertex ids")
    return pairs


def _read(reader, value, error: str):
    """``reader(value)`` for a JSON array; a GraphInputError with ``error`` for
    anything else, or for an array the reader refuses."""
    try:
        if isinstance(value, list):
            return reader(value)
    except GraphInputError:
        pass
    raise GraphInputError(error)


#: Certificate kind -> the reader of its JSON array, what the array holds, the check of
#: what was read against the instance graph, and the line when that check fails.
_CERTIFICATES = {
    "cover": (_vertex_ids, "ids", _covers, "embedded cover certificate does not cover the instance"),
    "fillin": (_vertex_pairs, "pairs", verify_fillin, "embedded fill-in certificate is not a valid fill-in"),
    "peo": (_id_array, "ids", check_peo, "embedded PEO certificate fails the definition"),
    "hole": (_id_array, "ids", check_hole, "embedded hole certificate fails the definition"),
}


def recheck(data, source: str) -> list[str]:
    """The problems found in a report, as ``json.load`` gives it, re-derived offline:
    a check whose relation or recorded outcome disagrees, a check that failed in the
    original run, an instance size or hash its edges do not give, and a certificate
    its checker refuses.  A value that is not a report raises GraphInputError naming
    ``source``."""
    if not isinstance(data, dict):
        raise GraphInputError(f"{source}: a report is a JSON object, not {type(data).__name__}")
    checks = data.get("checks", [])
    if not isinstance(checks, list):
        raise GraphInputError(f"{source}: checks is not a JSON array")
    problems = []
    for rec in checks:
        if not isinstance(rec, dict):
            raise GraphInputError(f"{source}: check {rec!r} is not a JSON object")
        if not isinstance(rec.get("op"), str) or rec["op"] not in _OPS:
            raise GraphInputError(f"{source}: check {rec.get('name')} has unknown op {rec.get('op')!r}")
        absent = [key for key in ("name", "lhs", "rhs", "pass") if key not in rec]
        if absent:
            raise GraphInputError(f"{source}: check {rec.get('name')} lacks {', '.join(absent)}")
        try:
            actual = check(rec["name"], _number(rec["lhs"]), _number(rec["rhs"]), rec["op"]).passed
        except (ValueError, ZeroDivisionError):
            raise GraphInputError(
                f"{source}: check {rec['name']} relates {rec['lhs']!r} and {rec['rhs']!r}, "
                "which are not both numbers"
            ) from None
        if rec["pass"].__class__ is not bool:
            raise GraphInputError(f"{source}: check {rec['name']} records pass={rec['pass']!r}, not a JSON bool")
        if actual != rec["pass"]:
            problems.append(f"check {rec['name']}: recorded pass={rec['pass']} but relation is {actual}")
        if not rec["pass"]:
            problems.append(f"check {rec['name']} failed in the original run")
    instance = data.get("instance") or {}
    if not isinstance(instance, dict):
        raise GraphInputError(f"{source}: instance is not a JSON object")
    edges = instance.get("edges")
    if edges is not None:
        if "n" not in instance:
            raise GraphInputError(f"{source}: instance has edges but no vertex count n")
        n = [instance["n"]] if isinstance(edges, list) else None  # edges that are no array: no n is read
        _read(_vertex_ids, n, f"{source}: instance needs an integer n and an edge array")
    certs = data.get("certificates") or {}
    if not isinstance(certs, dict):
        raise GraphInputError(f"{source}: certificates is not a JSON object")
    read = {}  # the table's kinds as read; any other kind need only be a JSON array
    for name, cert in certs.items():
        reader, holds = _CERTIFICATES.get(name, (list, "ids"))[:2]
        read[name] = _read(reader, cert, f"{source}: certificate {name} is not a JSON array of vertex {holds}")
    unchecked = [name for name in _CERTIFICATES if name in certs]
    if edges is None and unchecked:
        raise GraphInputError(f"{source}: certificate {unchecked[0]} cannot be re-checked: the instance has no edges")
    if edges is not None and (certs or "m" in instance or "hash" in instance):
        g = Graph.build(instance["n"], edges)
        for key, value in (("m", g.m), ("hash", g.content_hash())):  # equal and of one type: 4.0 or true is no m
            if key in instance and (type(instance[key]), instance[key]) != (type(value), value):
                problems.append(f"instance {key} is {instance[key]!r}, but its edges give {value!r}")
        for name in unchecked:
            *_, passes, failure = _CERTIFICATES[name]
            if not passes(g, read[name]):
                problems.append(failure)
    return problems
