"""Machine-readable run reports.

A report is self-contained: it embeds the instance descriptor with a content
hash, every checked inequality with both sides and the slack, and any
certificates, so a consumer can re-check it offline.  Serialization is
deterministic; wall-clock timings default to null so that identical
(command, inputs, seed) runs emit byte-identical JSON, and are filled in
only on request.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

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
    if isinstance(x, (bool, int, str)) or x is None:
        return x
    if isinstance(x, (list, tuple)):
        return [_num_to_json(v) for v in x]
    return str(x)


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

    def to_json(self) -> dict:
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

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=False)

    def summary_lines(self):
        yield f"== {self.command}: {self.verdict} ({len(self.checks)} checks)"
        for r in self.checks:
            yield "   " + r.line()
