import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import fillinlab
from fillinlab.graph import Graph
from fillinlab.report import IneqRecord, RunReport, check, instance_descriptor


class TestIneqRecord:
    def test_check_evaluates_ops(self):
        assert check("a", 1, 2, "<").passed
        assert not check("a", 2, 2, "<").passed
        assert check("a", 2, 2, "<=").passed
        assert check("a", 2, 2, "==").passed
        assert check("a", 3, 2, ">").passed
        assert not check("a", 1, 2, ">=").passed

    def test_slack(self):
        assert check("a", 3, 10).slack == 7
        assert check("a", Fraction(1, 3), Fraction(1, 2), "<").slack == Fraction(1, 6)

    def test_line_format(self):
        rec = check("bound", 4, 8, "<", note="window")
        line = rec.line()
        assert line.startswith("PASS") and "bound" in line and "[window]" in line
        assert "slack 4" in line

    def test_json_fractions_exact(self):
        rec = IneqRecord("r", Fraction(7, 6), Fraction(3, 2), "<", True)
        blob = rec.to_json()
        assert blob["lhs"] == "7/6" and blob["rhs"] == "3/2" and blob["slack"] == "1/3"

    def test_json_integral_fraction_collapses(self):
        rec = IneqRecord("r", Fraction(4, 2), 3, "<", True)
        assert rec.to_json()["lhs"] == 2


class TestRunReport:
    def test_verdict_follows_checks(self):
        rep = RunReport(command="demo")
        assert rep.verdict == "PASS"
        rep.add(check("ok", 1, 2, "<"))
        assert rep.verdict == "PASS"
        rep.add(check("bad", 5, 2, "<"))
        assert rep.verdict == "FAIL"

    def test_dumps_stable(self):
        rep = RunReport(command="demo", params={"b": 2, "a": 1})
        rep.add(check("x", 1, 1, "=="))
        assert rep.dumps() == rep.dumps()
        data = json.loads(rep.dumps())
        assert list(data["params"]) == ["a", "b"]  # sorted for stability

    def test_sequence_outputs_are_json_arrays(self):
        rep = RunReport(command="demo", outputs={"order": [2, 0, 1], "pair": (Fraction(1, 2), 3)})
        data = json.loads(rep.dumps())
        assert data["outputs"] == {"order": [2, 0, 1], "pair": ["1/2", 3]}

    def test_timings_default_null(self):
        rep = RunReport(command="demo")
        assert json.loads(rep.dumps())["timings"] is None

    def test_summary_lines(self):
        rep = RunReport(command="demo")
        rep.add(check("x", 1, 2, "<"))
        lines = list(rep.summary_lines())
        assert lines[0].startswith("== demo: PASS")
        assert len(lines) == 2


def test_instance_descriptor_round():
    g = Graph.build(3, [(0, 1)])
    d = instance_descriptor(g, "tiny")
    assert d["n"] == 3 and d["m"] == 1 and d["name"] == "tiny"
    assert d["hash"] == g.content_hash()


def _dumps_cases():
    """Reports whose certificates and outputs hold every form the array writer
    must tell apart: integer arrays it writes by one format call (non-empty 1-D
    and 2-D signed and unsigned arrays, in a dict or a list), and values it
    hands to ``json`` (int lists; bool, float, empty, column-less and 3-D arrays
    as lists; bools are ints to Python, NumPy ints are not JSON)."""
    big = 2**63
    yield RunReport(command="empty", outputs={"none": [], "pairs": [[], []]}, certificates={"fillin": []})
    yield RunReport(
        command="pairs",
        instance={"edges": [[0, 1], [1, 2], [0, 2]], "n": 3},
        outputs={"ordering": [2, 0, 1], "wide": [(1, 2, 3), [4, 5, 6]]},
        certificates={"fillin": [[0, 2]], "cover": [1], "ragged": [[0, 1], [2]]},
    )
    yield RunReport(
        command="bools",
        outputs={"flags": [True, False, 1], "pair": [[True, 1], [0, 1]], "flag": True},
        certificates={"peo": [1, True, 0]},
    )
    yield RunReport(
        command="big",
        outputs={"ids": [big, -big - 1, 2**70, 0], "pairs": [[big, 1], [-(2**64), 3]]},
        certificates={"hole": [big + 5, 1, 2, 3]},
    )
    yield RunReport(
        command="fractions",
        params={"eps": Fraction(1, 2), "whole": Fraction(4, 2)},
        outputs={"ratio": [Fraction(3, 2), 1, Fraction(2, 1)], "pair": (Fraction(1, 3), 3)},
    )
    yield RunReport(
        command="mixed",
        instance={"name": "a\nb é", "nested": {"k": [1, [2, 3]], "f": 1.5, "x": None}},
        outputs={"mixed": [1, "two", 3.0, None, [4], {"five": 5}], "nan": float("nan")},
        certificates={"keys": {1: [0, 1], "s": [2]}, "empty": {}, "deep": [[[0, 1]], [[2, 3]]]},
        notes=["one", "two"],
    )
    yield RunReport(
        command="arrays",
        instance={"edges": np.array([[0, 1], [1, 2]]), "n": 3},
        outputs={
            "ordering": np.array([2, 0, 1]),
            "none": np.array([], dtype=np.int64),
            "wide": np.arange(6).reshape(2, 3),
            "limits": np.array([np.iinfo(np.int64).min, np.iinfo(np.int64).max]),
            "pair": (np.array([1, 2]), Fraction(1, 2)),
        },
        certificates={
            "fillin": np.zeros((0, 2), dtype=np.int64),
            "bytes": np.array([[0, 255], [7, 8]], dtype=np.uint8),
            "top": np.array([2**64 - 1], dtype=np.uint64),
            "flags": np.array([True, False]),
            "nested": [np.array([4, 5]), [np.array([[6, 7]])], {"in": np.array([8])}],
            "no_columns": np.zeros((2, 0), dtype=np.int64),
            "cube": np.arange(8).reshape(2, 2, 2),
            "floats": np.array([0.5, 2.0]),
        },
    )


@pytest.mark.parametrize("report", list(_dumps_cases()), ids=lambda r: r.command)
def test_dumps_matches_json_indent_2(report):
    report.add(check("c", Fraction(1, 3), 1, "<", note="n"))
    assert report.dumps() == json.dumps(report.to_json(), indent=2)


def test_dumps_rejects_what_json_rejects():
    """A value JSON cannot hold raises json's own error, at any depth."""
    for value in (np.int64(3), [np.int64(3)], [[0, np.int64(1)]], Fraction(1, 2)):
        rep = RunReport(command="bad", certificates={"x": value})
        with pytest.raises(TypeError) as want:
            json.dumps(rep.to_json(), indent=2)
        with pytest.raises(TypeError) as got:
            rep.dumps()
        assert str(got.value) == str(want.value)


def test_dumps_matches_json_on_seeded_reports():
    """Seeded nested values: int arrays, pair arrays of every width, bools,
    ints past int64, floats, strings, tuples, dicts with str and other keys;
    then the same with NumPy arrays of 1-3 dimensions and several dtypes mixed in."""
    rng = np.random.default_rng(3030)
    scalars = [0, -5, 2**64, -(2**70), True, False, None, 1.5, float("inf"), "q\"\n", "", 7]
    dtypes = [np.int64, np.int64, np.int32, np.uint8, np.uint64, np.bool_, np.float64]

    def array():
        shape = [int(rng.integers(0, 4)) for _ in range(int(rng.integers(1, 4)))]
        values = rng.integers(-(2**62), 2**62, size=shape)
        return values.astype(dtypes[int(rng.integers(len(dtypes)))])

    def value(depth):
        kind = int(rng.integers(kinds)) if depth < 4 else 0
        if kind >= 7:
            return array()
        size = int(rng.integers(0, 5))
        if kind == 0:
            return scalars[int(rng.integers(len(scalars)))]
        if kind == 1:
            return [int(x) for x in rng.integers(-3, 2**62, size=size)]
        if kind == 2:
            width = int(rng.integers(0, 4))
            return [[int(x) for x in rng.integers(-3, 9, size=width)] for _ in range(size)]
        if kind == 3:
            return tuple(value(depth + 1) for _ in range(size))
        if kind == 4:
            keys = [["a", "b"], ["x"], [1, "y"], [None, 2.5]][int(rng.integers(4))]
            return {k: value(depth + 1) for k in keys}
        return [value(depth + 1) for _ in range(size)]

    for kinds in (7, 9):
        for _ in range(400):
            rep = RunReport(command="seeded", outputs={"v": value(0)}, certificates={"c": value(0)})
            assert rep.dumps() == json.dumps(rep.to_json(), indent=2)


def test_dumps_writes_a_large_certificate_as_json_does():
    """As int64 arrays and as the lists they hold: json's bytes, the same for both."""
    rng = np.random.default_rng(7)
    fill = rng.integers(0, 5000, size=(20_000, 2))
    texts = []
    for ordering, pairs in ((np.arange(5000), fill), (list(range(5000)), fill.tolist())):
        rep = RunReport(command="large", outputs={"ordering": ordering}, certificates={"fillin": pairs})
        texts.append(rep.dumps())
        assert texts[-1] == json.dumps(rep.to_json(), indent=2)
    assert texts[0] == texts[1]


def test_dumps_with_a_string_like_its_slot():
    """A report string equal to the stand-in for an integer array still gives json's bytes."""
    from fillinlab.report import _SLOT

    rep = RunReport(command=_SLOT, outputs={"ordering": [2, 0, 1], _SLOT: [[0, 1]]}, notes=[_SLOT])
    assert rep.dumps() == json.dumps(rep.to_json(), indent=2)


def test_reports_take_integer_arrays_as_they_are():
    """``cli`` hands its arrays to reports as they are, and ``report`` finds integer
    arrays by their type: no ``.tolist()`` in ``cli``, no element-type scan in ``report``."""
    package = Path(fillinlab.__file__).parent
    banned = {"cli.py": (".tolist(",), "report.py": ("def _all_ints", "def _int_rows", "map(type")}
    offenders = [
        f"{name}: {token!r}"
        for name, tokens in banned.items()
        for token in tokens
        if token in (package / name).read_text()
    ]
    assert not offenders
