import json
from fractions import Fraction

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
