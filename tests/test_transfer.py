import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import fillinlab
from fillinlab.chordal import elimination_fill_codes
from fillinlab.errors import GraphInputError
from fillinlab.graph import Graph
from fillinlab.generate import random_subcubic
from fillinlab.reduction import brooks_coloring, reduce_colored
from fillinlab.report import IneqRecord
from fillinlab.transfer import (
    RatioAudit,
    TransferConfig,
    audit_report,
    exact_backed_completion,
    exact_backed_fillin,
    heuristic_backed_completion,
    heuristic_backed_fillin,
    vc_via_completion,
    vc_via_fillin,
)

from .conftest import bridge_chain_cubic, bridged_cubic


class TestConfig:
    def test_b_defaults_to_inverse_ceiling(self):
        assert TransferConfig(epsilon=Fraction(1, 2)).b == 2
        assert TransferConfig(epsilon=Fraction(1, 4)).b == 4
        assert TransferConfig(epsilon=Fraction(2, 5)).b == 3

    def test_alpha_values(self):
        assert TransferConfig(epsilon=Fraction(1, 2)).alpha == Fraction(7, 6)
        comp = TransferConfig(epsilon=Fraction(1, 2), mode="completion")
        assert comp.alpha == 1 + Fraction(1, 4) / 270

    def test_epsilon_range(self):
        with pytest.raises(GraphInputError):
            TransferConfig(epsilon=Fraction(3, 2))
        with pytest.raises(GraphInputError):
            TransferConfig(epsilon=0)

    @pytest.mark.parametrize("params", [{"d": 4.0}, {"b": 2.5}])
    def test_non_integer_parameters_rejected(self, params):
        (name,) = params
        with pytest.raises(GraphInputError, match=f"{name} must be an integer"):
            TransferConfig(epsilon="1/2", **params)

    def test_b_must_cover_inverse(self):
        with pytest.raises(GraphInputError):
            TransferConfig(epsilon=Fraction(1, 4), b=3)

    def test_target_below_one_plus_eps(self):
        for eps in (Fraction(1, 2), Fraction(1, 4), Fraction(9, 10)):
            assert (1 + eps / 3) * (1 + eps / 2) <= 1 + eps

    def test_size_constant(self):
        cfg = TransferConfig(epsilon=Fraction(1, 2), d=3)
        assert cfg.size_constant == 10  # (2 + 1) * 3 + 1


class TestFillinPipeline:
    def test_c6_exact_backed(self, graphs):
        cfg = TransferConfig(epsilon=Fraction(1, 2), d=3)
        cover, audit = vc_via_fillin(graphs["c6"], exact_backed_fillin, cfg)
        assert len(cover) == 3 and audit.tau == 3
        assert audit.ratio == 1 and audit.gate and audit.passed
        names = [r.name for r in audit.records]
        assert "final_ratio" in names and "cover_accounting" in names

    def test_heuristic_backed_unconditional(self, graphs):
        cfg = TransferConfig(epsilon=Fraction(1, 2), d=3)
        cover, audit = vc_via_fillin(
            graphs["c6"], heuristic_backed_fillin("min-fill"), cfg
        )
        bn = cfg.b * graphs["c6"].n
        assert len(cover) <= Fraction(audit.fill_size, bn)
        assert audit.passed

    def test_random_ordering_procedure(self, rng):
        # any valid-fill producer can be plugged in
        cfg = TransferConfig(epsilon=Fraction(1, 2), d=3)
        g = random_subcubic(8, rng)
        if g.m == 0:
            pytest.skip("degenerate sample")

        def procedure(inst):
            return elimination_fill_codes(inst.graph, rng.permutation(inst.graph.n))

        cover, audit = vc_via_fillin(g, procedure, cfg)
        assert audit.passed

    def test_edgeless_degenerate(self):
        cfg = TransferConfig(epsilon=Fraction(1, 2), d=3)
        cover, audit = vc_via_fillin(Graph.build(3), exact_backed_fillin, cfg)
        assert cover == frozenset() and audit.passed

    def test_invalid_procedure_rejected(self, graphs):
        cfg = TransferConfig(epsilon=Fraction(1, 2), d=3)
        with pytest.raises(GraphInputError, match="invalid fill-in"):
            vc_via_fillin(graphs["c6"], lambda inst: [(0, 1)], cfg)

    @pytest.mark.parametrize("output", [None, 7], ids=["none", "int"])
    def test_non_iterable_output_is_an_invalid_fill_in(self, graphs, output):
        cfg = TransferConfig(epsilon=Fraction(1, 2), d=3)
        with pytest.raises(GraphInputError, match="^invalid fill-in: invalid_pair"):
            vc_via_fillin(graphs["c6"], lambda inst: output, cfg)

    def test_degree_precondition(self, graphs):
        cfg = TransferConfig(epsilon=Fraction(1, 2), d=3)
        with pytest.raises(GraphInputError, match="degree"):
            vc_via_fillin(graphs["star5"], exact_backed_fillin, cfg)

    def test_clique_precondition(self, graphs):
        cfg = TransferConfig(epsilon=Fraction(1, 2), d=3)
        with pytest.raises(GraphInputError, match="strip"):
            vc_via_fillin(graphs["k4"], exact_backed_fillin, cfg)

    def test_mode_mismatch(self, graphs):
        cfg = TransferConfig(epsilon=Fraction(1, 2), d=3, mode="completion")
        with pytest.raises(GraphInputError, match="mode"):
            vc_via_fillin(graphs["c6"], exact_backed_fillin, cfg)


class TestCompletionPipeline:
    def test_prism_exact_backed(self, graphs):
        cfg = TransferConfig(epsilon=Fraction(1, 2), d=3, mode="completion")
        cover, audit = vc_via_completion(graphs["prism"], exact_backed_completion, cfg)
        assert len(cover) == audit.tau == 4
        assert audit.passed and audit.gate

    def test_edge_bound_counts(self, graphs):
        # b=2, d=3, n=6 gadget: edge count stays under b^2 d^2 n^2 = 1296
        cfg = TransferConfig(epsilon=Fraction(1, 2), d=3, mode="completion")
        col = brooks_coloring(graphs["prism"], 3)
        inst = reduce_colored(graphs["prism"], cfg.b, col)
        m_expected = (
            graphs["prism"].m
            + math.comb(2 * 3 * 6, 2)
            + 6 * (2 * 3 * 6 - 2 * 6)
        )
        assert inst.graph.m == m_expected == 783
        assert inst.graph.m < cfg.b**2 * 3**2 * 6**2 == 1296
        cover, audit = vc_via_completion(graphs["prism"], exact_backed_completion, cfg)
        rec = next(r for r in audit.records if r.name == "gadget_edge_bound")
        assert rec.passed and rec.lhs == 783 and rec.rhs == 1296

    def test_non_supergraph_rejected(self, graphs):
        cfg = TransferConfig(epsilon=Fraction(1, 2), d=3, mode="completion")
        with pytest.raises(GraphInputError, match="supergraph"):
            vc_via_completion(
                graphs["c6"], lambda inst: Graph.build(inst.graph.n), cfg
            )

    def test_non_chordal_output_rejected(self, graphs):
        cfg = TransferConfig(epsilon=Fraction(1, 2), d=3, mode="completion")
        with pytest.raises(GraphInputError, match="not chordal"):
            vc_via_completion(graphs["c6"], lambda inst: inst.graph, cfg)

    def test_non_chordal_output_names_is_chordals_hole(self):
        """The 14-cycle's gadget has 70 vertices in 16 twin classes, so the
        check scans the quotient first; the message still names the hole
        that ``is_chordal`` finds in the whole output."""
        from fillinlab.chordal import is_chordal
        from fillinlab.generate import cycle
        from fillinlab.graph import twin_classes

        outputs = []
        cfg = TransferConfig(epsilon=Fraction(1, 2), d=3, mode="completion")
        with pytest.raises(GraphInputError, match="not chordal") as err:
            vc_via_completion(cycle(14), lambda inst: outputs.append(inst.graph) or inst.graph, cfg)
        (h,) = outputs
        assert h.n > 64 and 2 * twin_classes(h.packed_rows())[0].size <= h.n
        assert str(err.value).endswith(f"hole {is_chordal(h)[1].cycle}")

    def test_heuristic_backed(self, graphs):
        cfg = TransferConfig(epsilon=Fraction(1, 4), d=3, mode="completion")
        cover, audit = vc_via_completion(
            graphs["prism"], heuristic_backed_completion("min-degree"), cfg
        )
        assert audit.passed

    def test_cubic_eight_vertex_slack_per_line(self):
        from fillinlab.generate import random_regular
        from fillinlab.reduction import find_forbidden_clique

        g = next(
            random_regular(8, 3, seed)
            for seed in range(20)
            if find_forbidden_clique(random_regular(8, 3, seed), 3) is None
        )
        cfg = TransferConfig(epsilon=Fraction(1, 2), d=3, mode="completion")
        cover, audit = vc_via_completion(g, exact_backed_completion, cfg)
        assert audit.passed and audit.gate and len(cover) == audit.tau
        for rec in audit.records:
            assert rec.slack is not None  # every line reports its slack

    def test_edgeless_degenerate(self):
        cfg = TransferConfig(epsilon=Fraction(1, 2), d=3, mode="completion")
        cover, audit = vc_via_completion(Graph.build(4), exact_backed_completion, cfg)
        assert cover == frozenset() and audit.passed


class TestAuditSoundness:
    def test_exact_backed_sweep(self, rng):
        for eps in (Fraction(1, 2), Fraction(1, 4)):
            fill_cfg = TransferConfig(epsilon=eps, d=3)
            comp_cfg = TransferConfig(epsilon=eps, d=3, mode="completion")
            for _ in range(8):
                g = random_subcubic(int(rng.integers(6, 13)), rng)
                if g.m == 0:
                    continue
                cover, audit = vc_via_fillin(g, exact_backed_fillin, fill_cfg)
                assert audit.passed and len(cover) == audit.tau
                cover, audit = vc_via_completion(g, exact_backed_completion, comp_cfg)
                assert audit.passed and len(cover) == audit.tau

    def test_gadget_size_within_constant(self, rng):
        cfg = TransferConfig(epsilon=Fraction(1, 4), d=3)
        g = random_subcubic(10, rng)
        if g.m == 0:
            pytest.skip("degenerate sample")
        cover, audit = vc_via_fillin(g, exact_backed_fillin, cfg)
        rec = next(r for r in audit.records if r.name == "gadget_size")
        assert rec.passed
        assert audit.gadget_n <= cfg.size_constant * g.n


@pytest.mark.parametrize("graph", [bridged_cubic, bridge_chain_cubic])
@pytest.mark.parametrize(
    "pipeline, procedure, mode",
    [
        (vc_via_fillin, exact_backed_fillin, "fillin"),
        (vc_via_completion, exact_backed_completion, "completion"),
    ],
)
def test_bridged_cubic_keeps_d_colors(graph, pipeline, procedure, mode):
    """Bridges leave no (u, a, b) start for the colouring; the cut-vertex
    case still uses d colours, so no note qualifies the audit and both
    chains run to their final ratio."""
    cfg = TransferConfig(epsilon=Fraction(1, 2), d=3, mode=mode)
    cover, audit = pipeline(graph(), procedure, cfg)
    assert audit.q <= 3 and audit.notes == []
    assert audit.passed and audit.gate and len(cover) == audit.tau
    assert any(r.name == "final_ratio" for r in audit.records)


class TestAuditReport:
    def _empty_audit(self):
        return RatioAudit(
            instance={"name": "", "n": 0, "m": 0, "hash": ""},
            mode="fillin",
            epsilon=Fraction(1, 2),
            b=2,
            d=3,
            q=1,
            alpha=Fraction(7, 6),
            cover_size=0,
            tau=0,
            ratio=None,
            gate=False,
        )

    def test_empty(self):
        text = audit_report(self._empty_audit())
        assert "PASS" in text and "FAIL" not in text

    def test_single_passing_line(self):
        audit = self._empty_audit()
        audit.add(IneqRecord("demo", 1, 2, "<=", True))
        text = audit_report(audit)
        assert text.count("PASS  demo") == 1

    def test_failing_record_marks_audit(self):
        audit = self._empty_audit()
        audit.add(IneqRecord("demo", 3, 2, "<=", False))
        assert not audit.passed
        assert "FAIL" in audit_report(audit)
        assert audit.to_json()["pass"] is False

    def test_json_is_stable_and_exact(self):
        audit = self._empty_audit()
        audit.add(IneqRecord("demo", Fraction(1, 3), Fraction(1, 2), "<", True))
        data = audit.to_json()
        assert data["inequalities"][0]["lhs"] == "1/3"
        assert data["epsilon"] == "1/2"
        assert json.dumps(data, indent=2) == json.dumps(audit.to_json(), indent=2)


# Recorded with two separate transfer pipelines; the shared pipeline must
# reproduce every audit report byte for byte.
AUDIT_DIGEST = "f10e6c014a1a2312eff546debdffee033f3473bd2baa28c3754dd9ab2e3d421f"


def test_audit_report_identity_digest():
    """Text and JSON audit reports for both modes, exact- and heuristic-backed
    procedures, and eps in {1/2, 1/3}, over seeded subcubic graphs."""
    procedures = {
        "fillin": (vc_via_fillin, exact_backed_fillin, heuristic_backed_fillin("min-fill")),
        "completion": (
            vc_via_completion,
            exact_backed_completion,
            heuristic_backed_completion("min-fill"),
        ),
    }
    rng = np.random.default_rng(7373)
    graphs = [random_subcubic(n, rng) for n in (5, 6, 8, 10)]
    graphs.append(Graph.build(5, [(0, 1), (1, 2)]))  # isolated vertices
    graphs.append(Graph.build(3))  # empty optimum cover
    digest = hashlib.sha256()
    count = 0
    for eps in (Fraction(1, 2), Fraction(1, 3)):
        for mode, (pipeline, *procs) in procedures.items():
            cfg = TransferConfig(epsilon=eps, d=3, mode=mode)
            for g in graphs:
                for proc in procs:
                    cover, audit = pipeline(g, proc, cfg)
                    digest.update(json.dumps(sorted(cover)).encode())
                    digest.update(audit_report(audit).encode())
                    digest.update(json.dumps(audit.to_json(), indent=2).encode())
                    count += 1
    assert count == 2 * 2 * 6 * 2
    assert digest.hexdigest() == AUDIT_DIGEST


def test_audits_read_one_filled_gadget():
    """Certificates reach the transfer as filled gadgets: ``transfer`` neither
    verifies pairs nor counts bits itself, ``reduction`` never rebuilds a
    filled gadget from pairs, and one function raises on an invalid fill-in."""
    package = Path(fillinlab.__file__).parent
    transfer_src = (package / "transfer.py").read_text()
    reduction_src = (package / "reduction.py").read_text()
    assert [t for t in ("_bits", "verify_fillin") if t in transfer_src] == []
    assert ".add_edges(" not in reduction_src
    raisers = [p.name for p in sorted(package.glob("*.py")) if '"invalid fill-in' in p.read_text()]
    assert raisers == ["reduction.py"] and reduction_src.count('"invalid fill-in') == 1
