import hashlib
import json
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fillinlab import _bits
from fillinlab.chordal import (
    HoleCertificate,
    PeoCertificate,
    certificate_from_json,
    certificate_to_json,
    check_hole,
    check_peo,
    elimination_fill,
    find_hole,
    is_chordal,
    is_split,
    mcs_ordering,
    verify_fillin,
)
from fillinlab.errors import GraphInputError
from fillinlab.graph import Graph

from .conftest import random_graph
from .oracles import (
    all_labeled_graphs,
    edge_set,
    elimination_fill_brute,
    find_holes_brute,
    is_chordal_brute,
    is_split_brute,
    min_fill_brute,
)


class TestMcs:
    def test_clique_every_ordering_is_peo(self, graphs):
        k = Graph.build(3, [(0, 1), (1, 2), (0, 2)])
        order = mcs_ordering(k)
        assert check_peo(k, order[::-1])
        for perm in permutations(range(3)):
            assert check_peo(k, perm)

    def test_edgeless_identity_tie_break(self):
        assert mcs_ordering(Graph.build(5)).tolist() == [0, 1, 2, 3, 4]

    def test_c4_reversed_order_fails_peo(self, graphs):
        order = mcs_ordering(graphs["c4"])[::-1]
        assert not check_peo(graphs["c4"], order)

    def test_deterministic(self, graphs):
        a = mcs_ordering(graphs["petersen"]).tolist()
        b = mcs_ordering(graphs["petersen"]).tolist()
        assert a == b


class TestCertificateCheckers:
    def test_peo_rejects_non_permutation(self, graphs):
        assert not check_peo(graphs["c4"], [0, 0, 1, 2])

    def test_peo_on_diamond_depends_on_start(self):
        diamond = Graph.build(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
        assert check_peo(diamond, [0, 3, 1, 2])
        assert not check_peo(diamond, [1, 0, 2, 3])  # 0 and 3 not adjacent

    def test_hole_checker(self, graphs):
        assert check_hole(graphs["c4"], (0, 1, 2, 3))
        assert not check_hole(graphs["c4"], (0, 1, 2))  # too short
        assert not check_hole(graphs["k4"], (0, 1, 2, 3))  # chords present
        assert not check_hole(graphs["c5"], (0, 1, 2, 3))  # not a cycle here

    def test_certificate_json_round_trip(self):
        peo = PeoCertificate((2, 0, 1))
        hole = HoleCertificate((0, 1, 2, 3))
        assert certificate_from_json(certificate_to_json(peo)) == peo
        assert certificate_from_json(certificate_to_json(hole)) == hole
        assert certificate_to_json(hole) == {"kind": "hole", "cycle": [0, 1, 2, 3]}


class TestIsChordal:
    def test_c4_hole(self, graphs):
        ok, cert = is_chordal(graphs["c4"])
        assert not ok and isinstance(cert, HoleCertificate)
        assert check_hole(graphs["c4"], cert.cycle)

    def test_tree(self):
        tree = Graph.build(6, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5)])
        ok, cert = is_chordal(tree)
        assert ok and check_peo(tree, cert.order)

    def test_agrees_with_brute_force_small(self):
        for n in range(0, 5):
            for edges in all_labeled_graphs(n):
                g = Graph.build(n, edges)
                ok, cert = is_chordal(g)
                assert ok == is_chordal_brute(n, edges)
                if ok:
                    assert check_peo(g, cert.order)
                else:
                    assert check_hole(g, cert.cycle)

    def test_agrees_with_brute_force_random(self, rng):
        for _ in range(150):
            g = random_graph(rng, int(rng.integers(5, 8)))
            ok, cert = is_chordal(g)
            assert ok == is_chordal_brute(g.n, edge_set(g))

    def test_find_hole_none_on_chordal(self, graphs):
        assert find_hole(graphs["k5"]) is None


class TestIsSplit:
    def test_clique(self, graphs):
        ok, (clique, indep) = is_split(graphs["k4"])
        assert ok and set(clique) == {0, 1, 2, 3} and indep == ()

    def test_2k2(self, graphs):
        assert is_split(graphs["2k2"]) == (False, None)

    def test_star(self, graphs):
        ok, (clique, indep) = is_split(graphs["star5"])
        assert ok and 0 in clique

    def test_empty(self):
        assert is_split(Graph.build(0))[0]

    def test_agrees_with_forbidden_subgraph_search(self, rng):
        for n in range(0, 5):
            for edges in all_labeled_graphs(n):
                g = Graph.build(n, edges)
                assert is_split(g)[0] == is_split_brute(n, edges)
        for _ in range(120):
            g = random_graph(rng, int(rng.integers(5, 9)))
            ok, witness = is_split(g)
            assert ok == is_split_brute(g.n, edge_set(g))
            if ok:
                clique, indep = witness
                assert set(clique) | set(indep) == set(range(g.n))

    def test_split_implies_chordal(self, rng):
        found = 0
        for _ in range(300):
            g = random_graph(rng, int(rng.integers(4, 9)))
            if is_split(g)[0]:
                found += 1
                assert is_chordal(g)[0]
        assert found > 0


class TestEliminationFill:
    def test_c4_first_vertex(self, graphs):
        assert elimination_fill(graphs["c4"], [0, 1, 2, 3]) == {(1, 3)}

    def test_peo_gives_empty(self):
        tree = Graph.build(5, [(0, 1), (1, 2), (1, 3), (3, 4)])
        ok, cert = is_chordal(tree)
        assert ok and elimination_fill(tree, cert.order) == frozenset()

    def test_c5_best_ordering_fill_is_two(self, graphs):
        # independent oracle: minimum over all 5! orderings
        assert min_fill_brute(5, edge_set(graphs["c5"])) == 2
        best = min(
            len(elimination_fill(graphs["c5"], p)) for p in permutations(range(5))
        )
        assert best == 2

    def test_rejects_non_permutation(self, graphs):
        with pytest.raises(GraphInputError):
            elimination_fill(graphs["c4"], [0, 1, 2])

    def test_matches_brute_game(self, rng):
        for _ in range(80):
            n = int(rng.integers(2, 9))
            g = random_graph(rng, n)
            order = rng.permutation(n).tolist()
            assert elimination_fill(g, order) == elimination_fill_brute(
                n, edge_set(g), order
            )

    def test_matches_brute_game_collecting_fill_in_row_blocks(self, rng, monkeypatch):
        monkeypatch.setattr(_bits, "UNPACK_BLOCK_BYTES", 64)  # one or two rows per block
        for _ in range(40):
            n = int(rng.integers(2, 40))
            g = random_graph(rng, n, float(rng.uniform(0.05, 0.5)))
            order = rng.permutation(n).tolist()
            assert elimination_fill(g, order) == elimination_fill_brute(
                n, edge_set(g), order
            )


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_every_ordering_yields_valid_fillin(data):
    n = data.draw(st.integers(2, 7))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = data.draw(st.sets(st.sampled_from(pairs)))
    order = data.draw(st.permutations(range(n)))
    g = Graph.build(n, edges)
    assert verify_fillin(g, elimination_fill(g, order))


class TestVerifyFillin:
    def test_c4_chord_true(self, graphs):
        assert verify_fillin(graphs["c4"], [(0, 2)])

    def test_c4_empty_false(self, graphs):
        res = verify_fillin(graphs["c4"], [])
        assert not res and res.reason == "not_chordal"

    def test_c6_single_long_chord_false(self, graphs):
        # splitting the 6-cycle leaves two 4-cycles (exhaustive hole oracle)
        hexa = graphs["c6"]
        added = edge_set(hexa) | {(0, 3)}
        assert find_holes_brute(6, added)
        res = verify_fillin(hexa, [(0, 3)])
        assert not res and res.reason == "not_chordal"

    def test_existing_edge_distinguished(self, graphs):
        res = verify_fillin(graphs["c4"], [(0, 1)])
        assert not res and res.reason == "pair_is_edge" and res.detail == (0, 1)

    def test_out_of_range_pair(self, graphs):
        res = verify_fillin(graphs["c4"], [(0, 9)])
        assert not res and res.reason == "invalid_pair"


def _certificate_corpus():
    """Every labeled graph on n <= 5, seeded G(n, p) for n in 6..40, and
    primitive gadgets for n in 3..5, raw and greedy-completed."""
    from fillinlab.generate import gnp
    from fillinlab.reduction import reduce_primitive
    from fillinlab.solvers import greedy_minfill_heuristic

    for n in range(0, 6):
        for edges in all_labeled_graphs(n):
            yield Graph.build(n, edges)
    rng = np.random.default_rng(4242)
    for n in range(6, 41):
        for _ in range(3):
            yield gnp(n, float(rng.uniform(0.05, 0.9)), rng)
    for n in (3, 4, 5):
        inst = reduce_primitive(gnp(n, float(rng.uniform(0.3, 0.8)), rng))
        yield inst.graph
        for strategy in ("min-degree", "min-fill"):
            yield inst.graph.add_edges(greedy_minfill_heuristic(inst.graph, strategy))


# Recorded with the earlier recognition path (MCS, then a separate violation
# test, then check_peo on the same order); the single scan must reproduce it.
CERTIFICATE_DIGEST = "85ed5a7beca696ede15cdbc3cbc67587b13216e90ea59ecf40437d3f14fbd39e"


def test_certificate_identity_digest():
    """Certificates are pinned byte for byte: is_chordal's kind and order or
    cycle, find_hole and mcs_ordering over a seeded corpus."""
    digest = hashlib.sha256()
    count = 0
    for g in _certificate_corpus():
        ok, cert = is_chordal(g)
        body = cert.order if ok else cert.cycle
        digest.update(
            json.dumps(
                [cert.kind, list(body), find_hole(g), mcs_ordering(g).tolist()]
            ).encode()
        )
        count += 1
    assert count == 1100 + 105 + 9
    assert digest.hexdigest() == CERTIFICATE_DIGEST
