import hashlib
import json
from itertools import combinations, permutations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fillinlab
from fillinlab import _bits
from fillinlab.chordal import (
    HoleCertificate,
    _validate_permutation,
    check_hole,
    check_peo,
    elimination_fill_codes,
    find_hole,
    is_chordal,
    is_split,
    mcs_ordering,
    verify_fillin,
)
from fillinlab.errors import CounterexampleError, GraphInputError
from fillinlab.generate import gnp, grid, random_subcubic
from fillinlab.graph import Graph, _vertex_ids, twin_classes
from fillinlab.matrix import graph_from_pattern
from fillinlab.reduction import (
    brooks_coloring,
    produced_fillins,
    reduce_colored,
    reduce_primitive,
    split_completion,
)
from fillinlab.solvers import exact_fillin_branch, exact_fillin_ordering_oracle, exact_vertex_cover

from .conftest import grid3d_pattern, random_graph, traced_peak
from .oracles import (
    all_labeled_graphs,
    chain_order_brute,
    check_hole_pairs,
    decode_codes,
    edge_set,
    elimination_fill_brute,
    find_holes_brute,
    is_chordal_brute,
    is_split_brute,
    mcs_order_random,
    mcs_orders_brute,
    mcs_scan_brute,
    min_fill_brute,
    unlinked_pair_brute,
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


def _mcs_corpus():
    """Seeded G(n, p) on both sides of word edges, raw and min-degree-completed."""
    from fillinlab.generate import gnp
    from fillinlab.solvers import greedy_game

    rng = np.random.default_rng(2727)
    for n in (0, 1, 2, 63, 64, 65, 127, 128, 129, 200):
        g = gnp(n, float(rng.uniform(0.02, 0.4)), rng)
        yield g
        yield g.add_edges(greedy_game(g, "min-degree")[1])


@pytest.mark.parametrize("block_bytes", [None, 64])
def test_mcs_scan_matches_brute(monkeypatch, block_bytes):
    """Visit order and violation triple against the dict-of-sets search; 64
    bytes puts one to eight steps in each block of the batched PEO test."""
    from fillinlab.chordal import _mcs_scan

    if block_bytes is not None:
        monkeypatch.setattr(_bits, "UNPACK_BLOCK_BYTES", block_bytes)
    violations = 0
    for g in _mcs_corpus():
        order, viol = _mcs_scan(g)
        expect_order, expect_viol = mcs_scan_brute(g.n, g.edge_list())
        assert order.tolist() == expect_order
        assert viol == expect_viol
        violations += viol is not None
    assert violations >= 5


def test_mcs_memory_is_bounded(monkeypatch):
    """The PEO test gathers rows one block of steps at a time; gathering them
    for every step at once would hold another copy of the packed rows."""
    n = 4096
    g = Graph.build(n, [(i, i + 1) for i in range(n - 1)])
    monkeypatch.setattr(_bits, "UNPACK_BLOCK_BYTES", 1 << 14)
    (ok, _), peak = traced_peak(is_chordal, g)
    assert ok
    assert peak < g.packed_rows().nbytes


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

    @pytest.mark.parametrize(
        "n, edges, parts",
        [
            (5, [(1, 4), (1, 2)], ((1, 2), (0, 3, 4))),  # 2 and 4 tie; the smaller id joins the clique
            (3, [(0, 1), (1, 2)], ((0, 1), (2,))),
            (7, [(6, 5), (6, 3), (5, 3), (6, 0), (5, 2), (3, 4)], ((3, 5, 6), (0, 1, 2, 4))),
        ],
    )
    def test_tied_degrees_give_ascending_parts(self, n, edges, parts):
        """Ties in degree break to the smaller id, and both parts come out ascending."""
        ok, got = is_split(Graph.build(n, edges))
        assert ok and got == parts
        assert all(type(v) is int for part in got for v in part)

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
        assert decode_codes(elimination_fill_codes(graphs["c4"], [0, 1, 2, 3]), 4) == [(1, 3)]

    def test_peo_gives_empty(self):
        tree = Graph.build(5, [(0, 1), (1, 2), (1, 3), (3, 4)])
        ok, cert = is_chordal(tree)
        assert ok and elimination_fill_codes(tree, cert.order).size == 0

    def test_c5_best_ordering_fill_is_two(self, graphs):
        # independent oracle: minimum over all 5! orderings
        assert min_fill_brute(5, edge_set(graphs["c5"])) == 2
        best = min(
            len(elimination_fill_codes(graphs["c5"], p)) for p in permutations(range(5))
        )
        assert best == 2

    def test_rejects_non_permutation(self, graphs):
        with pytest.raises(GraphInputError):
            elimination_fill_codes(graphs["c4"], [0, 1, 2])

    def test_matches_brute_game(self, rng):
        for _ in range(80):
            n = int(rng.integers(2, 9))
            g = random_graph(rng, n)
            order = rng.permutation(n).tolist()
            assert set(decode_codes(elimination_fill_codes(g, order), n)) == elimination_fill_brute(
                n, edge_set(g), order
            )

    def test_matches_brute_game_collecting_fill_in_row_blocks(self, rng, monkeypatch):
        monkeypatch.setattr(_bits, "UNPACK_BLOCK_BYTES", 64)  # one or two rows per block
        for _ in range(40):
            n = int(rng.integers(2, 40))
            g = random_graph(rng, n, float(rng.uniform(0.05, 0.5)))
            order = rng.permutation(n).tolist()
            assert set(decode_codes(elimination_fill_codes(g, order), n)) == elimination_fill_brute(
                n, edge_set(g), order
            )


def _path(n):
    return Graph.build(n, [(i, i + 1) for i in range(n - 1)])


def _chain_cases():
    """(name, graph, order) cases for the batched game.

    Natural orders of grids whose vertex counts straddle a word, paths and
    band graphs are one chain each; a lollipop (a path whose end sees a whole
    clique) reaches its clique tail in a window; two grids side by side break
    their chain where the second starts; ``chain_order_brute`` breaks chains
    at random steps; and every graph on 0..3 vertices goes in every order.
    """
    for rows, cols in ((7, 9), (8, 8), (5, 13)):
        g = grid(rows, cols)
        yield f"grid-{rows}x{cols}", g, np.arange(g.n)
        yield f"grid-{rows}x{cols}-reversed", g, np.arange(g.n)[::-1]
    yield "grid-4x4x4", graph_from_pattern(grid3d_pattern(4)), np.arange(64)
    for n in (12, 63, 64, 65, 130):
        yield f"path-{n}", _path(n), np.arange(n)
    for n, b in ((40, 2), (70, 5), (90, 33)):
        band = Graph.build(n, [(i, j) for i in range(n) for j in range(i + 1, min(i + b + 1, n))])
        yield f"band-{n}-{b}", band, np.arange(n)
        yield f"band-{n}-{b}-reversed", band, np.arange(n)[::-1]
    for k, m in ((9, 6), (14, 20), (30, 3)):
        stick = [(i, i + 1) for i in range(k - 1)] + [(k - 1, j) for j in range(k, k + m)]
        clique = list(combinations(range(k, k + m), 2))
        lollipop = Graph.build(k + m, stick + clique)
        yield f"lollipop-{k}-{m}", lollipop, np.arange(k + m)
    two = [(u + 36 * side, w + 36 * side) for side in (0, 1) for u, w in grid(6, 6).edge_list()]
    yield "two-grids-and-isolated", Graph.build(80, two), np.arange(80)
    rng = np.random.default_rng(3232)
    for i in range(40):
        g = gnp(int(rng.integers(12, 90)), float(rng.uniform(0.02, 0.2)), rng)
        yield f"chain-order-{i}", g, chain_order_brute(g.n, g.edge_list(), rng, 0.9)
    for n in range(4):
        for edges in all_labeled_graphs(n):
            for order in permutations(range(n)):
                yield f"n{n}-{sorted(edges)}-{order}", Graph.build(n, edges), list(order)


@pytest.mark.parametrize("block_bytes", [None, 64], ids=["1-MiB-cap", "64-byte-cap"])
def test_chain_batches_match_the_brute_game(monkeypatch, block_bytes):
    """Batched chains against the dict-of-sets game.  With the 64-byte cap
    every window holds one or two steps; with the default one, the cases
    batch, break a chain inside a window, and reach the clique tail inside one."""
    from fillinlab import chordal

    if block_bytes is not None:
        monkeypatch.setattr(_bits, "UNPACK_BLOCK_BYTES", block_bytes)
    batches = []
    chain = chordal._eliminate_chain

    def batch(*args):
        played, tail, linked = chain(*args)
        batches.append((args[5], played, tail, linked))
        return played, tail, linked

    monkeypatch.setattr(chordal, "_eliminate_chain", batch)
    for name, g, order in _chain_cases():
        fill = decode_codes(elimination_fill_codes(g, order), g.n)
        assert set(fill) == elimination_fill_brute(g.n, edge_set(g), list(order)), name
    assert sum(played for _, played, _, _ in batches) > 1500
    if block_bytes is None:
        assert any(played < width and not tail for width, played, tail, _ in batches)  # a break
        assert any(played < width and tail for width, played, tail, _ in batches)  # a tail
        assert any(width > 8 for width, _, _, _ in batches)  # windows double
    else:
        assert {width for width, _, _, _ in batches} == {1, 2}  # one step once rows span two words


def test_grid_natural_order_plays_in_batches(monkeypatch):
    """Counted, not timed: the natural order of a 20x20 grid is one chain, so
    its game makes a few single steps before it batches (380 without batches)."""
    from fillinlab import chordal

    calls = 0
    step = chordal._eliminate_vertex

    def counted(*args):
        nonlocal calls
        calls += 1
        return step(*args)

    monkeypatch.setattr(chordal, "_eliminate_vertex", counted)
    g = grid(20, 20)
    fill = elimination_fill_codes(g, np.arange(g.n))
    assert calls < 40
    assert set(decode_codes(fill, g.n)) == elimination_fill_brute(g.n, edge_set(g), range(g.n))


def test_chain_batch_memory_is_one_block():
    """The natural order of a 4000-vertex path is one chain.  Its batches hold
    about four arrays of one row per step, in windows capped at
    ``UNPACK_BLOCK_BYTES``, so the game peaks within one block of the plain
    game's peak: that of a nested-dissection order of the same path, whose
    steps never link (each level takes every other vertex still alive)."""
    n = 4000
    g = _path(n)
    g.packed_rows()
    level = [((i + 1) & -(i + 1)).bit_length() for i in range(n)]
    dissection = np.array(sorted(range(n), key=lambda i: (level[i], i)))
    plain_fill, plain = traced_peak(elimination_fill_codes, g, dissection)
    fill, peak = traced_peak(elimination_fill_codes, g, np.arange(n))
    assert fill.size == 0 and plain_fill.size > n // 2
    assert peak <= plain + _bits.UNPACK_BLOCK_BYTES


def _producer_fills():
    """(graph, fill codes) from every fill-in producer: both greedy games, a
    random order's game, split completions on primitive and colored gadgets,
    the ordering oracle and the branching solver."""
    rng = np.random.default_rng(2828)
    g = random_subcubic(10, rng)
    gadgets = [reduce_primitive(gnp(n, 0.5, rng)) for n in (3, 4)]
    gadgets.append(reduce_colored(g, 2, brooks_coloring(g, 3)))
    for inst in gadgets:
        yield inst.graph, split_completion(inst, exact_vertex_cover(inst.original).vertices)
        for fill in produced_fillins(inst, rng, random_orderings=1).values():
            yield inst.graph, fill
    for n in (6, 7, 8):
        g = gnp(n, 0.4, rng)
        opt = exact_fillin_ordering_oracle(g)
        yield g, opt
        yield g, exact_fillin_branch(g, opt.size).fillin


def test_codes_and_pairs_verify_alike():
    """Each producer's codes and the pairs they decode to get one verdict:
    whole, with every other code dropped, and with an edge of the graph added."""
    reasons = set()
    for g, fill in _producer_fills():
        edge = np.array([u * g.n + w for u, w in g.edge_list()[:1]], dtype=np.int64)
        for codes in (fill, fill[::2], np.concatenate([fill, edge])):
            by_codes = verify_fillin(g, codes)
            by_pairs = verify_fillin(g, decode_codes(codes, g.n))
            assert by_codes.ok == by_pairs.ok and by_codes.reason == by_pairs.reason
            assert by_codes.detail == by_pairs.detail and by_codes.filled == by_pairs.filled
            reasons.add(by_codes.reason)
    assert reasons == {None, "pair_is_edge", "not_chordal"}


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_every_ordering_yields_valid_fillin(data):
    n = data.draw(st.integers(2, 7))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = data.draw(st.sets(st.sampled_from(pairs)))
    order = data.draw(st.permutations(range(n)))
    g = Graph.build(n, edges)
    assert verify_fillin(g, elimination_fill_codes(g, order))


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

    @pytest.mark.parametrize(
        "fill",
        [
            [(0, 2.9)],  # float ids are not truncated
            [(0, 2.0)],
            [(True, 3)],
            [(1, False)],
            [("0", 2)],
            [(0, 4)],
            [(-1, 2)],
            [(2, 2)],  # self-pair
            [(0, 2, 1)],
            [(1, 3), (0, 1), (0, 2.5)],  # an invalid pair outranks an edge
            None,  # not iterable
            7,
            np.array(3),
        ],
    )
    def test_invalid_pair_corpus(self, graphs, fill):
        res = verify_fillin(graphs["c4"], fill)
        assert not res and res.reason == "invalid_pair" and res.filled is None
        assert res.detail and isinstance(res.detail[0], str)

    @pytest.mark.parametrize(
        "fill, first",
        [
            ([(1, 3), (2, 1), (0, 1)], (1, 2)),
            ([(3, 0)], (0, 3)),
            ([(np.int64(0), np.int64(2)), (3, 2), (3, 2)], (2, 3)),
        ],
    )
    def test_pair_is_edge_names_first_in_input_order(self, graphs, fill, first):
        res = verify_fillin(graphs["c4"], fill)
        assert not res and res.reason == "pair_is_edge" and res.detail == first
        assert all(type(x) is int for x in res.detail)

    def test_not_chordal_detail_is_a_hole(self, graphs):
        res = verify_fillin(graphs["c6"], [(3, 0)])
        assert not res and res.reason == "not_chordal"
        assert check_hole(graphs["c6"].add_edges([(0, 3)]), res.detail)

    def test_filled_graph_on_success(self, graphs):
        fill = [(2, 0), (0, 2), (np.int64(2), np.int64(0))]  # both orientations, repeated
        res = verify_fillin(graphs["c4"], fill)
        assert res and res.reason is None and res.detail == ()
        assert res.filled == graphs["c4"].add_edges([(0, 2)])
        assert verify_fillin(graphs["p3"], []).filled == graphs["p3"]

    def test_one_intake_per_call(self, monkeypatch):
        """The pairs go through normalize_edges once; the count covers both
        bindings, ``graph``'s and the one ``chordal`` imports."""
        import fillinlab.chordal as chordal_module
        import fillinlab.graph as graph_module

        calls = []
        normalize = graph_module.normalize_edges

        def counted_normalize(*args):
            calls.append(args)
            return normalize(*args)

        cycle = Graph.build(8, [(i, (i + 1) % 8) for i in range(8)])
        fan = [(0, k) for k in range(2, 7)]  # a chordal triangulation, k = 5 pairs
        for module in (graph_module, chordal_module):
            monkeypatch.setattr(module, "normalize_edges", counted_normalize)
        assert verify_fillin(cycle, fan)
        assert len(calls) == 1

    def test_reads_a_one_shot_generator(self, graphs):
        fill = ((a, b) for a, b in [(2, 0)])
        res = verify_fillin(graphs["c4"], fill)
        assert res and res.filled == graphs["c4"].add_edges([(0, 2)])
        res = verify_fillin(graphs["c4"], ((a, b) for a, b in [(0, 2), (1, 0)]))
        assert not res and res.reason == "pair_is_edge" and res.detail == (0, 1)


def _blown_up_cycle(length, t):
    """C_l[t]: each vertex of the l-cycle becomes a clique of t true twins,
    joined to every twin of its two cycle neighbours; the quotient is C_l."""
    blocks = [range(i * t, (i + 1) * t) for i in range(length)]
    edges = [e for b in blocks for e in combinations(b, 2)]
    edges += [(u, v) for i in range(length) for u in blocks[i] for v in blocks[i - 1]]
    return Graph.build(length * t, edges), blocks


class TestFillinOnTheTwinQuotient:
    """Above one word per row, ``verify_fillin`` may decide on the true-twin
    quotient; its verdict and hole must be ``is_chordal``'s on the filled graph."""

    @staticmethod
    def _agrees(graph, fill, monkeypatch):
        """Checks ``verify_fillin`` against ``is_chordal``; returns the verdict, the
        size of every MCS scan the check ran, and the filled graph's class count."""
        from fillinlab import chordal

        scans = []
        scan = chordal._mcs_scan
        with monkeypatch.context() as m:
            m.setattr(chordal, "_mcs_scan", lambda g: scans.append(g.n) or scan(g))
            res = verify_fillin(graph, fill)
        filled = graph.add_edges(fill)
        ok, cert = is_chordal(filled)
        assert bool(res) == ok
        if ok:
            assert res.filled == filled
        else:
            assert res.reason == "not_chordal" and res.detail == cert.cycle
        return ok, scans, twin_classes(filled.packed_rows())[0].size

    @pytest.mark.parametrize("length, t", [(4, 17), (5, 13), (6, 11), (8, 9), (11, 7)])
    def test_blown_up_cycles(self, monkeypatch, length, t):
        g, blocks = _blown_up_cycle(length, t)
        assert g.n > 64
        fan = [(u, v) for j in range(2, length - 1) for u in blocks[0] for v in blocks[j]]
        ok, scans, k = self._agrees(g, fan, monkeypatch)
        assert ok and scans == [k] and 2 * k <= g.n  # the quotient alone decides
        short = [(u, v) for u, v in fan if v not in blocks[length - 2]]  # leaves a 4-hole
        ok, scans, k = self._agrees(g, short, monkeypatch)
        assert not ok and scans == [k, g.n]  # the quotient fails: find_hole scans the graph

    def test_false_twins_stay_apart(self, monkeypatch):
        """C_4 with each vertex blown up into 17 pairwise non-adjacent twins is
        K_{34,34}: each side's vertices share their open rows, so grouping by
        open rows would leave one edge, a chordal quotient.  No two of them
        share a closed row, so the graph itself is scanned."""
        g = Graph.build(68, [(u, v) for u in range(0, 68, 2) for v in range(1, 68, 2)])
        ok, scans, k = self._agrees(g, [], monkeypatch)
        assert not ok and k == 68 and scans == [68]
        g, _ = _blown_up_cycle(4, 17)  # the same with cliques: one class per side of the hole
        ok, scans, k = self._agrees(g, [], monkeypatch)
        assert not ok and k == 4 and scans == [4, g.n]

    def test_gadget_fills(self, monkeypatch):
        """Min-degree, min-fill and random-order fills of primitive and colored
        gadgets above 64 vertices, whole and with every other pair dropped."""
        rng = np.random.default_rng(2301)
        gadgets = [reduce_primitive(gnp(n, 0.5, rng)) for n in (4, 5)]
        for n in (12, 16):
            g = random_subcubic(n, rng)
            gadgets.append(reduce_colored(g, 2, brooks_coloring(g, 3)))
        for inst in gadgets:
            n = inst.graph.n
            assert n > 64
            for fill in produced_fillins(inst, rng=rng, random_orderings=2).values():
                ok, scans, k = self._agrees(inst.graph, fill, monkeypatch)
                assert ok and scans == [k] and 2 * k <= n
                ok, scans, k = self._agrees(inst.graph, fill[::2], monkeypatch)
                assert scans == ([k] if ok else [k, n])


class TestVertexIdRule:
    """Every certificate reader takes integer ids only: no truncation of floats,
    no bools; bool-valued checkers say False, the others raise."""

    def test_verify_fillin(self, graphs):
        res = verify_fillin(graphs["c4"], [(0, 2.9)])
        assert not res and res.reason == "invalid_pair"

    def test_check_peo(self, graphs):
        assert check_peo(graphs["p3"], [0, 1, 2])
        assert not check_peo(graphs["p3"], [0.2, 1.1, 2.0])
        assert not check_peo(graphs["p3"], [False, True, 2])

    def test_check_hole(self, graphs):
        assert check_hole(graphs["c4"], [0, 1, 2, 3])
        assert not check_hole(graphs["c4"], [0.4, 1, 2, 3])

    def test_elimination_fill_codes(self, graphs):
        from fillinlab.chordal import elimination_fill_codes

        assert elimination_fill_codes(graphs["c4"], np.arange(4)).tolist() == [1 * 4 + 3]
        for order in ([0.5, 1.9, 2, 3], [0, 1, 2, 3.0], [True, 0, 2, 3]):
            with pytest.raises(GraphInputError):
                elimination_fill_codes(graphs["c4"], order)


@pytest.mark.parametrize("n", [4, 63, 64, 65, 130])
def test_check_hole_matches_pair_loop(rng, n):
    """A planted cycle, with and without a chord, and its mutations: short,
    repeated, negative and out-of-range members, and random id sequences."""
    for _ in range(8):
        k = int(rng.integers(4, min(n, 9) + 1))
        cyc = rng.choice(n, size=k, replace=False).tolist()
        ring = {(min(a, b), max(a, b)) for a, b in zip(cyc, cyc[1:] + cyc[:1])}
        on_cycle = set(cyc)
        edges = {
            (u, v)
            for u, v in combinations(range(n), 2)
            if rng.random() < 4 / n and not (u in on_cycle and v in on_cycle)
        } | ring
        if rng.random() < 0.5:
            edges.add((min(cyc[0], cyc[2]), max(cyc[0], cyc[2])))
        g = Graph.build(n, edges)
        candidates = [cyc, cyc[::-1], cyc[1:] + cyc[:1], cyc[:3], cyc + [cyc[1]], [cyc[0], *cyc]]
        candidates += [cyc[:-1] + [-1], cyc[:-1] + [n], cyc[:-1] + [n - 1 - cyc[0]], [*cyc, -1]]
        candidates += [cyc[:-1] + [2**64], [2**70, *cyc]]
        candidates += [rng.integers(-1, n + 1, size=int(rng.integers(3, 7))).tolist() for _ in range(4)]
        for c in candidates:
            assert check_hole(g, c) is check_hole(g, np.array(c)) is check_hole_pairs(n, edges, c), c


def test_violation_triple_always_yields_a_hole():
    """The MCS violation triple closes a hole on every non-chordal labelled
    graph with n <= 6: ``_hole`` finds its path and never raises."""
    from fillinlab.chordal import _hole, _mcs_scan

    non_chordal = 0
    for n in range(4, 7):
        for edges in all_labeled_graphs(n):
            g = Graph.build(n, edges)
            viol = _mcs_scan(g)[1]
            if viol is not None:
                non_chordal += 1
                assert check_hole(g, _hole(g, viol))
    assert non_chordal == 14819


def test_every_mcs_order_links_each_vertexs_earlier_neighbours():
    """(L) of the ``chordal`` docstring's lemma, at the step that visits each
    vertex, for every tie-break of every labelled graph with 1 <= n <= 5."""
    orders = 0
    for n in range(1, 6):
        for edges in all_labeled_graphs(n):
            for order in mcs_orders_brute(n, edges):
                orders += 1
                assert unlinked_pair_brute(n, edges, order) is None, (n, edges, order)
    assert orders == 26873


def test_random_tie_breaks_link_and_close_holes():
    """(L) on seeded random tie-breaks for n = 6..12.  Relabelling each vertex
    by its visit step makes the order the package's smallest-id one, so the
    package's violation triple there must close a hole."""
    from fillinlab.chordal import _hole, _mcs_scan

    rng = np.random.default_rng(2424)
    holes = 0
    for n in range(6, 13):
        for _ in range(30):
            edges = edge_set(gnp(n, float(rng.uniform(0.2, 0.7)), rng))
            order = mcs_order_random(n, edges, rng)
            assert unlinked_pair_brute(n, edges, order) is None, (n, edges, order)
            step = {v: i for i, v in enumerate(order)}
            g = Graph.build(n, [(step[u], step[v]) for u, v in edges])
            scanned, viol = _mcs_scan(g)
            assert scanned.tolist() == list(range(n))
            if viol is not None:
                holes += 1
                assert check_hole(g, _hole(g, viol))
    assert holes >= 100


def test_linkage_checker_flags_a_non_mcs_order():
    """A maximal neighbourhood search order that MCS would not take: it visits
    1 (two visited neighbours) before 0 (three), and 0's neighbours 1 and 5 are
    cut off from each other outside N[0]."""
    edges = {(0, 1), (0, 3), (0, 4), (0, 5), (1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (3, 5), (4, 5)}
    order = (4, 2, 3, 5, 1, 0)
    assert order not in set(mcs_orders_brute(6, edges))
    assert unlinked_pair_brute(6, edges, order) == (0, 1, 5)


def test_a_violation_without_a_path_is_a_hard_failure(monkeypatch):
    """If the search outside N[v] found no path, recognition raises at once:
    it never answers None, and no second search looks for a fallback hole."""
    from fillinlab import chordal

    bfs, calls = chordal._bfs, []

    def first_search_finds_nothing(neighbors, root, inside, stop=-1):
        calls.append(root)
        return ([root], [-1] * len(inside)) if len(calls) == 1 else bfs(neighbors, root, inside, stop)

    monkeypatch.setattr(chordal, "_bfs", first_search_finds_nothing)
    c4 = Graph.build(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    blown_up, _ = _blown_up_cycle(4, 17)  # find_hole scans its quotient first
    for g in (c4, blown_up):
        for recognize in (is_chordal, find_hole):
            calls.clear()
            with pytest.raises(CounterexampleError, match="no path outside"):
                recognize(g)
            assert len(calls) == 1


def test_one_hole_routine():
    """``find_hole`` is the only hole-or-None routine, ``_hole`` has one path,
    and only ``chordal`` runs the MCS scan."""
    import inspect

    from fillinlab import transfer

    package = Path(fillinlab.__file__).parent
    offenders = [
        f"{path.name}: {token!r}"
        for path in sorted(package.glob("*.py"))
        for token in ("_pair_holes", "_hole_or_none", "_hole_through")
        if token in path.read_text()
    ]
    offenders += [
        f"{path.name}: '_mcs_scan'"
        for path in sorted(package.glob("*.py"))
        if path.name != "chordal.py" and "_mcs_scan" in path.read_text()
    ]
    assert not offenders
    for fn in (verify_fillin, transfer._checked_completion):
        assert "find_hole(" in inspect.getsource(fn), fn.__name__


def _certificate_corpus():
    """Every labeled graph on n <= 5, seeded G(n, p) for n in 6..40, and
    primitive gadgets for n in 3..5, raw and greedy-completed."""
    from fillinlab.generate import gnp
    from fillinlab.reduction import reduce_primitive
    from fillinlab.solvers import greedy_game

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
            yield inst.graph.add_edges(greedy_game(inst.graph, strategy)[1])


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


def _verdict(n, order):
    """``_validate_permutation``'s array as a list, or its exception type and message."""
    try:
        arr = _validate_permutation(n, order)
    except Exception as exc:  # the exception itself is the verdict compared
        return type(exc), str(exc)
    assert arr.dtype == np.int64
    return arr.tolist()


@pytest.mark.parametrize("dtype", ["int8", "int16", "int32", "int64", "uint8", "uint16", "uint32", "uint64"])
def test_integer_arrays_validate_as_their_lists(rng, dtype):
    """A 1-D integer array takes one array test; its verdict and message equal
    those of the same ids as a list of Python ints, read one at a time."""
    info = np.iinfo(dtype)
    for n in (0, 1, 2, 5, 9):
        cases = [rng.permutation(n), np.arange(n)[::-1], np.arange(n + 1), np.arange(max(n - 1, 0))]
        if n >= 2:
            repeated = rng.permutation(n)
            repeated[0] = repeated[1]
            cases += [repeated, np.concatenate([rng.permutation(n - 1), [n]])]
        cases += [[*range(n - 1), int(info.max)], [int(info.min)] * n]
        for case in cases:
            arr = np.array(case, dtype=dtype)
            assert _verdict(n, arr) == _verdict(n, arr.tolist()), (n, arr)


def test_ids_past_int64_are_no_permutation():
    """uint64 ids past int64, as an array or as Python ints, and Python ints past
    uint64 are no vertex: the list form raised a bare OverflowError."""
    want = (GraphInputError, "ordering is not a permutation of the vertices")
    big = np.array([0, 1, 2**64 - 1], dtype=np.uint64)
    assert _verdict(3, big) == _verdict(3, big.tolist()) == want
    assert _verdict(3, [0, 1, 2**70]) == _verdict(3, [0, 2**63, 1]) == want


@pytest.mark.parametrize(
    "order",
    [np.array([0.0, 1.0, 2.0]), np.array([True, False, True]), np.array([0, 1, 2], dtype=object),
     np.array([[0, 1, 2]]), np.array(1), (0, 1, 2.5), "012"],
    ids=["float", "bool", "object", "2-D", "0-d", "tuple-float", "str"],
)
def test_other_inputs_are_read_one_id_at_a_time(order):
    """Everything but a 1-D integer array goes through ``graph._vertex_ids``,
    with its message for a non-integer."""
    try:
        ids = _vertex_ids(order)
    except GraphInputError as exc:
        assert _verdict(3, order) == (GraphInputError, str(exc))
    else:
        assert _verdict(3, order) == _verdict(3, list(ids))
