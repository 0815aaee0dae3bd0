import hashlib
import inspect
import json
import sys
from contextlib import contextmanager
from itertools import combinations

import numpy as np
import pytest

from fillinlab import _bits
from fillinlab.chordal import elimination_fill_codes, verify_fillin
from fillinlab.generate import cycle, gnp, grid, random_subcubic
from fillinlab.errors import GraphInputError, ResourceLimitError
from fillinlab.graph import Graph, twin_quotient
from fillinlab.matrix import graph_from_pattern
from fillinlab.reduction import brooks_coloring, reduce_colored, reduce_primitive
from fillinlab.solvers import (
    GREEDY_STRATEGIES,
    OPENING_DEGREE,
    ORACLE_CLASS_LIMIT,
    _fill_scores,
    _row_game,
    exact_fillin_branch,
    exact_fillin_ordering_oracle,
    exact_vertex_cover,
    greedy_game,
    is_vertex_cover,
)

from .conftest import count_degree_steps, grid3d_pattern, random_graph, traced_peak
from .oracles import (
    blow_up,
    clique_tail_brute,
    decode_codes,
    edge_set,
    elimination_fill_brute,
    is_vertex_cover_pairs,
    min_degree_ordering_brute,
    min_fill_brute,
    min_fill_memo_brute,
    min_fill_ordering_brute,
    min_vertex_cover_brute,
    twin_blowup,
)


@contextmanager
def _frames_to_spare(count):
    """The interpreter's recursion limit lowered to the caller's depth plus ``count``."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + count)
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


class TestVertexCover:
    def test_c4(self, graphs):
        assert exact_vertex_cover(graphs["c4"]).size == 2

    def test_k5(self, graphs):
        assert exact_vertex_cover(graphs["k5"]).size == 4

    def test_petersen_matches_subset_enumeration(self, graphs):
        pet = graphs["petersen"]
        edges = edge_set(pet)
        assert not any(
            all(u in set(s) or v in set(s) for u, v in edges)
            for k in range(6)
            for s in combinations(range(10), k)
        )
        res = exact_vertex_cover(pet)
        assert res.size == 6 and res.optimal

    def test_edgeless(self):
        assert exact_vertex_cover(Graph.build(4)).size == 0

    def test_agrees_with_brute(self, rng):
        for _ in range(60):
            g = random_graph(rng, int(rng.integers(2, 9)))
            assert exact_vertex_cover(g).size == min_vertex_cover_brute(
                g.n, edge_set(g)
            )

    def test_120_levels_with_50_frames_to_spare(self):
        """The search keeps its own stack, in the order of a recursive search."""
        k120 = Graph.build(120, combinations(range(120), 2))
        with _frames_to_spare(50):
            res = exact_vertex_cover(k120)
        assert res.optimal and res.nodes == 237 and res.vertices == frozenset(range(118)) | {119}

    def test_budget_exhaustion_still_valid(self, graphs):
        res = exact_vertex_cover(graphs["petersen"], node_budget=1)
        assert res.status == "budget_exhausted" and not res.optimal
        assert is_vertex_cover(graphs["petersen"], res.vertices)

    def test_cover_ids_must_be_integers(self, graphs):
        assert is_vertex_cover(graphs["p3"], [1])
        assert is_vertex_cover(graphs["p3"], [np.int64(1)])
        assert not is_vertex_cover(graphs["p3"], [1.7])
        assert not is_vertex_cover(graphs["p3"], [1.0])
        assert not is_vertex_cover(graphs["p3"], [True])

    @pytest.mark.parametrize("n", [4, 63, 64, 65, 130])
    def test_matches_edge_walk(self, rng, n):
        """Random sets and near-covers, with negative, out-of-range and repeated ids."""
        for _ in range(6):
            g = random_graph(rng, n, float(rng.uniform(0.01, 0.3)))
            edges = edge_set(g)
            cover = sorted({max(e, key=g.degree) for e in edges})
            sets = [cover, cover[1:], cover + cover[:2], [*cover[1:], -1], [*cover[1:], n]]
            sets += [[v - n for v in cover], [], [-1], list(range(n)), list(range(-1, n - 1))]
            sets += [rng.integers(-2, n + 2, size=int(rng.integers(0, n + 1))).tolist() for _ in range(3)]
            for vs in sets:
                assert is_vertex_cover(g, vs) is is_vertex_cover_pairs(edges, vs), vs
        assert not is_vertex_cover(Graph.build(2, [(0, 1)]), [-1])

    def test_monotone_under_edge_deletion(self, rng):
        for _ in range(25):
            g = random_graph(rng, 7)
            size = exact_vertex_cover(g).size
            for e in g.edge_list():
                smaller = Graph.build(g.n, set(g.edge_list()) - {e})
                assert exact_vertex_cover(smaller).size <= size


@pytest.mark.parametrize(
    "node_budget, match",
    [(-1, "nonnegative"), (2.5, "an integer"), (True, "an integer"), ("3", "an integer")],
    ids=["negative", "fraction", "bool", "string"],
)
@pytest.mark.parametrize("solver", ["vc", "branch"])
def test_node_budget_must_be_a_nonnegative_integer(graphs, solver, node_budget, match):
    # a fractional budget would cut the search at its ceiling, a negative one at the root
    with pytest.raises(GraphInputError, match=f"^node_budget must be {match}"):
        if solver == "vc":
            exact_vertex_cover(graphs["c6"], node_budget=node_budget)
        else:
            exact_fillin_branch(graphs["c6"], 3, node_budget=node_budget)


def test_node_budget_zero_cuts_at_the_root(graphs):
    res = exact_vertex_cover(graphs["c6"], node_budget=0)
    assert res.status == "budget_exhausted" and res.nodes == 1
    res = exact_fillin_branch(graphs["c6"], 3, node_budget=0)
    assert res.status == "exhausted" and res.nodes == 1


def _twin_blowup(rng, most=10):
    """Seeded G(m, p), m <= 6, with each vertex blown up into a clique of 1..3
    true twins, at most ``most`` vertices in all, under shuffled labels."""
    m = int(rng.integers(1, 7))
    base = gnp(m, float(rng.uniform(0.2, 0.8)), rng)
    sizes = rng.integers(1, 4, size=m)
    while sizes.sum() > most:
        sizes[sizes.argmax()] -= 1
    return blow_up(base, sizes, rng)


def _oracle_corpus():
    """250 seeded G(n, p) with n <= 10, 200 true-twin blow-ups of at most 10
    vertices, and primitive gadgets for n = 1, 2 (at most 10 vertices)."""
    rng = np.random.default_rng(1111)
    for _ in range(250):
        yield gnp(int(rng.integers(0, 11)), float(rng.uniform(0.1, 0.9)), rng)
    for _ in range(200):
        yield _twin_blowup(rng)
    for n in (1, 2, 2, 2):
        yield reduce_primitive(gnp(n, float(rng.uniform(0.2, 0.9)), rng)).graph


# Recorded with the memoized search over eliminated vertex sets; the subset DP
# over true-twin classes must return the same fill set on every graph.
ORACLE_DIGEST = "05dcfa6035d4fab94d9300e8a12cd63293bfb333e8e4647c2a682e142fedba88"


class TestOrderingOracle:
    def test_c4(self, graphs):
        assert len(exact_fillin_ordering_oracle(graphs["c4"])) == 1

    def test_c6_needs_three(self, graphs):
        fill = exact_fillin_ordering_oracle(graphs["c6"])
        assert len(fill) == 3 and verify_fillin(graphs["c6"], fill)

    def test_chordal_input_empty(self, graphs):
        assert exact_fillin_ordering_oracle(graphs["k5"]).size == 0

    def test_limit_names_class_bound(self):
        assert ORACLE_CLASS_LIMIT == 16
        with pytest.raises(ResourceLimitError, match="16 true-twin classes, got 17"):
            exact_fillin_ordering_oracle(Graph.build(17))  # edgeless: 17 classes

    def test_twin_classes_lift_the_vertex_count(self):
        """K_200 is one class; the n = 3 primitive gadget has 30 vertices in
        at most 6 classes, and its exact fill-in lies in the paper's window."""
        assert exact_fillin_ordering_oracle(Graph.build(200, combinations(range(200), 2))).size == 0
        g = Graph.build(3, [(0, 1), (1, 2)])
        inst = reduce_primitive(g)
        assert inst.graph.n == 30
        fill = exact_fillin_ordering_oracle(inst.graph)
        assert verify_fillin(inst.graph, fill)
        tau = exact_vertex_cover(g).size
        assert tau * 9 <= len(fill) < (tau + 1) * 9

    def test_cycles_past_the_old_vertex_limit(self):
        for n in range(4, 17):
            c = Graph.build(n, [(i, (i + 1) % n) for i in range(n)])
            fill = exact_fillin_ordering_oracle(c)
            assert len(fill) == n - 3 and verify_fillin(c, fill)

    def test_pairs_are_tested_against_the_reach_sets(self):
        """On K_{2,3} (sides {1, 3} and {0, 2, 4}) one chord suffices.  Testing
        the pairs of a step against the original adjacency instead of the
        reach sets charges 1-3 again at each of 2 and 4 eliminated after 0,
        and the DP then settles on an order of true fill 2, whose recount
        matches its own optimum, so the reconstruction check passes."""
        k23 = Graph.build(5, [(0, 1), (0, 3), (1, 2), (1, 4), (2, 3), (3, 4)])
        assert decode_codes(exact_fillin_ordering_oracle(k23), 5) == [(1, 3)]

    def test_matches_memo_search_on_seeded_corpus(self):
        graphs = 0
        for g in _oracle_corpus():
            fill = exact_fillin_ordering_oracle(g)
            assert set(decode_codes(fill, g.n)) == min_fill_memo_brute(g.n, g.edge_list())
            graphs += 1
        assert graphs == 454

    def test_fill_set_digest(self):
        digest = hashlib.sha256()
        for g in _oracle_corpus():
            codes = exact_fillin_ordering_oracle(g).tolist()
            digest.update(json.dumps([g.n, codes]).encode())
        assert digest.hexdigest() == ORACLE_DIGEST

    def test_memory_at_the_class_limit(self):
        c16 = Graph.build(16, [(i, (i + 1) % 16) for i in range(16)])
        _, peak = traced_peak(exact_fillin_ordering_oracle, c16)
        assert peak < 128 * 2**20

    def test_matches_permutation_minimum(self, rng):
        for _ in range(30):
            g = random_graph(rng, int(rng.integers(2, 7)))
            ours = len(exact_fillin_ordering_oracle(g))
            assert ours == min_fill_brute(g.n, edge_set(g))

    def test_matches_permutation_minimum_seven(self, rng):
        g = random_graph(rng, 7, p=0.4)
        assert len(exact_fillin_ordering_oracle(g)) == min_fill_brute(7, edge_set(g))

    def test_result_is_valid_fillin(self, rng):
        for _ in range(20):
            g = random_graph(rng, 7)
            assert verify_fillin(g, exact_fillin_ordering_oracle(g))


class TestBranchSolver:
    def test_c4_budget_zero(self, graphs):
        assert exact_fillin_branch(graphs["c4"], 0).status == "none_within_budget"

    def test_c4_budget_one(self, graphs):
        res = exact_fillin_branch(graphs["c4"], 1)
        assert res.status == "found" and decode_codes(res.fillin, 4) in ([(0, 2)], [(1, 3)])

    def test_agrees_with_oracle(self, rng):
        checked = 0
        for _ in range(40):
            g = random_graph(rng, 8, p=0.35)
            opt = len(exact_fillin_ordering_oracle(g))
            if opt <= 6:
                res = exact_fillin_branch(g, 6)
                assert res.status == "found" and len(res.fillin) == opt
                assert verify_fillin(g, res.fillin)
                checked += 1
        assert checked >= 20

    def test_nine_cycle_within_ten_thousand_nodes(self):
        # l - 2 children per hole keep this search to 3,218 nodes
        g = cycle(9)
        res = exact_fillin_branch(g, 6, node_budget=10_000)
        assert res.status == "found" and len(res.fillin) == 6
        assert verify_fillin(g, res.fillin)

    def test_long_cycle_keeps_no_ancestor_graph(self):
        """A 32-cycle among 608 isolated vertices: each node's graph is built from
        the root's rows, so the search peaks at a few root-sized graphs (6.4x,
        the hole search's temporaries), not at the graphs of its 29-chord path
        (37x when every ancestor stayed alive)."""
        g = Graph.build(640, [(i, (i + 1) % 32) for i in range(32)])
        res, peak = traced_peak(exact_fillin_branch, g, 32, 40)
        assert res.status == "feasible_budget_exhausted" and res.nodes == 41 and len(res.fillin) == 29
        assert peak < 8 * g.packed_rows().nbytes

    def test_eight_cycle_refuted_at_budget_four(self):
        # C_l needs l - 3 fill edges; refuting l - 4 takes 304 nodes
        res = exact_fillin_branch(cycle(8), 4, node_budget=1_000)
        assert res.status == "none_within_budget" and res.fillin is None

    @pytest.mark.parametrize(
        "budget, match",
        [(-1, "nonnegative"), (2.5, "an integer"), (True, "an integer"), ("3", "an integer")],
        ids=["negative", "fraction", "bool", "string"],
    )
    def test_budget_must_be_a_nonnegative_integer(self, graphs, budget, match):
        # a negative or fractional budget never meets the depth cap
        with pytest.raises(GraphInputError, match=f"^budget must be {match}"):
            exact_fillin_branch(graphs["c6"], budget)

    def test_120_levels_with_50_frames_to_spare(self):
        """The search keeps its own stack, in the order of a recursive search:
        its first 117 levels add the chords (0, 2) .. (0, 118) of C_120.  The
        stack holds one entry per level, the hole as an int64 array and a
        child cursor: under 8 * 120^2 bytes down the path, where one entry per
        untried child took about 0.8 MiB (traced peak now about 0.1 MiB)."""
        g = cycle(120)
        with _frames_to_spare(50):
            res, peak = traced_peak(exact_fillin_branch, g, 120, 150)
        assert res.status == "feasible_budget_exhausted" and res.nodes == 151
        assert res.fillin.tolist() == list(range(2, 119))
        assert peak < 16 * g.n * g.n

    def test_node_budget_exhaustion(self, rng):
        g = random_graph(rng, 8, p=0.5)
        res = exact_fillin_branch(g, 8, node_budget=1)
        assert res.status in ("feasible_budget_exhausted", "exhausted")

    def test_budget_cut_never_reports_found(self):
        rng = np.random.default_rng(2468)
        cut = feasible = 0
        for _ in range(60):
            g = random_graph(rng, int(rng.integers(6, 10)), p=float(rng.uniform(0.2, 0.6)))
            opt = len(exact_fillin_ordering_oracle(g))
            res = exact_fillin_branch(g, opt + 2, node_budget=10)
            if res.nodes > 10:
                cut += 1
                assert res.status in ("feasible_budget_exhausted", "exhausted")
                if res.fillin is not None:
                    feasible += 1
                    assert verify_fillin(g, res.fillin)
            else:
                assert res.status == "found" and len(res.fillin) == opt
        assert cut >= 10 and feasible >= 5


def _assert_min_fill_matches_full_rescan(g):
    edges = g.edge_list()
    expect = min_fill_ordering_brute(g.n, edges)
    order, codes = greedy_game(g, "min-fill")
    assert order.tolist() == expect
    assert set(decode_codes(codes, g.n)) == elimination_fill_brute(g.n, edges, expect)


class TestGreedyHeuristics:
    def test_chordal_input_minfill_empty(self, graphs):
        assert greedy_game(graphs["k5"], "min-fill")[1].size == 0

    def test_c4_one_edge_either_strategy(self, graphs):
        for strategy in ("min-degree", "min-fill"):
            assert len(greedy_game(graphs["c4"], strategy)[1]) == 1

    def test_c5_minfill_matches_oracle(self, graphs):
        assert len(greedy_game(graphs["c5"], "min-fill")[1]) == 2

    def test_unknown_strategy(self, graphs):
        with pytest.raises(GraphInputError, match="strategy"):
            greedy_game(graphs["c4"], "random")

    def test_results_always_valid(self, rng):
        for _ in range(30):
            g = random_graph(rng, int(rng.integers(2, 10)))
            for strategy in ("min-degree", "min-fill"):
                assert verify_fillin(g, greedy_game(g, strategy)[1])

    def test_never_beats_exact(self, rng):
        for _ in range(30):
            g = random_graph(rng, int(rng.integers(2, 9)))
            opt = len(exact_fillin_ordering_oracle(g))
            for strategy in ("min-degree", "min-fill"):
                assert len(greedy_game(g, strategy)[1]) >= opt

    def test_ordering_is_permutation(self, graphs):
        order = greedy_game(graphs["petersen"], "min-degree")[0]
        assert sorted(order.tolist()) == list(range(10))

    def test_min_degree_matches_full_rescan(self, rng):
        for _ in range(60):
            g = random_graph(rng, int(rng.integers(0, 40)), float(rng.uniform(0.02, 0.5)))
            expect = min_degree_ordering_brute(g.n, g.edge_list())
            assert greedy_game(g, "min-degree")[0].tolist() == expect

    def test_min_degree_matches_full_rescan_on_grids(self):
        for rows, cols in ((1, 1), (2, 3), (4, 4), (5, 7), (9, 9)):
            ids = [[r * cols + c for c in range(cols)] for r in range(rows)]
            edges = [(ids[r][c], ids[r][c + 1]) for r in range(rows) for c in range(cols - 1)]
            edges += [(ids[r][c], ids[r + 1][c]) for r in range(rows - 1) for c in range(cols)]
            g = Graph.build(rows * cols, edges)
            expect = min_degree_ordering_brute(g.n, edges)
            assert greedy_game(g, "min-degree")[0].tolist() == expect

    def test_min_fill_matches_full_rescan(self):
        rng = np.random.default_rng(9090)
        graphs = [Graph.build(n) for n in (0, 1, 5, 17)]
        graphs += [Graph.build(n, combinations(range(n), 2)) for n in (2, 6, 13)]
        while len(graphs) < 300:
            n = int(rng.integers(0, 41))
            graphs.append(gnp(n, float(rng.uniform(0.02, 0.7)), rng))
        for g in graphs:
            _assert_min_fill_matches_full_rescan(g)

    def test_min_fill_matches_full_rescan_on_grids_and_gadgets(self):
        rng = np.random.default_rng(9191)
        graphs = [grid(r, c) for r, c in ((1, 1), (2, 3), (4, 4), (5, 7), (9, 9))]
        graphs += [reduce_primitive(gnp(n, 0.5, rng)).graph for n in (2, 3, 4)]
        for n in (5, 8, 11):
            h = random_subcubic(n, rng)
            graphs.append(reduce_colored(h, 1, brooks_coloring(h, 3)).graph)
        for g in graphs:
            _assert_min_fill_matches_full_rescan(g)

    def test_min_fill_memory_is_bounded(self):
        """Scores are built and updated from bounded gathers of packed rows;
        gathering a row pair for each of the gadget's ~60k edges at once would
        peak near 7 MB."""
        g = reduce_primitive(gnp(7, 0.5, 3)).graph
        assert g.n == 350
        _, peak = traced_peak(greedy_game, g, "min-fill")
        assert peak < 4 * 2**20


def test_min_fill_clique_steps_gather_no_rows(monkeypatch):
    """Counted, not timed: on a chordal input every step of the row game's
    min-fill eliminates a vertex of score 0, whose alive neighbourhood is a
    clique, and such a step updates its neighbours from ``deg`` alone; the
    only popcounts are the ones ``_fill_scores`` makes."""
    calls = 0
    popcount_rows = _bits.popcount_rows

    def counted(rows):
        nonlocal calls
        calls += 1
        return popcount_rows(rows)

    monkeypatch.setattr(_bits, "popcount_rows", counted)
    g = reduce_primitive(gnp(5, 0.5, 17)).graph
    g = g.add_edges(greedy_game(g, "min-fill")[1])
    calls = 0
    _fill_scores(g.packed_rows(), g.n)
    scoring = calls
    calls = 0
    order, codes = _row_game(g, "min-fill")
    assert codes.size == 0 and order.size == g.n == 130
    assert calls == scoring


#: Bytes ``_bits.unpack`` returned during the min-fill game on the seed-7373,
#: n = 50, b = 1 colored gadget (200 vertices) when each fill step unpacked the
#: whole matrix ``N & ~rows[N]`` to find its fill pairs.
MIN_FILL_UNPACK_BYTES_BEFORE = 1_389_472


def test_min_fill_unpacks_only_nonzero_words(monkeypatch):
    """Counted, not timed: fill pairs come from the nonzero words of each step's
    missing-pair matrix, so the row game unpacks at most half the bytes it did."""
    total = 0
    unpack = _bits.unpack

    def counted(rows, nbits):
        nonlocal total
        out = unpack(rows, nbits)
        total += out.nbytes
        return out

    g = random_subcubic(50, np.random.default_rng(7373))
    h = reduce_colored(g, 1, brooks_coloring(g, 3)).graph
    assert h.n == 200
    monkeypatch.setattr(_bits, "unpack", counted)
    _row_game(h, "min-fill")
    assert 0 < total <= MIN_FILL_UNPACK_BYTES_BEFORE // 2


def _minfill_digest_corpus():
    """Primitive gadgets for n in 4..8 (N up to 520), colored gadgets of seeded
    subcubic graphs on n in 20..50, and the 20x20 and 24x24 grids."""
    rng = np.random.default_rng(7373)
    for n in range(4, 9):
        yield reduce_primitive(gnp(n, float(rng.uniform(0.3, 0.8)), rng)).graph
    for n in (20, 30, 40, 50):
        g = random_subcubic(n, rng)
        yield reduce_colored(g, 1, brooks_coloring(g, 3)).graph
    yield grid(20, 20)
    yield grid(24, 24)


# Recorded with the float32 (A@A)*A rescoring; the exact integer scores must
# reproduce every ordering and fill set byte for byte.
MINFILL_DIGEST = "2c8c9824d1493e9379968f7cf57ebb284938322f9c1e69866935564e95734ea2"


def test_minfill_ordering_digest():
    digest = hashlib.sha256()
    count = 0
    for g in _minfill_digest_corpus():
        order, codes = greedy_game(g, "min-fill")
        digest.update(json.dumps([g.n, order.tolist(), codes.tolist()]).encode())
        count += 1
    assert count == 5 + 4 + 2
    assert digest.hexdigest() == MINFILL_DIGEST


def _same_fill_corpus():
    """Seeded G(n, p), edgeless and complete graphs on both sides of word edges."""
    rng = np.random.default_rng(6464)
    for n in (0, 1, 2, 63, 64, 65, 128, 129):
        yield gnp(n, float(rng.uniform(0.05, 0.5)), rng)
        yield Graph.build(n)
        yield Graph.build(n, combinations(range(n), 2))


@pytest.mark.parametrize("block_bytes", [None, 64])
def test_every_game_gives_the_same_fill(monkeypatch, block_bytes):
    """A greedy game's own fill is the fill ``elimination_fill_codes`` and the
    dict-of-sets game give for its ordering, so ``eliminate`` may use either."""
    if block_bytes is not None:
        monkeypatch.setattr(_bits, "UNPACK_BLOCK_BYTES", block_bytes)
    games = 0
    for g in _same_fill_corpus():
        for strategy in ("min-degree", "min-fill"):
            order, codes = greedy_game(g, strategy)
            assert codes.dtype == np.int64
            assert np.array_equal(codes, elimination_fill_codes(g, order))
            brute = elimination_fill_brute(g.n, g.edge_list(), order.tolist())
            assert codes.tolist() == sorted(u * g.n + w for u, w in brute)
            games += 1
    assert games == 8 * 3 * 2


def _fill_codes_brute(g, order):
    return sorted(u * g.n + w for u, w in elimination_fill_brute(g.n, g.edge_list(), order))


def _clique_tail_corpus():
    """(name, graph, fixed orders): K_0..K_6, whose games end at step 0; a K_5
    with a pendant path; the cliques on the even and on the odd ids of 0..7;
    a star, whose first order starts at its centre; seeded primitive and
    colored gadgets under random orders."""
    rng = np.random.default_rng(4242)
    for n in range(7):
        yield f"K_{n}", Graph.build(n, combinations(range(n), 2)), [np.arange(n), rng.permutation(n)]
    path = [(4, 5), (5, 6), (6, 7), (7, 8)]
    yield "clique+path", Graph.build(9, [*combinations(range(5), 2), *path]), [
        np.arange(9),
        np.arange(9)[::-1],
        rng.permutation(9),
    ]
    halves = [*combinations(range(0, 8, 2), 2), *combinations(range(1, 8, 2), 2)]
    yield "two cliques", Graph.build(8, halves), [np.arange(8), rng.permutation(8)]
    yield "star", Graph.build(6, [(0, v) for v in range(1, 6)]), [np.arange(6), rng.permutation(6)]
    for n in (2, 3, 4):
        g = reduce_primitive(gnp(n, 0.5, rng)).graph
        yield f"primitive n={n}", g, [rng.permutation(g.n) for _ in range(2)]
    for n in (5, 8, 11):
        h = random_subcubic(n, rng)
        g = reduce_colored(h, 1, brooks_coloring(h, 3)).graph
        yield f"colored n={n}", g, [rng.permutation(g.n) for _ in range(2)]


def test_clique_tail_games_match_full_rescans():
    """The games stop after the first step whose vertex sees every live vertex
    and finish the ordering in ascending ids; the orderings and fill codes equal
    the full-rescan brutes', wherever in the game that step falls."""
    tails, fills = {}, {}
    for name, g, orders in _clique_tail_corpus():
        edges = g.edge_list()
        for strategy, brute in (
            ("min-degree", min_degree_ordering_brute),
            ("min-fill", min_fill_ordering_brute),
        ):
            order, codes = greedy_game(g, strategy)
            expect = brute(g.n, edges)
            assert order.tolist() == expect, (name, strategy)
            assert codes.tolist() == _fill_codes_brute(g, expect), (name, strategy)
            tails[name, strategy] = clique_tail_brute(g.n, edges, expect)
        for i, order in enumerate(orders):
            codes = elimination_fill_codes(g, order)
            assert codes.tolist() == _fill_codes_brute(g, order.tolist()), (name, i)
            tails[name, i] = clique_tail_brute(g.n, edges, order.tolist())
            fills[name, i] = codes.size
    for n in range(1, 7):
        assert {tails[f"K_{n}", key] for key in ("min-degree", "min-fill", 0, 1)} == {0}
    assert tails["K_0", 0] is None
    assert tails["clique+path", "min-degree"] == 4  # the path, then vertex 0 of the K_5
    assert tails["clique+path", "min-fill"] == 7  # 0..3 score 0 first, then 8 and 7
    assert tails["two cliques", "min-degree"] == 4  # the even clique goes first
    # Every score is 0, so min-fill alternates like the natural order, and 6
    # and 7 are not adjacent: the game ends only at its last step.
    assert tails["two cliques", "min-fill"] == tails["two cliques", 0] == 7
    assert tails["star", 0] == 0 and fills["star", 0] == 10  # the step from the centre fills
    gadgets = [key for key in tails if key[0].startswith(("primitive", "colored"))]
    assert all(0 < tails[key] < 64 for key in gadgets)


def test_games_stop_at_the_clique_tail(monkeypatch):
    """Counted, not timed: on a seeded primitive gadget the row game's
    min-degree makes one ``_eliminate_vertex`` call, and the row game's
    min-fill one loop step (one ``_bits.indices`` call), per step up to the
    first whose vertex sees every live vertex.  A random-order
    ``elimination_fill_codes`` plays those steps as ``_eliminate_vertex``
    calls plus the steps of its ``_eliminate_chain`` batches."""
    from fillinlab import chordal, solvers

    calls = {"step": 0, "indices": 0, "batched": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def batch(*args):
        played = chain(*args)
        calls["batched"] += played[0]
        return played

    chain = chordal._eliminate_chain
    monkeypatch.setattr(chordal, "_eliminate_chain", batch)
    step = counted("step", chordal._eliminate_vertex)
    for mod in (chordal, solvers):
        monkeypatch.setattr(mod, "_eliminate_vertex", step)
    monkeypatch.setattr(_bits, "indices", counted("indices", _bits.indices))
    rng = np.random.default_rng(1919)
    g = reduce_primitive(gnp(4, 0.5, rng)).graph
    edges = g.edge_list()
    assert g.n == 68
    random_order = rng.permutation(g.n)
    for game, order, fixed in (
        (lambda: _row_game(g, "min-degree"), min_degree_ordering_brute(g.n, edges), False),
        (lambda: _row_game(g, "min-fill"), min_fill_ordering_brute(g.n, edges), False),
        (lambda: elimination_fill_codes(g, random_order), random_order.tolist(), True),
    ):
        calls.update(step=0, indices=0, batched=0)
        game()
        expect = 1 + clique_tail_brute(g.n, edges, order)
        assert expect < g.n
        if fixed:
            assert calls["step"] + calls["batched"] == expect
        else:
            assert calls["batched"] == 0
            assert max(calls.values()) == expect  # _eliminate_vertex calls _bits.indices once


def test_min_fill_reaches_the_tail_on_a_clique_step(monkeypatch):
    """Counted, not timed: min-fill checks for the tail only on steps of score
    0, which is enough because a vertex that sees every live vertex, two of
    them non-adjacent, never has the least score; so its loop still stops at
    the dict-of-sets game's first such step."""
    calls = 0
    indices = _bits.indices

    def counted(row, nbits):
        nonlocal calls
        calls += 1
        return indices(row, nbits)

    monkeypatch.setattr(_bits, "indices", counted)
    rng = np.random.default_rng(5151)
    for _ in range(60):
        g = gnp(int(rng.integers(1, 16)), float(rng.uniform(0.1, 0.9)), rng)
        calls = 0
        order = greedy_game(g, "min-fill")[0].tolist()
        assert calls == 1 + clique_tail_brute(g.n, g.edge_list(), order)


# -- the class game ---------------------------------------------------------------


def _complete_multipartite(parts):
    owner = np.repeat(np.arange(len(parts)), parts).tolist()
    pairs = combinations(range(len(owner)), 2)
    return Graph.build(len(owner), [(i, j) for i, j in pairs if owner[i] != owner[j]])


#: The full-rescan orderings, in the order of ``GREEDY_STRATEGIES``.
BRUTE_ORDERINGS = (min_degree_ordering_brute, min_fill_ordering_brute)


def _class_game_corpus():
    """(name, graph) pairs past one word with at most 64 true-twin classes, at
    most n/2: seeded twin blow-ups under shuffled labels, primitive gadgets for
    n = 4..8, colored gadgets with b = 1 and b = 2, K_n, disjoint cliques under
    shuffled labels, and complete multipartite graphs, whose parts of two or
    more vertices are false twins (equal open rows) that must stay apart."""
    rng = np.random.default_rng(2525)
    for i in range(16):
        n = int(rng.integers(65, 81)) if i < 6 else int(rng.integers(81, 201))
        yield f"blow-up {i}", twin_blowup(rng, n, most=8)
    for n in range(4, 9):
        base = gnp(n, float(rng.uniform(0.3, 0.8)), rng)
        yield f"primitive n={n}", reduce_primitive(base).graph
    for n in (20, 26):
        h = random_subcubic(n, rng)
        for b in (1, 2):
            yield f"colored n={n} b={b}", reduce_colored(h, b, brooks_coloring(h, 3)).graph
    for n in (65, 130):
        yield f"K_{n}", Graph.build(n, combinations(range(n), 2))
    yield "three cliques", blow_up(Graph.build(3), [30, 20, 25], rng)
    yield "multipartite", _complete_multipartite([1] * 60 + [3, 3])
    yield "multipartite mix", _complete_multipartite([1] * 40 + [2] * 10 + [5, 5])


def test_class_game_matches_the_row_game_and_the_rescans(monkeypatch):
    """Every graph of the corpus takes the class game, which returns the row
    game's ordering and fill codes; up to 80 vertices the full-rescan brutes
    give the same ordering, and its dict-of-sets fill the same codes."""
    from fillinlab import solvers

    steps = 0
    class_scores = solvers._class_scores

    def counted(*args):
        nonlocal steps
        steps += 1
        return class_scores(*args)

    monkeypatch.setattr(solvers, "_class_scores", counted)
    games = 0
    for name, g in _class_game_corpus():
        reps = twin_quotient(g.packed_rows())[0]
        assert g.n > 64 and reps.size <= 64, name
        for strategy, brute in zip(GREEDY_STRATEGIES, BRUTE_ORDERINGS):
            steps = 0
            order, codes = greedy_game(g, strategy)
            assert steps > 0, (name, strategy)
            row_order, row_codes = _row_game(g, strategy)
            assert order.tolist() == row_order.tolist(), (name, strategy)
            assert codes.dtype == np.int64, (name, strategy)
            assert codes.tolist() == row_codes.tolist(), (name, strategy)
            if g.n <= 80:
                expect = brute(g.n, g.edge_list())
                assert order.tolist() == expect, (name, strategy)
                assert codes.tolist() == _fill_codes_brute(g, expect), (name, strategy)
            games += 1
    assert games == 2 * (16 + 5 + 4 + 2 + 3)


def test_class_game_steps_once_per_vertex(monkeypatch):
    """Counted, not timed: on a seeded primitive gadget both strategies make
    no ``_eliminate_vertex`` or ``_bits.indices`` call and one class step
    (one ``_class_scores`` call) per step up to the clique tail.  On a
    twin-free grid they play the row game, with its counts: min-fill one
    ``_bits.indices`` call per step; min-degree one step per opening step,
    ``_eliminate_vertex`` call or mass-eliminated twin.  The 9 x 9 grid's
    least degree never reaches ``OPENING_DEGREE``, so the test lowers it to 5,
    where both phases play and mass elimination fires."""
    from fillinlab import chordal, solvers

    calls = {"step": 0, "indices": 0, "class": 0, "opening": 0, "twins": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    step = counted("step", chordal._eliminate_vertex)
    for mod in (chordal, solvers):
        monkeypatch.setattr(mod, "_eliminate_vertex", step)
    count_degree_steps(monkeypatch, calls)
    monkeypatch.setattr(solvers, "OPENING_DEGREE", 5)
    monkeypatch.setattr(_bits, "indices", counted("indices", _bits.indices))
    monkeypatch.setattr(solvers, "_class_scores", counted("class", solvers._class_scores))
    gadget = reduce_primitive(gnp(4, 0.5, np.random.default_rng(1919))).graph
    for g in (gadget, grid(9, 9)):
        edges = g.edge_list()
        for strategy, brute in zip(GREEDY_STRATEGIES, BRUTE_ORDERINGS):
            calls.update(dict.fromkeys(calls, 0))
            greedy_game(g, strategy)
            expect = 1 + clique_tail_brute(g.n, edges, brute(g.n, edges))
            assert expect < g.n
            if g is gadget:
                assert calls == {"step": 0, "indices": 0, "class": expect, "opening": 0, "twins": 0}
            elif strategy == "min-fill":
                assert calls == {"step": 0, "indices": expect, "class": 0, "opening": 0, "twins": 0}
            else:
                assert calls["opening"] + calls["step"] + calls["twins"] == expect
                assert min(calls["opening"], calls["step"], calls["twins"]) > 0
                assert calls["indices"] == calls["step"] and calls["class"] == 0


def _two_phase_corpus(rng):
    """(name, graph): seeded G(n, p) with n <= 80; paths and random trees, whose
    min-degree games end in the opening; 2-D and 3-D grids; a blow-up whose
    true twins sit at shuffled, non-consecutive ids; and a graph of nine."""
    for i in range(24):
        n = int(rng.integers(0, 81))
        yield f"gnp-{i}", gnp(n, float(rng.uniform(0.02, 0.5)), rng)
    for n in (1, 2, 7, 40):
        yield f"path-{n}", Graph.build(n, [(i, i + 1) for i in range(n - 1)])
    for n in (5, 30, 70):
        yield f"tree-{n}", Graph.build(n, [(int(rng.integers(0, i)), i) for i in range(1, n)])
    for rows, cols in ((6, 9), (9, 9)):
        yield f"grid-{rows}x{cols}", grid(rows, cols)
    yield "grid-4x4x4", graph_from_pattern(grid3d_pattern(4))
    yield "twins", blow_up(gnp(14, 0.3, rng), rng.integers(1, 4, size=14), rng)
    # 0 and 2 are twins of degree 3, and 1 has degree 3 too: once 0 and 2 go, 5 and 6
    # have degree 2 and come before 1 only if the mass elimination lowers them.
    yield "twins-apart", Graph.build(9, [
        (0, 2), (0, 5), (0, 6), (2, 5), (2, 6), (5, 6), (5, 7), (6, 8),
        (1, 3), (1, 4), (1, 7), (3, 4), (3, 7), (3, 8), (4, 8), (7, 8),
    ])


def test_two_phase_min_degree_matches_the_rescan(monkeypatch):
    """The row game's min-degree gives the full-rescan ordering and its
    dict-of-sets fill whichever step the opening hands over at: with
    ``OPENING_DEGREE`` at 0 (no opening), 1, 3, the default and above n (no
    packed phase).  At the default, paths and trees end in the opening at
    their clique tail; with no opening the shuffled twins are mass-eliminated."""
    from fillinlab import solvers

    calls = {"opening": 0, "twins": 0}
    count_degree_steps(monkeypatch, calls)
    default = solvers.OPENING_DEGREE
    for name, g in _two_phase_corpus(np.random.default_rng(3434)):
        edges = g.edge_list()
        expect = min_degree_ordering_brute(g.n, edges)
        fill = _fill_codes_brute(g, expect)
        for limit in (0, 1, 3, default, g.n + 1):
            monkeypatch.setattr(solvers, "OPENING_DEGREE", limit)
            calls.update(opening=0, twins=0)
            order, codes = _row_game(g, "min-degree")
            assert order.tolist() == expect, (name, limit)
            assert codes.tolist() == fill, (name, limit)
            if name.startswith(("path", "tree")) and limit == default:
                assert calls["opening"] == 1 + clique_tail_brute(g.n, edges, expect), name
            if name.startswith("twins") and limit == 0:
                assert calls["opening"] == 0 and calls["twins"] > 0, name


def test_min_degree_memory_is_bounded():
    """The traced peak of min-degree on a seeded 5000-row random pattern (about
    three off-diagonal entries per row) stays within 4x its packed rows.  Basis:
    the opening's Python-int rows take about as much as the packed rows, and
    the game holds them and the packed rows they are written back into, once;
    then the working rows, the fill codes and one extraction block."""
    rng = np.random.default_rng(5151)
    n = 5000
    u, w = rng.integers(0, n, size=(2, 3 * n // 2))
    g = Graph.build(n, np.stack([u[u != w], w[u != w]], axis=1))
    assert g.degrees().min() < OPENING_DEGREE <= g.n
    _, peak = traced_peak(greedy_game, g, "min-degree")
    assert peak < 4 * g.packed_rows().nbytes
