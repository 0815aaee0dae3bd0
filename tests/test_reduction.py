import dataclasses
import gc
import hashlib
import json
import math
import weakref
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from fillinlab.chordal import is_chordal, is_split, verify_fillin
from fillinlab.errors import CounterexampleError, GraphInputError, ResourceLimitError
from fillinlab.generate import random_subcubic
from fillinlab.graph import Graph, save_dimacs
from fillinlab.reduction import (
    Coloring,
    ReducedInstance,
    _completed,
    brooks_coloring,
    decision_equivalence_check,
    full_vertices,
    load_instance,
    reduce_colored,
    reduce_primitive,
    save_instance,
    split_completion,
    strip_clique_components,
    verify_sandwich,
)
from fillinlab.solvers import (
    exact_fillin_ordering_oracle,
    exact_vertex_cover,
    greedy_game,
)

from .conftest import all_zero_colors, bridge_chain_cubic, bridged_cubic, named_graphs, random_graph, traced_peak
from .oracles import (
    brooks_triple_missing,
    decode_codes,
    edge_set,
    forbidden_clique_brute,
    full_vertices_brute,
    has_edge,
    min_vertex_cover_brute,
    split_completion_brute,
)


@pytest.fixture(scope="module")
def k2_instance():
    return reduce_primitive(Graph.build(2, [(0, 1)]))


class TestPrimitive:
    def test_k2_shape(self, k2_instance):
        inst = k2_instance
        assert inst.graph.n == 10  # n^3 + n
        assert inst.block_deficit == 4
        assert [len(b) for b in inst.blocks] == [4, 4]
        # U is a clique of 8
        for u in range(2, 10):
            for v in range(u + 1, 10):
                assert has_edge(inst.graph, u, v)
        # each original vertex misses exactly its own block
        for v in (0, 1):
            for u in inst.blocks[v]:
                assert not has_edge(inst.graph, v, int(u))
            for u in inst.blocks[1 - v]:
                assert has_edge(inst.graph, v, int(u))

    def test_vertex_count_formula(self, rng):
        for n in (1, 3, 4):
            g = random_graph(rng, n)
            inst = reduce_primitive(g)
            assert inst.graph.n == n**3 + n

    def test_k2_oracle_window(self, k2_instance):
        phi = len(exact_fillin_ordering_oracle(k2_instance.graph))
        assert phi == 4  # tau * n^2 = 1 * 4, and 4 < (1+1)*4
        tau = exact_vertex_cover(k2_instance.original).size
        assert tau * 4 <= phi < (tau + 1) * 4

    def test_edgeless_gadget_is_split(self):
        inst = reduce_primitive(Graph.build(2))
        assert is_split(inst.graph)[0] and is_chordal(inst.graph)[0]
        assert exact_fillin_ordering_oracle(inst.graph).size == 0

    def test_guardrail(self):
        """The default byte cap, 2**29, refuses n = 41; n = 40 needs 512,832,320 bytes of rows."""
        with pytest.raises(ResourceLimitError, match=r"^gadget on N = 68962 vertices \(n = 41\) refused: .* 594728288 bytes"):
            reduce_primitive(Graph.build(41))

    def test_byte_cap_refuses_before_allocating(self):
        """One cap on the bytes of H's packed rows guards both constructions, and
        refuses before anything is allocated."""
        p3 = Graph.build(3, [(0, 1), (1, 2)])
        cap = 30 * 8  # the n = 3 gadget: 30 rows of one word
        assert reduce_primitive(p3, cap).graph.n == 30
        with pytest.raises(ResourceLimitError, match=r"N = 68 vertices \(n = 4\) .* 1088 bytes, over the limit of 240;"):
            reduce_primitive(Graph.build(4), cap)

        def refusal():
            with pytest.raises(ResourceLimitError) as exc:
                reduce_colored(p3, 33000, Coloring((0, 1, 0), 2))  # 198,000 new vertices, 4.9 GB of rows
            return str(exc.value)

        message, peak = traced_peak(refusal)
        assert "N = 198003 vertices (n = 3)" in message and peak < 1 << 20

    def test_empty_graph_rejected(self):
        with pytest.raises(GraphInputError):
            reduce_primitive(Graph.build(0))

    def test_original_embeds_induced(self, rng):
        g = random_graph(rng, 4)
        inst = reduce_primitive(g)
        sub, _ = inst.graph.induced_subgraph(range(4))
        assert sub == g


BROOKS_DIGEST = "5e8a08e7cfc0853e854a5a6dcf1cb3f3dc3d78350e633f5c55b780c80e53a1d2"

#: (seed, graphs, graph maker, graphs without a (u, a, b) triple) of the cut-vertex corpora
CUT_VERTEX_CORPORA = [
    (4242, 240, lambda rng: _cut_vertex_graph(rng, 3, (2, 1), (4, 6)), 62),
    (3, 120, lambda rng: _cut_vertex_graph(rng, 3, (1, 1, 1), (4, 6)), 15),
    (5, 300, lambda rng: _bridge_chain(rng, int(rng.integers(1, 3))), 70),
]


class TestBrooks:
    def test_petersen(self, graphs):
        col = brooks_coloring(graphs["petersen"], 3)
        assert col.q <= 3
        assert col.monochromatic_edge(graphs["petersen"]) is None

    def test_even_cycle_two_colors(self, graphs):
        col = brooks_coloring(graphs["c6"], 3)
        assert col.q <= 3
        assert col.monochromatic_edge(graphs["c6"]) is None

    def test_k4_rejected(self, graphs):
        with pytest.raises(GraphInputError, match="strip"):
            brooks_coloring(graphs["k4"], 3)

    def test_an_improper_own_coloring_is_a_bug(self, monkeypatch):
        """A monochromatic edge in the constructed coloring is the routine's own
        failure, not bad input."""
        from fillinlab import reduction

        monkeypatch.setattr(reduction, "_greedy_colors", all_zero_colors)
        with pytest.raises(CounterexampleError, match=r"^constructive coloring left edge \(\d+, \d+\) monochromatic$"):
            brooks_coloring(bridged_cubic(), 3)

    def test_degree_bound_enforced(self, graphs):
        with pytest.raises(GraphInputError, match="degree"):
            brooks_coloring(graphs["star5"], 3)

    @pytest.mark.parametrize("d", [3.5, 4.0])
    def test_non_integer_d_rejected(self, graphs, d):
        with pytest.raises(GraphInputError, match="d must be an integer"):
            brooks_coloring(graphs["c6"], d)

    def test_d_below_three_rejected(self, graphs):
        with pytest.raises(GraphInputError):
            brooks_coloring(graphs["c4"], 2)

    def test_regular_components(self, rng):
        from fillinlab.generate import random_regular

        for seed in range(8):
            g = random_regular(10, 3, seed)
            if g.m == 0:
                continue
            from fillinlab.reduction import find_forbidden_clique

            if find_forbidden_clique(g, 3) is not None:
                continue
            col = brooks_coloring(g, 3)
            assert col.q <= 3 and col.monochromatic_edge(g) is None

    @pytest.mark.parametrize("graph", [bridged_cubic, bridge_chain_cubic])
    def test_bridged_cubic(self, graph):
        g = graph()
        assert brooks_triple_missing(g.n, g.edge_list(), 3)
        col = brooks_coloring(g, 3)
        assert col.q <= 3 and col.monochromatic_edge(g) is None

    @pytest.mark.parametrize(
        "seed, count, make, lobed", CUT_VERTEX_CORPORA, ids=["bridged", "three-lobes", "bridge-chains"]
    )
    def test_cut_vertex_corpus(self, seed, count, make, lobed):
        """Relabelled cubic graphs with one bridge, with three lobes at one cut
        vertex, and with several cut vertices in a row.  ``lobed`` of them lack
        the (u, a, b) start and reach the cut-vertex case; a plain greedy pass
        used to colour those, with 4 colors on some bridge chains."""
        rng = np.random.default_rng(seed)
        missing = 0
        for _ in range(count):
            g = make(rng)
            col = brooks_coloring(g, 3)
            assert col.q <= 3 and col.monochromatic_edge(g) is None
            missing += brooks_triple_missing(g.n, g.edge_list(), 3)
        assert missing == lobed

    def test_colors_are_pinned(self):
        """The colors themselves, not only properness, over the cut-vertex corpora
        and 50 seeded subcubic graphs, half of them sparse: together they reach
        every case of the proof (small components 58 times, low-degree roots 74,
        triples 516, cut-vertex lobes 147).  Digest recorded before the coloring
        read its neighbor lists in one pass."""
        digest = hashlib.sha256()
        for seed, count, make, _ in CUT_VERTEX_CORPORA:
            rng = np.random.default_rng(seed)
            for _ in range(count):
                digest.update(json.dumps(brooks_coloring(make(rng), 3).colors).encode())
        for seed in range(50):
            n = 6 + seed % 25
            g = random_subcubic(n, seed) if seed % 2 else _sparse_subcubic(n, seed)
            digest.update(json.dumps(brooks_coloring(g, 3).colors).encode())
        assert digest.hexdigest() == BROOKS_DIGEST


def _sparse_subcubic(n, seed):
    """``random_subcubic``'s sampling with n // 2 edges in place of its random
    target, which it draws first: shuffled pairs while both ends have degree
    below 3, then each isolated vertex joined to a random vertex of degree below
    3, and K_4 components stripped."""
    rng = np.random.default_rng(seed)
    candidates = list(combinations(range(n), 2))
    rng.shuffle(candidates)
    deg, edges = [0] * n, []
    for u, v in candidates:
        if len(edges) == n // 2:
            break
        if deg[u] < 3 and deg[v] < 3:
            edges.append((u, v))
            deg[u] += 1
            deg[v] += 1
    for v in range(n):
        if deg[v] == 0:
            partners = [u for u in range(n) if u != v and deg[u] < 3]
            if not partners:
                break
            u = partners[int(rng.integers(0, len(partners)))]
            edges.append((u, v))
            deg[u] += 1
            deg[v] += 1
    return strip_clique_components(Graph.build(n, edges), 3)[0]


def _holed_side(rng, d, sizes, n):
    """A random d-regular graph on one of ``sizes`` vertices, shifted by n,
    without one of its edges (a, b): (edges, a, b, vertex count)."""
    from fillinlab.generate import random_regular

    k = int(rng.choice(sizes))
    side = random_regular(k, d, rng).edge_list()
    a, b = side[int(rng.integers(len(side)))]
    return [(n + u, n + v) for u, v in side if (u, v) != (a, b)], n + a, n + b, k


def _relabelled(rng, n, edges):
    perm = rng.permutation(n)
    return Graph.build(n, [(int(perm[u]), int(perm[v])) for u, v in edges])


def _cut_vertex_graph(rng, d, ports, sizes):
    """A randomly relabelled d-regular graph with cut vertex 0.  For each
    entry j of ports (they sum to d), a holed side joins vertex 0: for j = 2
    through a and b, for j = 1 through a new vertex joined to a and b and,
    by a bridge, to 0."""
    edges, n = [], 1
    for j in ports:
        side, a, b, k = _holed_side(rng, d, sizes, n)
        edges += side
        if j == 2:
            edges += [(0, a), (0, b)]
        else:
            edges += [(a, n + k), (b, n + k), (0, n + k)]
            k += 1
        n += k
    return _relabelled(rng, n, edges)


def _bridge_chain(rng, middles, sizes=(4, 6)):
    """A randomly relabelled cubic graph of middles + 2 holed sides in a row,
    consecutive sides joined by a bridge: an end side's bridge leaves a new
    vertex joined to a and b, a middle side's two bridges leave a and b."""
    edges, n, ends = [], 0, []
    for i in range(middles + 2):
        side, a, b, k = _holed_side(rng, 3, sizes, n)
        edges += side
        if 0 < i <= middles:
            ends += [a, b]
        else:
            edges += [(a, n + k), (b, n + k)]
            ends.append(n + k)
            k += 1
        n += k
    edges += zip(ends[::2], ends[1::2])
    return _relabelled(rng, n, edges)


def _coloring_corpus():
    """(label, graph, d) for seeded subcubic graphs on n = 4..60, seeded
    3- and 4-regular graphs whose components all admit the (u, a, b) start,
    and the named fixture graphs at every d in 3..5 they satisfy."""
    from fillinlab.generate import random_regular, random_subcubic
    from fillinlab.reduction import find_forbidden_clique

    rng = np.random.default_rng(9090)
    for n in range(4, 61):
        yield f"subcubic-{n}", random_subcubic(n, rng), 3
    for d, sizes in ((3, range(4, 41, 2)), (4, range(5, 31))):
        for n in sizes:
            for i in range(4):
                g = random_regular(n, d, rng)
                if find_forbidden_clique(g, d) is None and not brooks_triple_missing(
                    g.n, g.edge_list(), d
                ):
                    yield f"regular-{d}-{n}-{i}", g, d
    for name, g in sorted(named_graphs().items()):
        for d in (3, 4, 5):
            if g.n and int(g.degrees().max()) <= d and find_forbidden_clique(g, d) is None:
                yield f"{name}-{d}", g, d


# Recorded with the search-then-greedy-fallback colouring, on inputs where
# the fallback never fired; the search order must stay exactly as it was.
COLORING_DIGEST = "2e11ea5508f26083b88c39ceadb6423bf84ae4d82dcc8acd089f6b7db3fe23c0"
COLORING_COUNT = 254


def test_coloring_digest():
    digest = hashlib.sha256()
    count = 0
    for label, g, d in _coloring_corpus():
        col = brooks_coloring(g, d)
        digest.update(json.dumps([label, col.q, list(col.colors)]).encode())
        count += 1
    assert count == COLORING_COUNT
    assert digest.hexdigest() == COLORING_DIGEST


def _clique_search_corpus():
    """(graph, d, clique count) for d = 3..5: a random part of degree <= d
    and a K_{d+1} minus an edge, with zero, one or two K_{d+1} components
    placed at the start, the middle or the end of the id range."""
    rng = np.random.default_rng(1515)
    placements = [(), ("start",), ("middle",), ("end",), ("start", "end"), ("middle", "end")]
    for d in (3, 4, 5):
        clique = list(combinations(range(d + 1), 2))
        for places in placements:
            for _ in range(8):
                m = int(rng.integers(d + 2, 40))
                degree, part = [0] * m, set()
                for u, v in np.sort(rng.integers(0, m, size=(2 * d * m, 2))).tolist():
                    if u != v and degree[u] < d and degree[v] < d and (u, v) not in part:
                        part.add((u, v))
                        degree[u] += 1
                        degree[v] += 1
                groups = [("random-a", m // 2, part), ("near", d + 1, clique[1:])]
                groups += [("random-b", m - m // 2, None)]
                for where, at in (("start", 0), ("middle", 2), ("end", len(groups))):
                    if where in places:
                        groups.insert(at, (where, d + 1, clique))
                ids, edges, n = {}, [], 0
                for name, size, group_edges in groups:
                    ids[name] = range(n, n + size)
                    n += size
                    if name not in ("random-a", "random-b"):
                        edges += [(ids[name][a], ids[name][b]) for a, b in group_edges]
                # the random part's vertex u lands on id (random-a + random-b)[u]
                labels = [*ids["random-a"], *ids["random-b"]]
                edges += [(labels[u], labels[v]) for u, v in part]
                yield Graph.build(n, edges), d, len(places)


@pytest.mark.parametrize("block_bytes", [None, 64], ids=["one-block", "64-byte-blocks"])
def test_forbidden_clique_matches_per_vertex_search(monkeypatch, block_bytes):
    """All degree-d vertices tested at once return the first one's clique."""
    from fillinlab import _bits
    from fillinlab.reduction import find_forbidden_clique

    if block_bytes:
        monkeypatch.setattr(_bits, "UNPACK_BLOCK_BYTES", block_bytes)
    graphs = found = 0
    for g, d, cliques in _clique_search_corpus():
        got = find_forbidden_clique(g, d)
        assert got == forbidden_clique_brute(g.n, g.edge_list(), d)
        assert (got is None) <= (cliques == 0)
        graphs += 1
        found += got is not None
    assert graphs == 144 and found >= 120


class TestColored:
    def test_prism_24_vertices(self, graphs):
        col = brooks_coloring(graphs["prism"], 3)
        assert col.q == 3
        inst = reduce_colored(graphs["prism"], 1, col)
        assert inst.graph.n == (1 * 3 + 1) * 6  # 24
        assert inst.block_deficit == 6

    def test_unused_color_block_sees_everyone(self):
        k33 = Graph.build(6, [(i, j) for i in range(3) for j in range(3, 6)])
        col = Coloring(colors=(0, 0, 0, 1, 1, 1), q=3)
        inst = reduce_colored(k33, 1, col)
        for u in inst.blocks[2]:
            for v in range(6):
                assert has_edge(inst.graph, int(u), v)

    @pytest.mark.parametrize(
        "colors, q, name", [((0, 1, 0, 1), 2.0, "q"), ((False, True, False, True), 2, "color")]
    )
    def test_non_integer_coloring_rejected(self, graphs, colors, q, name):
        with pytest.raises(GraphInputError, match=f"{name} must be an integer"):
            Coloring(colors, q).validate(graphs["c4"])

    @pytest.mark.parametrize("b", [2.5, True, "2"])
    def test_non_integer_block_scale_rejected(self, graphs, b):
        with pytest.raises(GraphInputError, match="b must be an integer"):
            reduce_colored(graphs["c4"], b, Coloring((0, 1, 0, 1), 2))

    def test_numpy_block_scale_builds_the_same_gadget(self, graphs):
        col = Coloring((0, 1, 0, 1), 2)
        want = reduce_colored(graphs["c4"], 2, col)
        got = reduce_colored(graphs["c4"], np.int64(2), col)
        assert type(got.b) is int and got.b == 2
        assert got.graph.edge_list() == want.graph.edge_list()
        assert [b.tolist() for b in got.blocks] == [b.tolist() for b in want.blocks]

    def test_improper_coloring_rejected(self, graphs):
        bad = Coloring(colors=(0, 0, 1, 1, 2, 2), q=3)
        with pytest.raises(GraphInputError, match="monochromatic"):
            reduce_colored(graphs["prism"], 1, bad)

    def test_cell_guardrail(self, graphs):
        col = brooks_coloring(graphs["prism"], 3)
        with pytest.raises(ResourceLimitError, match=r"^gadget on N = 18000006 vertices \(n = 6\) refused"):
            reduce_colored(graphs["prism"], 10**6, col)

    def test_edgeless_split(self):
        g = Graph.build(3)
        inst = reduce_colored(g, 1, Coloring(colors=(0, 0, 0), q=1))
        assert is_split(inst.graph)[0]


class TestSplitCompletion:
    def test_k2_single_cover(self, k2_instance):
        fill = split_completion(k2_instance, {0})
        assert len(fill) == 4  # 1*4 + 0 - 0

    def test_empty_cover_edgeless(self):
        inst = reduce_primitive(Graph.build(2))
        assert split_completion(inst, set()).size == 0

    def test_size_formula(self, rng):
        for _ in range(15):
            g = random_graph(rng, int(rng.integers(2, 5)))
            inst = reduce_primitive(g)
            cover = exact_vertex_cover(g).vertices
            fill = split_completion(inst, cover)
            inside = math.comb(len(cover), 2) - len(
                g.induced_subgraph(cover)[0].edge_list()
            )
            assert len(fill) == len(cover) * inst.block_deficit + inside

    def test_colored_split_bound(self, graphs):
        col = brooks_coloring(graphs["prism"], 3)
        inst = reduce_colored(graphs["prism"], 1, col)
        tau_res = exact_vertex_cover(graphs["prism"])
        fill = split_completion(inst, tau_res.vertices)
        tau = tau_res.size
        assert len(fill) <= 1 * 6 * tau + math.comb(tau, 2)

    def test_non_cover_rejected(self, k2_instance):
        with pytest.raises(GraphInputError, match=r"\(0, 1\) is uncovered"):
            split_completion(k2_instance, set())

    def test_cover_ids_must_be_integers(self, k2_instance):
        assert np.array_equal(split_completion(k2_instance, [np.int64(0)]), split_completion(k2_instance, {0}))
        for cover in ([0.5], [1.0], [True], ["0"]):
            with pytest.raises(GraphInputError):
                split_completion(k2_instance, cover)

    def test_result_makes_split_chordal(self, rng):
        g = random_graph(rng, 4)
        inst = reduce_primitive(g)
        fill = split_completion(inst, exact_vertex_cover(g).vertices)
        done = inst.graph.add_edges(fill)
        assert is_split(done)[0] and is_chordal(done)[0]


class TestFullVertices:
    def test_everything_full(self, k2_instance):
        inst = k2_instance
        fill = {(v, int(u)) for v in (0, 1) for u in inst.blocks[v]}
        assert full_vertices(inst, fill) == {0, 1}

    def test_roundtrip_primitive(self, rng):
        for _ in range(15):
            g = random_graph(rng, int(rng.integers(2, 5)))
            inst = reduce_primitive(g)
            cover = set(exact_vertex_cover(g).vertices)
            # grow to an arbitrary (non-minimum) cover too
            extra = cover | {int(v) for v in rng.choice(g.n, size=1)}
            for c in (cover, extra):
                assert full_vertices(inst, split_completion(inst, c)) == c

    def test_roundtrip_colored(self, rng):
        from fillinlab.generate import random_subcubic

        for _ in range(10):
            g = random_subcubic(8, rng)
            if g.m == 0 or g.n == 0:
                continue
            col = brooks_coloring(g, 3)
            inst = reduce_colored(g, 2, col)
            cover = set(exact_vertex_cover(g).vertices)
            assert full_vertices(inst, split_completion(inst, cover)) == cover

    def test_empty_fill_empty_cover(self):
        inst = reduce_primitive(Graph.build(2))
        assert full_vertices(inst, frozenset()) == frozenset()

    @pytest.mark.parametrize(
        "bad",
        [{(0, 1)}, [(0, 2.0)], [(0, 10)], [(3, 3)], [(True, 2)]],
        ids=["edge", "float", "out_of_range", "self_loop", "bool"],
    )
    def test_invalid_fill_rejected(self, k2_instance, bad):
        with pytest.raises(GraphInputError, match="^invalid fill-in"):
            full_vertices(k2_instance, bad)

    def test_accounting_inequality(self, rng):
        from fillinlab.chordal import elimination_fill_codes

        g = random_graph(rng, 4)
        inst = reduce_primitive(g)
        for _ in range(10):
            fill = elimination_fill_codes(inst.graph, rng.permutation(inst.graph.n))
            full = full_vertices(inst, fill)
            assert len(fill) >= inst.block_deficit * len(full)


class TestVerifySandwich:
    def test_k2(self, rng):
        rep = verify_sandwich(Graph.build(2, [(0, 1)]), rng=rng)
        assert rep.passed
        assert rep.outputs["phi_gadget"] == 4
        assert rep.outputs["tau"] == 1

    def test_edgeless(self, rng):
        rep = verify_sandwich(Graph.build(2), rng=rng)
        assert rep.passed and rep.outputs["phi_gadget"] == 0

    def test_p3_window(self, graphs, rng):
        rep = verify_sandwich(graphs["p3"], rng=rng)
        assert rep.passed
        assert rep.outputs["tau"] == 1
        assert rep.outputs["constructive_upper_bound"] == 9  # 1*9 + 0 - 0 < 18

    def test_random_instances(self, rng):
        for n in (2, 3, 4):
            g = random_graph(rng, n)
            assert verify_sandwich(g, rng=rng).passed

    def test_colored_instance_rejected(self, graphs):
        col = brooks_coloring(graphs["prism"], 3)
        inst = reduce_colored(graphs["prism"], 1, col)
        with pytest.raises(GraphInputError):
            verify_sandwich(graphs["prism"], inst)

    def test_gadget_of_another_graph_rejected(self, graphs):
        """P3's gadget read as the triangle's would refute the window (tau = 2 > 1 full vertex)."""
        triangle = Graph.build(3, [(0, 1), (1, 2), (0, 2)])
        with pytest.raises(GraphInputError, match=r"^the primitive audits of Graph\(n=3, m=3\) got the primitive gadget of Graph\(n=3, m=2\)$"):
            verify_sandwich(triangle, inst=reduce_primitive(graphs["p3"]))


class TestDecisionEquivalence:
    def test_k2_c1_constructive(self, k2_instance):
        fill = split_completion(k2_instance, {0})
        rep = decision_equivalence_check(
            k2_instance.original, 1, fill, k2_instance
        )
        assert rep.passed  # 4 <= 2*4-1 = 7 and extracted cover of size 1 <= 1

    def test_k2_c0_heuristics_exceed(self, k2_instance):
        for strategy in ("min-degree", "min-fill"):
            fill = greedy_game(k2_instance.graph, strategy)[1]
            rep = decision_equivalence_check(
                k2_instance.original, 0, fill, k2_instance
            )
            assert rep.passed
            assert len(fill) > 3  # (0+1)*4 - 1

    def test_edgeless_c0(self):
        g = Graph.build(2)
        inst = reduce_primitive(g)
        rep = decision_equivalence_check(g, 0, frozenset(), inst)
        assert rep.passed

    def test_pair_given_both_ways_counts_once(self):
        g = Graph.build(3, [(0, 1), (1, 2)])
        inst = reduce_primitive(g)
        fill = split_completion(inst, {1})
        pairs = decode_codes(fill, inst.graph.n)
        both_ways = pairs + [(b, a) for a, b in pairs]
        assert verify_fillin(inst.graph, both_ways)
        rep = decision_equivalence_check(g, 1, both_ways, inst)
        assert rep.outputs["fillin_size"] == len(fill) == 9
        assert [r.name for r in rep.checks] == [
            "constructive_within_bound",
            "extracted_cover_at_most_c",
        ]
        assert rep.passed

    def test_colored_instance_rejected(self):
        """A colored gadget's blocks are not n^2 wide, so the threshold (c+1)n^2 - 1
        would read its fill-ins wrong and report a false hard failure."""
        g = bridged_cubic()
        inst = reduce_colored(g, 1, brooks_coloring(g, 3))
        fill = split_completion(inst, exact_vertex_cover(g).vertices)
        with pytest.raises(GraphInputError, match=r"^the primitive audits of Graph\(n=10, m=15\) got the colored gadget of Graph\(n=10, m=15\)$"):
            decision_equivalence_check(g, 4, fill, inst)

    def test_random_pairs(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 5))
            g = random_graph(rng, n)
            inst = reduce_primitive(g)
            c = int(rng.integers(0, n + 1))
            fill = greedy_game(inst.graph, "min-degree")[1]
            assert decision_equivalence_check(g, c, fill, inst).passed


class TestStripCliqueComponents:
    def test_k4_plus_edge(self):
        g = Graph.build(
            6, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (4, 5)]
        )
        stripped, mapping, forced = strip_clique_components(g, 3)
        assert sorted(forced) == [0, 1, 2]
        assert stripped.n == 2 and stripped.m == 1
        assert list(mapping) == [4, 5]

    def test_no_clique_components(self, graphs):
        stripped, mapping, forced = strip_clique_components(graphs["c5"], 3)
        assert forced == [] and stripped == graphs["c5"]

    def test_forced_plus_rest_is_optimal(self):
        g = Graph.build(
            7, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (4, 5), (5, 6)]
        )
        stripped, mapping, forced = strip_clique_components(g, 3)
        rest = exact_vertex_cover(stripped).size
        assert len(forced) + rest == min_vertex_cover_brute(7, edge_set(g))


from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_roundtrip_property_primitive(data):
    n = data.draw(st.integers(1, 4))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = data.draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    g = Graph.build(n, edges)
    inst = reduce_primitive(g)
    # any superset of a minimum cover is a cover; the map must invert exactly
    base = set(exact_vertex_cover(g).vertices)
    extra = data.draw(st.sets(st.integers(0, n - 1)))
    cover = base | extra
    assert full_vertices(inst, split_completion(inst, cover)) == cover


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_block_accounting_property(data):
    n = data.draw(st.integers(2, 4))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = data.draw(st.sets(st.sampled_from(pairs)))
    g = Graph.build(n, edges)
    inst = reduce_primitive(g)
    order = data.draw(st.permutations(range(inst.graph.n)))
    from fillinlab.chordal import elimination_fill_codes

    fill = elimination_fill_codes(inst.graph, order)
    full = full_vertices(inst, fill)
    assert len(fill) >= inst.block_deficit * len(full)
    assert is_vertex_cover_safe(inst.original, full)


def is_vertex_cover_safe(graph, cover):
    cover = set(cover)
    return all(u in cover or v in cover for u, v in graph.edge_list())


class TestSerialization:
    def test_roundtrip_primitive(self, tmp_path, k2_instance):
        path = tmp_path / "inst.col"
        save_instance(k2_instance, path)
        loaded = load_instance(path)
        assert loaded.graph == k2_instance.graph
        assert loaded.kind == "primitive"
        assert [list(b) for b in loaded.blocks] == [
            list(b) for b in k2_instance.blocks
        ]
        assert loaded.original == k2_instance.original

    def test_roundtrip_colored(self, tmp_path, graphs):
        col = brooks_coloring(graphs["prism"], 3)
        inst = reduce_colored(graphs["prism"], 2, col)
        path = tmp_path / "colored.col"
        save_instance(inst, path)
        loaded = load_instance(path)
        assert loaded.graph == inst.graph
        assert loaded.b == 2 and loaded.q == col.q
        assert loaded.coloring.colors == col.colors


def _load_edited(tmp_path, inst, **edits):
    """Save ``inst``, overwrite sidecar fields, and load it back."""
    path = tmp_path / "inst.col"
    sidecar = save_instance(inst, path)
    with open(sidecar) as fh:
        side = json.load(fh)
    side.update(edits)
    with open(sidecar, "w") as fh:
        json.dump(side, fh)
    return load_instance(path)


class TestSidecarIsInput:
    def test_fractional_n_is_refused(self, tmp_path, k2_instance):
        with pytest.raises(GraphInputError, match="^n must be an integer"):
            _load_edited(tmp_path, k2_instance, n=2.7)

    def test_bool_n_is_an_input_error(self, tmp_path, k2_instance):
        with pytest.raises(GraphInputError, match="^n must be an integer"):
            _load_edited(tmp_path, k2_instance, n=True)  # not read as 1

    def test_colored_needs_b(self, tmp_path, graphs):
        inst = reduce_colored(graphs["prism"], 1, brooks_coloring(graphs["prism"], 3))
        with pytest.raises(GraphInputError, match="^b must be an integer"):
            _load_edited(tmp_path, inst, b=None)

    def test_colored_needs_integer_q(self, tmp_path, graphs):
        inst = reduce_colored(graphs["prism"], 1, brooks_coloring(graphs["prism"], 3))
        with pytest.raises(GraphInputError, match="^q must be an integer"):
            _load_edited(tmp_path, inst, q=2.5)

    def test_unknown_reduction(self, tmp_path, k2_instance):
        with pytest.raises(GraphInputError, match="reduction must be"):
            _load_edited(tmp_path, k2_instance, reduction="bogus")

    def test_block_count_follows_the_kind(self, tmp_path):
        """A colored gadget with b = n on a 2-colored path has blocks of n^2
        that partition U; read as primitive, it would need a third block."""
        p3 = Graph.build(3, [(0, 1), (1, 2)])
        inst = reduce_colored(p3, 3, Coloring((0, 1, 0), 2))
        with pytest.raises(GraphInputError, match="gadget has 21 vertices, not n [+] 3 blocks of 9$"):
            _load_edited(tmp_path, inst, reduction="primitive")

    def test_sidecar_must_be_json(self, tmp_path, k2_instance):
        path = tmp_path / "inst.col"
        sidecar = save_instance(k2_instance, path)
        with open(sidecar, "w") as fh:
            fh.write("{not json")
        with pytest.raises(GraphInputError, match="not JSON") as exc:
            load_instance(path)
        assert str(exc.value).startswith(f"{sidecar}: ")

    def test_blocks_must_partition_the_gadget(self, tmp_path, k2_instance):
        blocks = k2_instance.blocks.tolist()
        blocks[1][0] = blocks[0][0]
        with pytest.raises(GraphInputError, match="blocks differ from the primitive gadget's layout"):
            _load_edited(tmp_path, k2_instance, blocks=blocks)

    @pytest.mark.parametrize("edit", ["reordered", "unused-swapped", "dropped", "not-a-list"])
    def test_blocks_must_be_the_layout(self, tmp_path, edit):
        """The blocks of a sidecar are read only to be compared with the layout
        of its parameters: a partition that the gadget's edges would allow, with a
        block's ids out of order or two unused colors' blocks swapped, is refused
        too, naming the sidecar."""
        k33 = Graph.build(6, [(i, j) for i in range(3) for j in range(3, 6)])
        inst = reduce_colored(k33, 1, Coloring((0, 0, 0, 1, 1, 1), 4))
        blocks = inst.blocks.tolist()
        blocks = {
            "reordered": [blocks[0][::-1], *blocks[1:]],
            "unused-swapped": [*blocks[:2], blocks[3], blocks[2]],
            "dropped": blocks[:3],
            "not-a-list": None,
        }[edit]
        with pytest.raises(GraphInputError, match=r"inst\.col\.json: blocks differ from the colored gadget's layout, "
                           r"block c being n \+ c\*D \.\. n \+ \(c\+1\)\*D - 1 with D = 6$"):
            _load_edited(tmp_path, inst, blocks=blocks)
        assert _load_edited(tmp_path, inst).blocks.tolist() == inst.blocks.tolist()

    @pytest.mark.parametrize("n, b, q, match", [
        (0, 1, 10**12, r"n = 0 is not in 1\.\.6, the gadget's vertex count"),
        (-1, -1, 7, r"n = -1 is not in 1\.\.6, the gadget's vertex count"),
        (10**30, 1, 2, rf"n = {10**30} is not in 1\.\.6, the gadget's vertex count"),
        (6, 0, 10**12, "block scale b must be positive"),
    ], ids=["n-zero", "n-negative", "n-past-the-gadget", "b-zero"])
    def test_parameters_are_bounded_before_use(self, tmp_path, n, b, q, match):
        """n is bounded by the gadget before ``range(n)`` is read, and b is positive
        before a layout is made: with n = 0 or b = 0 a graph would pass the vertex
        count with 10**12 empty blocks, and with n = -1 and b = -1 a graph of 6
        vertices with 7 blocks of one."""
        path = tmp_path / "h.col"
        save_dimacs(Graph.build(6, [(i, j) for i in range(3) for j in range(3, 6)]), path)
        side = {"reduction": "colored", "n": n, "b": b, "q": q, "blocks": [], "coloring": [0, 0, 0, 1, 1, 1]}
        (tmp_path / "h.col.json").write_text(json.dumps(side))
        with pytest.raises(GraphInputError, match=f"h.col.json: {match}$"):
            load_instance(path)


def _gadget_corpus():
    """Primitive gadgets for n in 1..7 on seeded G(n, p), and colored gadgets
    for b in 1..3 on seeded subcubic graphs."""
    from fillinlab.generate import gnp, random_subcubic

    rng = np.random.default_rng(5151)
    for n in range(1, 8):
        yield reduce_primitive(gnp(n, float(rng.uniform(0.2, 0.8)), rng))
    for b in (1, 2, 3):
        for n in (5, 6, 9):
            g = random_subcubic(n, rng)
            yield reduce_colored(g, b, brooks_coloring(g, 3))


# Recorded with separate primitive and colored gadget builders; the shared
# builder must reproduce the files, deficits and missing blocks byte for byte.
GADGET_DIGEST = "e084b43a3c5ccdcc98d7bcf4d1947ac2874c9209933737f3ef37e70704109a6a"


def test_gadget_identity_digest(tmp_path):
    digest = hashlib.sha256()
    count = 0
    for inst in _gadget_corpus():
        path = tmp_path / "gadget.col"
        sidecar = save_instance(inst, path)
        digest.update(path.read_bytes())
        with open(sidecar, "rb") as fh:
            digest.update(fh.read())
        missing = inst.blocks[inst.block_of].tolist()
        digest.update(json.dumps([inst.block_deficit, missing]).encode())
        count += 1
    assert count == 7 + 9
    assert digest.hexdigest() == GADGET_DIGEST


def test_layout_partitions_the_new_vertices():
    """On the gadget corpus, the derived blocks partition n..N-1 in D-sized rows,
    and each original vertex misses exactly its own block of H's edges: the
    invariant that ``validate`` no longer re-checks on stored blocks."""
    for inst in _gadget_corpus():
        n, N, blocks = inst.n_original, inst.graph.n, inst.blocks
        assert blocks.shape == (inst.nblocks, inst.block_deficit)
        assert sorted(blocks.ravel().tolist()) == list(range(n, N))
        h = edge_set(inst.graph)
        for v in range(n):
            assert {u for u in range(n, N) if (v, u) not in h} == set(blocks[inst.block_of[v]].tolist())


def test_primitive_is_colored_under_identity_coloring():
    """The per-vertex gadget is the colored gadget with one color per vertex
    and block scale b = n."""
    from fillinlab.generate import gnp

    rng = np.random.default_rng(6262)
    for n in range(1, 9):
        for _ in range(3):
            g = gnp(n, float(rng.uniform(0.1, 0.9)), rng)
            prim = reduce_primitive(g)
            col = reduce_colored(g, n, Coloring(tuple(range(n)), n))
            assert prim.graph == col.graph
            assert [b.tolist() for b in prim.blocks] == [b.tolist() for b in col.blocks]
            assert prim.block_deficit == col.block_deficit == n * n
            assert prim.block_of.tolist() == col.block_of.tolist()


def _certificate_map_corpus():
    """Seeded primitive gadgets for n in 2..7 and colored gadgets for b in 1..2."""
    from fillinlab.generate import gnp, random_subcubic

    rng = np.random.default_rng(7373)
    for n in range(2, 8):
        g = gnp(n, float(rng.uniform(0.2, 0.8)), rng)
        yield g, reduce_primitive(g), int(rng.integers(2**32))
    for b in (1, 2):
        for n in (6, 9):
            g = random_subcubic(n, rng)
            yield g, reduce_colored(g, b, brooks_coloring(g, 3)), int(rng.integers(2**32))


# Recorded before the certificate maps moved onto packed rows; reports, split
# completions and full-vertex sets must reproduce byte for byte.
CERTIFICATE_MAP_DIGEST = "a0e87a00e8689d163248fa13d6eeea68ebca91b5c08beb2f89c3bdc0bafaf2f3"


def test_certificate_map_digest():
    from fillinlab.reduction import produced_fillins

    digest = hashlib.sha256()
    for g, inst, seed in _certificate_map_corpus():
        cover = exact_vertex_cover(g).vertices
        split = split_completion(inst, cover)
        digest.update(json.dumps(decode_codes(split, inst.graph.n)).encode())
        fills = produced_fillins(inst, np.random.default_rng(seed), random_orderings=1)
        fills["split-completion"] = split
        for name, fill in sorted(fills.items()):
            full = sorted(full_vertices(inst, fill))
            digest.update(json.dumps([name, len(fill), full]).encode())
        if inst.kind != "primitive":
            continue
        rep = verify_sandwich(g, inst, np.random.default_rng(seed), random_orderings=1)
        digest.update(rep.dumps().encode())
        tau = len(cover)
        for c in sorted({max(tau - 1, 0), tau}):
            for name in ("min-degree", "split-completion"):
                rep = decision_equivalence_check(g, c, fills[name], inst)
                digest.update(rep.dumps().encode())
    assert digest.hexdigest() == CERTIFICATE_MAP_DIGEST


def _noisy(rng, fill):
    """The fill as a shuffled list with each pair in a random orientation and
    about a third of them repeated."""
    pairs = [(b, a) if rng.random() < 0.5 else (a, b) for a, b in sorted(fill)]
    pairs += [pairs[i][::-1] for i in range(0, len(pairs), 3)]
    return [pairs[i] for i in rng.permutation(len(pairs))]


def test_certificate_maps_match_set_oracles():
    """split_completion and full_vertices agree with their dict-of-sets
    definitions on primitive and colored gadgets, for minimum and larger
    covers and for greedy and random-ordering fills listed in any orientation
    with repeats."""
    from fillinlab.generate import gnp, random_subcubic
    from fillinlab.reduction import produced_fillins

    rng = np.random.default_rng(9191)
    corpus = [reduce_primitive(gnp(n, float(rng.uniform(0.2, 0.8)), rng)) for n in (2, 3, 4, 5)]
    for b in (1, 2):
        g = random_subcubic(8, rng)
        corpus.append(reduce_colored(g, b, brooks_coloring(g, 3)))
    for inst in corpus:
        n, N = inst.n_original, inst.graph.n
        h_edges = edge_set(inst.graph)
        missing = dict(enumerate(inst.blocks[inst.block_of].tolist()))
        tau_cover = set(exact_vertex_cover(inst.original).vertices)
        covers = [tau_cover, tau_cover | {int(rng.integers(n))}, set(range(n))]
        fills = list(produced_fillins(inst, rng, random_orderings=2).values())
        for cover in covers:
            split = split_completion(inst, cover)
            assert set(decode_codes(split, N)) == split_completion_brute(N, h_edges, cover | set(range(n, N)))
            fills.append(split)
        for fill in fills:
            want = full_vertices_brute(missing, decode_codes(fill, N))
            noisy = _noisy(rng, decode_codes(fill, N))
            assert full_vertices(inst, fill) == want
            assert full_vertices(inst, noisy) == want
            if inst.kind == "primitive":  # the decision threshold is stated for n^2 blocks
                rep = decision_equivalence_check(inst.original, len(tau_cover), noisy, inst)
                assert rep.outputs["fillin_size"] == len(fill)


def test_sandwich_checks_each_fill_once(monkeypatch):
    """verify_sandwich runs one chordality scan and reads the pairs once per
    produced fill-in, and does neither for the split completion, which
    is_split already certified; no audit rebuilds a filled gadget from pairs.
    A gadget above 64 vertices is scanned on the filled graph's true-twin
    quotient, one vertex per class."""
    from fillinlab import chordal, graph
    from fillinlab.generate import cycle
    from fillinlab.reduction import produced_fillins
    from fillinlab.transfer import TransferConfig, exact_backed_completion, vc_via_completion

    scans, reads, rebuilds = [], [], []
    scan, normalize, add_edges = chordal._mcs_scan, graph.normalize_edges, Graph.add_edges
    monkeypatch.setattr(chordal, "_mcs_scan", lambda g: scans.append(g.n) or scan(g))

    def counted(vertex_count, edges):
        reads.append(vertex_count)
        return normalize(vertex_count, edges)

    monkeypatch.setattr(graph, "normalize_edges", counted)
    monkeypatch.setattr(chordal, "normalize_edges", counted)
    monkeypatch.setattr(Graph, "add_edges", lambda g, e: rebuilds.append(g.n) or add_edges(g, e))
    for g in (Graph.build(2, [(0, 1)]), Graph.build(4, [(0, 1), (1, 2), (2, 3)])):
        inst = reduce_primitive(g)
        fills = produced_fillins(inst, rng=np.random.default_rng(3), random_orderings=1)
        filled = [add_edges(inst.graph, f).packed_rows() for f in fills.values()]
        classes = [graph.twin_classes(rows)[0].size for rows in filled]
        scans.clear()
        reads.clear()
        rep = verify_sandwich(g, inst, rng=np.random.default_rng(3), random_orderings=1)
        assert rep.passed
        # min-degree, min-fill, random-order-0
        assert scans == (classes if inst.graph.n > 64 else [inst.graph.n] * 3)
        assert reads == [inst.graph.n] * 3
        assert rebuilds == []
    c6 = cycle(6)
    reads.clear()
    config = TransferConfig(epsilon=Fraction(1, 2), mode="completion")
    cover, audit = vc_via_completion(c6, exact_backed_completion, config)
    assert audit.passed and len(cover) == audit.tau == 3
    assert reads == [] and rebuilds == []


def _toggled(inst, pairs):
    """inst with the gadget edges ``pairs`` toggled and its bookkeeping kept."""
    edges = set(inst.graph.edge_list()) ^ {(min(p), max(p)) for p in pairs}
    return dataclasses.replace(inst, graph=Graph.build(inst.graph.n, sorted(edges)))


class TestFirstFailure:
    """Each structural check, corrupted in two places, names the failure that
    comes first: the smallest vertex, or the first edge in ``edge_list`` order."""

    P4 = Graph.build(4, [(0, 1), (1, 2), (2, 3)])
    #: edges (1, 5) and (2, 3) are monochromatic; sorted by larger end, (2, 3) would come first
    TWO_BAD = Graph.build(6, [(0, 1), (0, 4), (1, 5), (2, 3)])
    TWO_BAD_COLORS = (2, 0, 1, 1, 0, 0)

    @pytest.mark.parametrize(
        "first, second",
        [(1, 3), (0, 2), (2, 3)],
    )
    @pytest.mark.parametrize("extra", [False, True], ids=["dropped", "added"])
    def test_smallest_vertex_with_a_wrong_pattern(self, first, second, extra):
        inst = reduce_primitive(self.P4)
        pairs = []
        for v in (second, first):
            # an edge into v's own block, or a dropped edge into the next vertex's block
            w = inst.blocks[v][3] if extra else inst.blocks[(v + 1) % 4][5]
            pairs.append((v, int(w)))
        with pytest.raises(CounterexampleError, match=f"^vertex {first} has the wrong"):
            _toggled(inst, pairs).validate()

    def test_first_monochromatic_edge(self):
        col = Coloring(self.TWO_BAD_COLORS, 3)
        assert col.monochromatic_edge(self.TWO_BAD) == (1, 5)
        assert all(type(v) is int for v in col.monochromatic_edge(self.TWO_BAD))
        with pytest.raises(GraphInputError, match=r"^coloring is improper: edge \(1, 5\) is monochromatic$"):
            col.validate(self.TWO_BAD)
        assert Coloring((0, 1, 0, 1, 0, 1), 2).monochromatic_edge(Graph.build(6)) is None

    def test_vertex_count_comes_first(self):
        """H's vertex count is tested against the layout before any row is read."""
        inst = reduce_colored(self.P4, 2, Coloring((0, 1, 0, 1), 2))
        with pytest.raises(CounterexampleError, match="^gadget has 20 vertices, not n [+] 2 blocks of 12$"):
            dataclasses.replace(inst, b=3).validate()  # the U patterns are wrong too


class TestKeptFacts:
    """A graph keeps its cover per node budget, its Brooks coloring per d and the
    checked coloring and gadget graph per (b, coloring object, max_bytes), and a gadget
    graph keeps its split completion per cover; an error keeps nothing and is
    raised on every call."""

    def test_each_fact_is_kept(self):
        g = bridged_cubic()
        col = brooks_coloring(g, 3)
        inst = reduce_colored(g, 2, col)
        cover = exact_vertex_cover(g)
        done = _completed(inst, cover.vertices)
        assert brooks_coloring(g, 3) is col and exact_vertex_cover(g) is cover
        second = reduce_colored(g, 2, col)
        assert second.graph is inst.graph
        assert second.coloring is col and inst.coloring is col
        assert _completed(second, [*sorted(cover.vertices, reverse=True), min(cover.vertices)]) is done
        assert reduce_colored(g, 1, col).graph is not inst.graph
        # keyed by the coloring object, never by its content
        same = Coloring(col.colors, col.q)
        other = reduce_colored(g, 2, same)
        assert other.graph is not inst.graph and other.coloring is same

    def test_an_instance_is_a_plain_value(self):
        """An instance holds four immutable fields, its blocks derived from them,
        and keeps nothing itself."""
        g = bridged_cubic()
        inst = reduce_colored(g, 1, brooks_coloring(g, 3))
        assert [f.name for f in dataclasses.fields(ReducedInstance)] == ["graph", "original", "b", "coloring"]
        assert (inst.kind, inst.q) == ("colored", inst.coloring.q)
        with pytest.raises(dataclasses.FrozenInstanceError):
            inst.b = 2
        prim = reduce_primitive(g)
        assert (prim.kind, prim.q, prim.b, prim.coloring) == ("primitive", None, None, None)

    def test_a_cut_search_is_kept_for_its_budget_alone(self):
        g = named_graphs()["petersen"]
        cut = exact_vertex_cover(g, node_budget=1)
        assert cut.status == "budget_exhausted" and exact_vertex_cover(g, node_budget=1) is cut
        best = exact_vertex_cover(g)
        assert best.optimal and best.size == 6
        assert exact_vertex_cover(g, node_budget=1) is cut and exact_vertex_cover(g) is best

    @pytest.mark.parametrize("call, error, match", [
        (lambda g: exact_vertex_cover(g, node_budget=-1), GraphInputError, "^node_budget must be"),
        (lambda g: brooks_coloring(g, 2), GraphInputError, "^degree bound d must be at least 3"),
        (lambda g: brooks_coloring(K4, 3), GraphInputError, r"^clique on 4 vertices \[0, 1, 2, 3\] present"),
        (lambda g: reduce_colored(g, 1, IMPROPER), GraphInputError, "^coloring is improper"),
        (lambda g: _completed(reduce_colored(g, 1, brooks_coloring(g, 3)), [0]), GraphInputError,
         "^not a vertex cover"),
    ], ids=["node-budget", "small-d", "clique", "improper-coloring", "non-cover"])
    def test_errors_are_raised_on_every_call(self, call, error, match):
        g = bridged_cubic()
        for _ in range(3):
            with pytest.raises(error, match=match):
                call(g)

    def test_no_kept_fact_outlives_its_graph(self):
        """No kept fact refers back to its graph: with the cyclic collector off,
        dropping G and its instance frees G, its gadget H and H's kept completion."""
        gc.disable()
        try:
            g = bridged_cubic()
            inst = reduce_colored(g, 2, brooks_coloring(g, 3))
            done = _completed(inst, exact_vertex_cover(g).vertices)
            refs = [weakref.ref(x) for x in (g, inst.graph, done)]
            del g, inst, done
            assert [ref() for ref in refs] == [None, None, None]
        finally:
            gc.enable()


K4 = named_graphs()["k4"]

#: A 2-coloring of ``bridged_cubic``, whose triangle (0, 2, 3) no 2-coloring makes proper.
IMPROPER = Coloring((0, 1, 1, 0, 0, 1, 0, 1, 1, 0), 2)


def test_reduction_reads_no_single_vertex():
    """``reduction`` reads a graph's neighbors once, by ``Graph.neighbor_lists``,
    and tests rows in whole-graph passes: it calls no per-vertex query."""
    from fillinlab import reduction

    source = Path(reduction.__file__).read_text()
    assert [t for t in (".neighbors(", ".has_edge(", ".degree(") if t in source] == []
