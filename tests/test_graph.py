import ast
import copy
import math
import pickle
import re
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fillinlab
from fillinlab import _bits
from fillinlab.chordal import find_hole, verify_fillin
from fillinlab.errors import GraphInputError
from fillinlab.generate import gnp, random_subcubic
from fillinlab.graph import (
    Graph,
    _bfs,
    load_dimacs,
    normalize_edges,
    save_dimacs,
    twin_classes,
    twin_quotient,
)
from fillinlab.reduction import brooks_coloring, reduce_colored, reduce_primitive
from fillinlab.solvers import exact_vertex_cover, greedy_game
from fillinlab.transfer import RatioAudit

from .conftest import traced_peak
from .oracles import (
    bfs_deque,
    decode_codes,
    degree,
    edge_set,
    graph_from_bool_matrix,
    has_edge,
    neighbors,
    normalize_edges_sorted,
    twin_blowup,
    twin_classes_brute,
)


def small_graphs():
    return st.integers(2, 7).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.sets(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                    lambda e: e[0] != e[1]
                ),
                max_size=n * (n - 1) // 2 + 3,
            ),
        )
    )


class TestBuild:
    def test_cycle(self):
        g = Graph.build(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert g.n == 4 and g.m == 4

    def test_empty(self):
        g = Graph.build(3, [])
        assert g.m == 0 and g.n == 3

    def test_duplicates_collapse(self):
        g = Graph.build(5, [(0, 1), (0, 1), (1, 2), (1, 0)])
        assert g.m == 2

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphInputError, match=r"\(0,7\)"):
            Graph.build(4, [(0, 7)])

    def test_rejects_self_loop(self):
        with pytest.raises(GraphInputError, match=r"\(2,2\)"):
            Graph.build(4, [(2, 2)])

    @pytest.mark.parametrize("edge", [(0,), (0, 1, 1), 5, ()])
    def test_rejects_non_pair(self, edge):
        with pytest.raises(GraphInputError, match="not a pair"):
            Graph.build(4, [(1, 2), edge])

    @pytest.mark.parametrize("edge", [
        (0, 1.7), (1.0, 2), (True, 2), (0, False), ("0", "1"), (0, "2"),
        (np.float64(1), 2), (np.True_, 2), (0, None),
    ])
    def test_rejects_non_integer_ids(self, edge):
        with pytest.raises(GraphInputError, match="not a pair of vertex ids"):
            Graph.build(3, [(1, 2), edge])

    def test_accepts_numpy_integer_ids(self):
        g = Graph.build(3, [(np.int64(0), np.int32(2)), (np.uint8(1), 2)])
        assert g.edge_list() == [(0, 2), (1, 2)]
        assert all(type(v) is int for e in g.edge_list() for v in e)

    def test_degree_sum_is_twice_edges(self):
        g = Graph.build(6, [(0, 1), (1, 2), (3, 4), (4, 5), (0, 5)])
        assert int(g.degrees().sum()) == 2 * g.m

    @pytest.mark.parametrize("count", [2.5, True, "3", None])
    def test_rejects_non_integer_vertex_count(self, count):
        with pytest.raises(GraphInputError, match="^vertex_count must be an integer"):
            Graph.build(count)

    def test_rejects_negative_vertex_count(self):
        with pytest.raises(GraphInputError, match="^vertex_count must be nonnegative, got -1"):
            Graph.build(-1)

    @pytest.mark.parametrize("dump", [
        lambda g: pickle.loads(pickle.dumps(g)), copy.deepcopy, copy.copy,
    ], ids=["pickle", "deepcopy", "copy"])
    def test_copies_stay_read_only(self, graphs, dump):
        g = graphs["c5"]
        g.content_hash(), exact_vertex_cover(g), brooks_coloring(g, 3)
        h = dump(g)
        assert h == g and (h.n, h.m) == (g.n, g.m) and h.degrees().tolist() == g.degrees().tolist()
        assert not h.packed_rows().flags.writeable and not h.degrees().flags.writeable
        assert not g.packed_rows().flags.writeable
        assert h._memo == {} and len(g._memo) >= 3  # a copy keeps none of g's facts


class TestNormalizeEdges:
    """One pass from pairs to an (m, 2) int64 array in input order; the rows
    it sets equal those of the sorted, deduplicated reference."""

    def test_int64_pairs_in_input_order(self):
        pairs = normalize_edges(5, [(3, 1), (0, 2), (3, 1), (np.int32(4), np.uint8(0))])
        assert pairs.dtype == np.int64 and pairs.shape == (4, 2)
        assert pairs.tolist() == [[3, 1], [0, 2], [3, 1], [4, 0]]

    @pytest.mark.parametrize("edges", [[], (), iter([]), frozenset()])
    def test_no_pairs_is_0_by_2(self, edges):
        pairs = normalize_edges(3, edges)
        assert pairs.dtype == np.int64 and pairs.shape == (0, 2)

    @pytest.mark.parametrize("edges, message", [
        ([(0, 1), (0, 9), (1.5, 2)], r"edge \(0,9\) out of range for 4 vertices"),
        ([(0, 1), (1.5, 2), (0, 9)], r"edge \(1\.5, 2\) is not a pair of vertex ids"),
        ([(3, 3), (0, 9)], r"self-loop \(3,3\) is not allowed"),
        ([(9, 9)], r"self-loop \(9,9\) is not allowed"),
        ([(0, 1), (0,), (2, 2)], r"edge \(0,\) is not a pair of vertex ids"),
        ([(0, 1), (9, 0), (2, 2)], r"edge \(9,0\) out of range for 4 vertices"),
        ([(0, 1), (2, 2), (-1, 3)], r"self-loop \(2,2\) is not allowed"),
        ([(1, 2), (-1, 3), (2, 2)], r"edge \(-1,3\) out of range for 4 vertices"),
    ])
    def test_first_bad_pair_in_input_order_wins(self, edges, message):
        """In each form the entries can take: pairs, an (m, 2) integer array, and
        codes when every pair's second id is in 0..3, so that the code decodes to it."""
        with pytest.raises(GraphInputError, match=f"^{message}$"):
            normalize_edges_sorted(4, iter(edges))
        forms = [iter(edges)]
        if all(len(e) == 2 and all(type(x) is int for x in e) for e in edges):
            forms.append(np.array(edges, dtype=np.int64))
            if all(0 <= v < 4 for _, v in edges):
                forms.append(np.array([u * 4 + v for u, v in edges]))
        for form in forms:
            with pytest.raises(GraphInputError, match=f"^{message}$"):
                normalize_edges(4, form)

    @pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 130])
    def test_rows_match_sorted_reference(self, rng, n):
        plain = sorted(_plain_graph(rng, n, 0.1))
        mixed = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in plain]
        mixed += [mixed[i][::-1] for i in rng.integers(0, len(mixed), len(mixed) // 3)] if mixed else []
        edges = [mixed[i] for i in rng.permutation(len(mixed))]
        ref = normalize_edges_sorted(n, edges)
        assert ref == plain
        adjacency = np.zeros((n, n), dtype=bool)
        for u, v in ref:
            adjacency[u, v] = adjacency[v, u] = True
        want = graph_from_bool_matrix(adjacency).packed_rows()
        half = len(edges) // 2
        for g in (
            Graph.build(n, edges),
            Graph.build(n, iter(edges)),
            Graph.build(n).add_edges(edges),
            Graph.build(n, edges[:half]).add_edges(iter(edges[half:])),
        ):
            assert np.array_equal(g.packed_rows(), want)
            assert g.edge_list() == ref

    @pytest.mark.parametrize("edges", [None, 7, np.array(3)], ids=["none", "int", "0-d array"])
    def test_non_iterable_is_an_input_error(self, graphs, edges):
        for read in (lambda e: Graph.build(3, e), graphs["c4"].add_edges):
            with pytest.raises(GraphInputError, match="are not an iterable of pairs$"):
                read(edges)


class TestNormalizeCodes:
    """A 1-D integer ndarray is read as codes ``u * n + w``: the same array,
    the same rows and the same errors as the pairs ``decode_codes`` gives."""

    @pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 130])
    def test_codes_read_as_their_pairs(self, rng, n):
        plain = sorted(_plain_graph(rng, n, 0.1))
        codes = [w * n + u if rng.random() < 0.5 else u * n + w for u, w in plain]
        codes += [codes[i] for i in rng.integers(0, len(codes), len(codes) // 3)] if codes else []
        codes = np.array(codes, dtype=np.int64)[rng.permutation(len(codes))]
        pairs = decode_codes(codes, n)
        want = normalize_edges(n, pairs)
        half = len(codes) // 2
        for dtype in (np.int64, np.int32, np.uint64, np.uint16):
            typed = codes.astype(dtype)
            got = normalize_edges(n, typed)
            assert got.dtype == np.int64 and np.array_equal(got, want)
            assert Graph.build(n, typed) == Graph.build(n, pairs)
            assert Graph.build(n, typed[:half]).add_edges(typed[half:]) == Graph.build(n, pairs)

    @pytest.mark.parametrize("dtype", [np.int64, np.uint8, bool, np.float64])
    def test_no_codes_is_0_by_2(self, dtype):
        pairs = normalize_edges(3, np.array([], dtype=dtype))
        assert pairs.dtype == np.int64 and pairs.shape == (0, 2)

    @pytest.mark.parametrize(
        "n, codes",
        [
            (4, np.array([1, -1, 2])),
            (4, np.array([1, 16, -1])),  # the first bad code wins, not the worst
            (4, np.array([7, 2, 5, 16])),  # diagonal: 5 = 1 * 4 + 1
            (4, np.array([0])),
            (4, np.array([2**63 + 1], dtype=np.uint64)),  # past int64
            (4, np.array([True, False])),
            (4, np.array([1.0, 2.0])),
            (4, np.array([2, 6.5])),
            (0, np.array([3])),
            (0, np.array([0, 1])),
        ],
        ids=[
            "negative", "past_n_squared", "diagonal", "zero", "past_int64", "bool", "float",
            "fraction", "no_vertices", "no_vertices_zero",
        ],
    )
    def test_first_bad_code_gets_its_pairs_message(self, n, codes):
        with pytest.raises(GraphInputError) as want:
            normalize_edges(n, decode_codes(codes, n))
        message = f"^{re.escape(str(want.value))}$"
        with pytest.raises(GraphInputError, match=message):
            normalize_edges(n, codes)
        with pytest.raises(GraphInputError, match=message):
            Graph.build(n, codes)

    def test_two_dimensional_arrays_are_pairs(self):
        assert normalize_edges(4, np.array([[3, 1], [0, 2]])).tolist() == [[3, 1], [0, 2]]
        with pytest.raises(GraphInputError, match=r"^self-loop \(2,2\) is not allowed$"):
            normalize_edges(4, np.array([[0, 1], [2, 2]]))
        with pytest.raises(GraphInputError, match=r"^edge array\(\[0, 1, 2\]\) is not a pair"):
            normalize_edges(4, np.array([[0, 1, 2]]))


class TestAddEdges:
    def test_chord_triangulates_c4(self, graphs):
        h = graphs["c4"].add_edges([(0, 2)])
        assert h.m == 5 and has_edge(h, 0, 2)

    def test_identity(self, graphs):
        assert graphs["c4"].add_edges([]) == graphs["c4"]

    def test_completes_clique(self):
        g = Graph.build(3).add_edges([(0, 1), (1, 2), (0, 2)])
        assert g.m == 3

    def test_original_value_unmodified(self, graphs):
        g = graphs["c4"]
        g.add_edges([(0, 2)])
        assert g.m == 4 and not has_edge(g, 0, 2)

    def test_rejects_self_pair(self, graphs):
        with pytest.raises(GraphInputError):
            graphs["c4"].add_edges([(1, 1)])


class TestSubgraphs:
    def test_c5_to_path(self, graphs):
        sub, mapping = graphs["c5"].induced_subgraph([0, 1, 2])
        assert sub.m == 2 and list(mapping) == [0, 1, 2]

    def test_empty_subset(self, graphs):
        sub, mapping = graphs["c5"].induced_subgraph([])
        assert sub.n == 0 and len(mapping) == 0

    def test_k5_to_k3(self, graphs):
        sub, _ = graphs["k5"].induced_subgraph([1, 3, 4])
        assert sub.m == 3

    @pytest.mark.parametrize("vertices", [[0.9, 1.2, 2.0], [True, 2], ["1", "2"], [0, None]])
    def test_rejects_non_integer_ids(self, graphs, vertices):
        with pytest.raises(GraphInputError, match="vertex ids must be integers"):
            graphs["c5"].induced_subgraph(vertices)

    def test_reads_numpy_ids_and_generators(self, graphs):
        sub, mapping = graphs["c5"].induced_subgraph(v for v in np.array([2, 0, 1]))
        assert sub.m == 2 and mapping.tolist() == [0, 1, 2]

    @pytest.mark.parametrize("vertices", [[0, 2**70], [2**64 - 1], [-(2**70), 1], [5], [-1, 0]])
    def test_ids_past_int64_are_out_of_range(self, graphs, vertices):
        """Ids are range-tested before they become int64: ``[0, 2**70]`` raised a
        bare OverflowError from the int64 array."""
        with pytest.raises(GraphInputError, match="^subset vertex out of range$"):
            graphs["c5"].induced_subgraph(vertices)

    def test_read_stops_at_the_first_out_of_range_id(self, graphs):
        """Each id is range-tested as it is read, so no id after the first bad one
        is read, and an out-of-range id before a non-integer raises its own message."""

        def ids():
            yield from range(5)
            yield 5
            raise AssertionError("read past the first out-of-range id")

        for vertices in (ids(), [7, 1.5]):
            with pytest.raises(GraphInputError, match="^subset vertex out of range$"):
                graphs["c5"].induced_subgraph(vertices)

    def test_repeated_ids_count_once(self, graphs):
        sub, mapping = graphs["c5"].induced_subgraph([3, 1, 3, np.int8(1), 0])
        assert mapping.dtype == np.int64 and mapping.tolist() == [0, 1, 3] and sub.m == 1


@settings(max_examples=60, deadline=None)
@given(small_graphs(), st.data())
def test_edge_count_identity(spec, data):
    n, edges = spec
    g = Graph.build(n, edges)
    subset = data.draw(st.sets(st.integers(0, n - 1)))
    sub, _ = g.induced_subgraph(subset)
    k = len(subset)
    present = {(min(e), max(e)) for e in edges}
    missing = {(u, v) for u, v in combinations(sorted(subset), 2) if (u, v) not in present}
    assert sub.m + len(missing) == math.comb(k, 2)


@settings(max_examples=60, deadline=None)
@given(small_graphs(), st.data())
def test_add_edges_is_union(spec, data):
    n, edges = spec
    g = Graph.build(n, edges)
    pairs = st.sets(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
            lambda e: e[0] != e[1]
        ),
        max_size=6,
    )
    a = data.draw(pairs)
    b = data.draw(pairs)
    twice = g.add_edges(a).add_edges(b)
    once = g.add_edges(list(a) + list(b))
    assert twice == once


@settings(max_examples=60, deadline=None)
@given(small_graphs())
def test_complement_involution(spec):
    n, edges = spec
    g = Graph.build(n, edges)
    comp = Graph.build(n, set(combinations(range(n), 2)) - g.edge_set())
    back = Graph.build(n, set(combinations(range(n), 2)) - comp.edge_set())
    assert back == g


@settings(max_examples=40, deadline=None)
@given(small_graphs())
def test_dense_queries_match_plain_sets(spec):
    n, edges = spec
    g = Graph.build(n, edges)
    plain = {(min(u, v), max(u, v)) for u, v in edges}
    assert edge_set(g) == plain
    for u in range(n):
        expect = sorted({b for a, b in plain if a == u} | {a for a, b in plain if b == u})
        assert list(neighbors(g, u)) == expect
        assert degree(g, u) == len(expect)
    mat = _bits.unpack(g.packed_rows(), n)
    assert (mat == mat.T).all() and not mat.diagonal().any()


def _plain_graph(rng, n, density):
    pairs = [(u, w) for u in range(n) for w in range(u + 1, n)]
    return {p for p in pairs if rng.random() < density}


@pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 130])
@pytest.mark.parametrize("density", [0.0, 0.01, 0.5, 1.0])
@pytest.mark.parametrize("block_bytes", [1 << 24, 64])
def test_queries_match_plain_sets_across_word_boundaries(rng, monkeypatch, n, density, block_bytes):
    monkeypatch.setattr(_bits, "UNPACK_BLOCK_BYTES", block_bytes)  # 1 << 24: one block; 64: one or two rows
    plain = _plain_graph(rng, n, density)
    g = Graph.build(n, rng.permutation(sorted(plain)) if plain else [])
    assert g.m == len(plain)
    assert g.edge_list() == sorted(plain)
    assert g.edge_set() == plain
    nbrs = [
        sorted({b for a, b in plain if a == u} | {a for a, b in plain if b == u}) for u in range(n)
    ]
    for u in range(n):
        assert neighbors(g, u).tolist() == nbrs[u]
        assert degree(g, u) == len(nbrs[u])
    assert g.degrees().tolist() == [len(x) for x in nbrs]
    lists = g.neighbor_lists()
    assert lists == nbrs and all(type(v) is int for x in lists for v in x)

    subset = sorted(int(v) for v in rng.choice(n, size=n // 2, replace=False)) if n else []
    sub, mapping = g.induced_subgraph(subset)
    assert mapping.tolist() == subset
    new_id = {v: i for i, v in enumerate(subset)}
    assert sub.edge_set() == {
        (new_id[a], new_id[b]) for a, b in plain if a in new_id and b in new_id
    }

    extra = _plain_graph(rng, n, 0.05)
    assert g.add_edges(extra).edge_set() == plain | extra
    assert g.edge_set() == plain


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 130])
@pytest.mark.parametrize("density", [0.02, 0.1, 0.5])
def test_bfs_matches_deque_reference(rng, n, density):
    plain = _plain_graph(rng, n, density)
    g = Graph.build(n, plain)
    for share in (0.0, 0.5, 0.9, 1.0):
        allowed = [v for v in range(n) if rng.random() < share]
        root = int(rng.integers(n))
        inside = [v in allowed for v in range(n)]
        order, parent = _bfs(g.neighbor_lists().__getitem__, root, inside)
        assert (order, parent) == bfs_deque(n, plain, root, set(allowed))
        assert all(type(v) is int for v in order + parent)
        for stop in order[1:][-2:]:  # an early return keeps the order and parents up to stop
            head, part = _bfs(g.neighbor_lists().__getitem__, root, inside, stop)
            assert head == order[: order.index(stop) + 1]
            assert [part[v] for v in head] == [parent[v] for v in head]


def test_bfs_parents_are_fixed_at_discovery():
    # 0-1, 0-2, 1-3, 2-3: 3 is found from 1 first, and 4 only through 3
    neighbors = Graph.build(5, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]).neighbor_lists().__getitem__
    everything = [True] * 5
    assert _bfs(neighbors, 0, everything) == ([0, 1, 2, 3, 4], [0, 0, 0, 1, 3])
    without_1 = [False, False, True, True, True]
    assert _bfs(neighbors, 0, without_1) == ([0, 2, 3, 4], [0, -1, 0, 2, 3])
    assert _bfs(neighbors, 1, [False] * 5) == ([1], [-1, 1, -1, -1, -1])


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 130])
@pytest.mark.parametrize("density", [0.3, 0.9, 1.0])
def test_is_clique_matches_all_pairs(rng, n, density):
    g = Graph.build(n, _plain_graph(rng, n, density))
    rows = g.packed_rows()
    sets = [[], [n - 1], neighbors(g, 0).tolist(), *map(list, combinations(range(min(n, 5)), 2))]
    sets += [rng.choice(n, size=min(k, n), replace=False).tolist() for k in [3, 4, 6, n] * 4]
    for vs in sets:
        want = all(has_edge(g, a, b) for a, b in combinations(vs, 2))
        assert _bits.is_clique(rows, _bits.mask_from_indices(n, vs), n) is want


def test_content_hash_matches_recorded_digests():
    # Digests recorded when the first graph was held as an adjacency set and
    # the second as packed rows; the canonical edge-list text must not change.
    sparse = Graph.build(
        130,
        [(u, (3 * u + 1) % 130) for u in range(130) if (3 * u + 1) % 130 != u]
        + [(u, u + 64) for u in range(66)],
    )
    dense = Graph.build(70, [(u, w) for u in range(70) for w in range(u + 1, 70) if (u + w) % 3])
    assert (sparse.m, dense.m) == (195, 1610)
    assert sparse.content_hash() == "9eef2e43d4a737dfdf3e6e182fd4948e96616c0e92cc99d78bdf71685348fdf0"
    assert dense.content_hash() == "91fd60b31cffa369700f96ad0d64b5ac6540f198259a95bdc5113a10e2abc899"
    assert Graph.build(0).content_hash() == (
        "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa"
    )


class TestFromPackedRows:
    N = 4100  # two blocks of rows in the symmetry check

    def test_accepts_symmetric_large(self):
        rows = _bits.zero_rows(self.N, self.N)
        _bits.set_bits(rows, np.array([0, self.N - 1]), np.array([self.N - 1, 0]))
        assert Graph.from_packed_rows(rows, self.N).m == 1

    def test_rejects_asymmetric_large(self):
        rows = _bits.zero_rows(self.N, self.N)
        _bits.set_bits(rows, 3, np.array([self.N - 2]))
        with pytest.raises(GraphInputError, match="symmetric"):
            Graph.from_packed_rows(rows, self.N)

    def test_rejects_unsampled_diagonal_bit_large(self):
        rows = _bits.zero_rows(self.N, self.N)
        v = 98  # a vertex that sampling every 97th diagonal bit would skip
        _bits.set_bits(rows, v, np.array([v]))
        with pytest.raises(GraphInputError, match=f"diagonal bit set at vertex {v}"):
            Graph.from_packed_rows(rows, self.N)

    @pytest.mark.parametrize("block_bytes", [1 << 24, 64 * 64])
    def test_rejects_asymmetry_in_every_block_position(self, rng, monkeypatch, block_bytes):
        monkeypatch.setattr(_bits, "UNPACK_BLOCK_BYTES", block_bytes)  # 1 << 24: one block; 64 * 64: 64-row blocks
        for n in (1, 63, 64, 65, 200):
            mat = rng.random((n, n)) < 0.2
            mat = np.triu(mat, 1)
            mat = mat | mat.T
            assert graph_from_bool_matrix(mat).m == int(mat.sum()) // 2
            for _ in range(5):
                u, v = (int(x) for x in rng.integers(0, n, size=2))
                if u == v:
                    continue
                bad = mat.copy()
                bad[u, v] = not bad[u, v]
                for layout in (bad, bad.T, np.asfortranarray(bad)):
                    with pytest.raises(GraphInputError, match="symmetric"):
                        graph_from_bool_matrix(layout)
            for layout in (mat.T, np.asfortranarray(mat)):
                assert graph_from_bool_matrix(layout) == graph_from_bool_matrix(mat)

    @pytest.mark.parametrize("n, column", [(3, 10), (63, 63), (65, 127)])
    def test_rejects_padding_bits(self, n, column):
        rows = _bits.zero_rows(n, n)
        _bits.set_bits(rows, 0, np.array([column]))  # a column at or past n
        with pytest.raises(GraphInputError, match="padding bit set in row 0"):
            Graph.from_packed_rows(rows, n)


class TestDimacs:
    def test_round_trip(self, tmp_path, graphs):
        path = tmp_path / "c5.col"
        save_dimacs(graphs["c5"], path, comments=["five cycle"])
        assert load_dimacs(path) == graphs["c5"]

    def test_blank_and_comment_lines(self, tmp_path):
        path = tmp_path / "g.col"
        path.write_text("c hello\n\np edge 3 1\n\nc mid\ne 1 3\n")
        g = load_dimacs(path)
        assert g.n == 3 and has_edge(g, 0, 2)

    def test_one_based_on_disk(self, tmp_path, graphs):
        path = tmp_path / "c4.col"
        save_dimacs(graphs["c4"], path)
        text = path.read_text()
        assert "e 1 2" in text and "e 0" not in text

    def test_declared_count_mismatch(self, tmp_path):
        path = tmp_path / "bad.col"
        path.write_text("p edge 3 2\ne 1 2\n")
        with pytest.raises(GraphInputError, match="declares 2"):
            load_dimacs(path)

    def test_unknown_line(self, tmp_path):
        path = tmp_path / "bad.col"
        path.write_text("p edge 2 0\nx 1 2\n")
        with pytest.raises(GraphInputError, match="unknown line"):
            load_dimacs(path)

    @pytest.mark.parametrize("edge, message", [
        ("e 2 4", "edge (2,4) out of range for 3 vertices"),
        ("e 0 1", "edge (0,1) out of range for 3 vertices"),
        ("e 2 2", "self-loop (2,2) is not allowed"),
        ("e 5 5", "self-loop (5,5) is not allowed"),
    ])
    def test_bad_edge_names_its_line_and_file_ids(self, tmp_path, edge, message):
        """An edge's ids are checked as the file gives them, 1-based, at its line."""
        path = tmp_path / "bad.col"
        path.write_text(f"c two edges\np edge 3 2\ne 1 2\n{edge}\n")
        with pytest.raises(GraphInputError) as exc:
            load_dimacs(path)
        assert str(exc.value) == f"{path}:4: {message}"


def test_upper_codes_memory_is_bounded():
    """Only bits right of the diagonal are unpacked into codes, which fill one
    exact-size array a bounded block at a time: the N=350 primitive gadget's
    ~60k codes take 0.49 MB, and the peak is those and one block."""
    g = reduce_primitive(gnp(7, 0.5, 3)).graph
    codes, peak = traced_peak(_bits.upper_codes, g.packed_rows(), g.n)
    assert codes.size == g.m
    assert peak < codes.nbytes + _bits.UNPACK_BLOCK_BYTES


def test_content_hash_is_stable(graphs):
    a = graphs["c4"].content_hash()
    b = Graph.build(4, [(3, 0), (2, 3), (1, 2), (0, 1)]).content_hash()
    assert a == b
    assert a != graphs["k4"].content_hash()


# -- true twins -----------------------------------------------------------------


def _twin_corpus():
    """Edgeless graphs, cliques, G(n, p) and twin blow-ups across the word
    boundary, then primitive and colored gadgets, bare and min-fill filled."""
    rng = np.random.default_rng(2323)
    for n in (0, 1, 63, 64, 65, 129):
        yield Graph.build(n)
        yield Graph.build(n, combinations(range(n), 2))
        yield gnp(n, float(rng.uniform(0.1, 0.9)), rng)
        yield twin_blowup(rng, n)
    for n in (3, 4, 5):
        g = random_subcubic(3 * n, rng)
        primitive = reduce_primitive(gnp(n, float(rng.uniform(0.2, 0.8)), rng)).graph
        for gadget in (primitive, reduce_colored(g, 2, brooks_coloring(g, 3)).graph):
            yield gadget
            yield gadget.add_edges(greedy_game(gadget, "min-fill")[1])


def test_twin_classes_match_dict_of_sets():
    for g in _twin_corpus():
        reps, cls = twin_classes(g.packed_rows())
        assert reps.dtype == cls.dtype == np.int64
        assert (reps.tolist(), cls.tolist()) == twin_classes_brute(g.n, g.edge_list())


def test_twin_classes_match_unique_closed_rows():
    """The same partition as ``np.unique`` over the closed rows, each vertex
    mapped to its class's smallest member."""
    for g in _twin_corpus():
        reps, cls = twin_classes(g.packed_rows())
        if g.n == 0:
            assert reps.size == cls.size == 0
            continue
        closed = g.packed_rows().copy()
        _bits.set_diagonal(closed)
        _, first, inverse = np.unique(closed, axis=0, return_index=True, return_inverse=True)
        assert reps.tolist() == sorted(first.tolist())
        assert reps[cls].tolist() == first[inverse.ravel()].tolist()


def test_twin_classes_of_a_clique_and_of_open_twins():
    """K_n is one class; the 4-cycle's opposite vertices share open rows but
    are not true twins."""
    reps, cls = twin_classes(Graph.build(70, combinations(range(70), 2)).packed_rows())
    assert reps.tolist() == [0] and cls.tolist() == [0] * 70
    reps, cls = twin_classes(Graph.build(4, [(0, 1), (1, 2), (2, 3), (3, 0)]).packed_rows())
    assert reps.tolist() == [0, 1, 2, 3] and cls.tolist() == [0, 1, 2, 3]


def test_twin_quotient_guards():
    """The classes past one word with at most n/2 of them; None below two
    words (K_64) or with more classes (K_{33,32}: no two vertices are twins)."""
    assert twin_quotient(Graph.build(64, combinations(range(64), 2)).packed_rows()) is None
    halves = Graph.build(65, [(i, j) for i in range(33) for j in range(33, 65)])
    assert twin_quotient(halves.packed_rows()) is None
    blown_up = twin_blowup(np.random.default_rng(4), 130, most=6)
    for g in (Graph.build(65, combinations(range(65), 2)), blown_up):
        reps, cls = twin_classes(g.packed_rows())
        assert 2 * reps.size <= g.n
        got = twin_quotient(g.packed_rows())
        assert got[0].tolist() == reps.tolist() and got[1].tolist() == cls.tolist()


#: Code that groups twins: ``np.unique`` over rows, or a sort of closed rows.
TWIN_GROUPING = (
    r"np\.unique\([^)]*axis\s*=\s*0",
    r"np\.void",
    r"sort\(\s*closed",
)


def test_only_graph_groups_twins():
    package = Path(fillinlab.__file__).parent
    offenders = [
        f"{path.name}: {pattern!r}"
        for path in sorted(package.glob("*.py"))
        if path.name != "graph.py"
        for pattern in TWIN_GROUPING
        if re.search(pattern, path.read_text())
    ]
    assert not offenders


#: The set forms of the fill-in producers, deleted: every fill-in travels as codes.
SET_FORMS = ("elimination_fill", "greedy_minfill_heuristic")

#: The only callers of ``pairs_from_codes``: outputs read pair by pair outside the package.
PAIR_DECODERS = {"graph.Graph.edge_set", "transfer.heuristic_backed_fillin.run"}


def _scoped_nodes(tree, module):
    """Every node of a module with its scope: the module and enclosing defs and classes, dotted."""
    stack = [(module, tree)]
    while stack:
        scope, node = stack.pop()
        for child in ast.iter_child_nodes(node):
            yield scope, child
            named = isinstance(child, (ast.FunctionDef, ast.ClassDef))
            stack.append((f"{scope}.{child.name}" if named else scope, child))


def test_fill_ins_stay_codes_in_the_package():
    """No module defines, imports or binds a set form of a fill-in producer,
    and ``pairs_from_codes`` is used by its two callers alone."""
    package = Path(fillinlab.__file__).parent
    revived, decoders = [], set()
    for path in sorted(package.glob("*.py")):
        for scope, node in _scoped_nodes(ast.parse(path.read_text()), path.stem):
            name = getattr(node, "name", None) or getattr(node, "id", None) or getattr(node, "attr", None)
            if name in SET_FORMS:
                revived.append(f"{scope}: {name}")
            elif name == "pairs_from_codes" and isinstance(node, (ast.Name, ast.Attribute)):
                decoders.add(scope)
    assert not revived and not any(hasattr(fillinlab, name) for name in SET_FORMS)
    assert decoders == PAIR_DECODERS


#: The facts kept on a graph, by the one function that keeps each (``Graph._kept``).
KEPT_FACTS = {
    "graph.Graph.content_hash",
    "solvers.exact_vertex_cover",
    "reduction.brooks_coloring",
    "reduction.reduce_colored",
    "reduction._completed",
}

#: Decorators that keep results in a table of their own, outside any graph.
CACHE_DECORATORS = ("lru_cache", "cache", "cached_property")

#: ``cli.build_parser`` keeps the process's one argparse tree, which is no fact about a graph.
CACHE_DECORATED = {"cli.build_parser"}

#: Module-level constructors of an empty table, the start of a module-wide cache.
EMPTY_TABLES = {
    "dict", "set", "list", "defaultdict", "OrderedDict", "WeakKeyDictionary", "WeakValueDictionary",
}


def test_facts_are_kept_on_their_objects():
    """Every kept value lives on a ``Graph``, by the functions of ``KEPT_FACTS``
    (a gadget's completions on its graph H): no module caches by a decorator,
    binds an empty table at module level or rebinds a global.  No verdict of
    ``verify_fillin`` or ``find_hole`` is kept, so every re-check recomputes it."""
    package = Path(fillinlab.__file__).parent
    offenders, keepers = [], set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            value = getattr(node, "value", None) if isinstance(node, (ast.Assign, ast.AnnAssign)) else None
            empty = isinstance(value, ast.Dict) and not value.keys
            empty |= isinstance(value, ast.List) and not value.elts
            called = isinstance(value, ast.Call) and ast.unparse(value.func).split(".")[-1] in EMPTY_TABLES
            if empty or called:
                offenders.append(f"{path.stem}: {ast.unparse(node)}")
        for scope, node in _scoped_nodes(tree, path.stem):
            if isinstance(node, ast.Global):
                offenders.append(f"{scope}: {ast.unparse(node)}")
            for dec in getattr(node, "decorator_list", ()):
                name = ast.unparse(dec).split("(")[0].split(".")[-1]
                if name in CACHE_DECORATORS and f"{scope}.{node.name}" not in CACHE_DECORATED:
                    offenders.append(f"{scope}.{node.name}: @{ast.unparse(dec)}")
            if isinstance(node, ast.Attribute) and node.attr in ("_kept", "_memo"):
                keepers.add(scope)
    assert not offenders
    assert keepers == KEPT_FACTS | {"graph.Graph._adopt", "graph.Graph._kept"}

    c5 = Graph.build(5, [(i, (i + 1) % 5) for i in range(5)])
    memo = dict(c5._memo)
    assert find_hole(c5) is not find_hole(c5)
    assert verify_fillin(c5, [(0, 2), (0, 3)]) is not verify_fillin(c5, [(0, 2), (0, 3)])
    assert c5._memo == memo


#: Test-only code that left the package.  A scan by name cannot see all of it:
#: ``neighbors`` is ``graph._bfs``'s parameter, ``to_json`` another class's method,
#: and ``RatioAudit.instance`` a field, not a function.
TEST_ONLY = {Graph: ("has_edge", "neighbors", "degree"), RatioAudit: ("to_json", "instance")}


def test_package_keeps_no_test_only_code():
    """Every function and method defined at the top of a package module or of its
    classes is referenced by name outside its definition: from a package module
    (an export in ``__init__`` counts), ``bench/`` or ``demos/``, never only from
    ``tests/``.  Dunder methods are called by the language.  The names of
    ``TEST_ONLY`` stay out of their classes."""
    package, root = Path(fillinlab.__file__).parent, Path(__file__).parent.parent
    assert (root / "bench").is_dir() and (root / "demos").is_dir()
    used = set()
    for path in [*package.glob("*.py"), *(root / "bench").rglob("*.py"), *(root / "demos").rglob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Name, ast.Attribute, ast.alias)):
                used.add(getattr(node, "id", None) or getattr(node, "attr", None) or node.name)
    unused = []
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            scope, members = path.stem, [node]
            if isinstance(node, ast.ClassDef):
                scope, members = f"{path.stem}.{node.name}", node.body
            unused += [
                f"{scope}.{f.name}"
                for f in members
                if isinstance(f, ast.FunctionDef) and not f.name.startswith("__") and f.name not in used
            ]
    assert unused == []
    kept = [
        f"{cls.__name__}.{name}"
        for cls, names in TEST_ONLY.items()
        for name in names
        if hasattr(cls, name) or name in getattr(cls, "__dataclass_fields__", {})
    ]
    assert kept == []
