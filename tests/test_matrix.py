import tracemalloc

import numpy as np
import pytest

from fillinlab.chordal import check_peo, elimination_fill_codes
from fillinlab.errors import GraphInputError
from fillinlab.matrix import (
    SparsePattern,
    arrow_pattern,
    fill_equivalence_check,
    graph_from_pattern,
    load_matrix_market,
    pattern_from_graph,
    save_matrix_market,
    symbolic_factor,
    symbolic_fill_codes,
    tridiagonal_pattern,
)

from .conftest import random_graph
from .oracles import elimination_fill_brute


class TestPattern:
    def test_from_entries_normalizes(self):
        p = SparsePattern.from_entries(4, [(2, 0), (0, 2), (1, 3), (2, 2)])
        assert p.positions == {(0, 2), (1, 3)}

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphInputError):
            SparsePattern.from_entries(3, [(0, 5)])

    @pytest.mark.parametrize("bad", [1.7, True, "2"], ids=["float", "bool", "str"])
    def test_rejects_non_integer_ids(self, bad):
        with pytest.raises(GraphInputError, match="vertex ids must be integers"):
            SparsePattern.from_entries(3, [(0, 2), (bad, 0)])

    def test_reads_numpy_ids(self):
        p = SparsePattern.from_entries(4, [(np.int64(2), np.int32(0)), (np.uint8(1), 3)])
        assert p.positions == {(0, 2), (1, 3)}

    def test_rejects_lower_triangle_direct(self):
        with pytest.raises(GraphInputError):
            SparsePattern(3, frozenset({(2, 1)}))

    def test_zero_diagonal_warns(self):
        with pytest.warns(UserWarning, match="structurally nonzero"):
            SparsePattern.from_entries(3, [(1, 1), (0, 2)], values=[0.0, 5.0])

    def test_nonzero_diagonal_silent(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            SparsePattern.from_entries(3, [(1, 1), (0, 2)], values=[2.0, 5.0])


class TestGraphFromPattern:
    def test_tridiagonal_is_path(self):
        g = graph_from_pattern(tridiagonal_pattern(5))
        assert g.m == 4 and all(g.has_edge(i, i + 1) for i in range(4))

    def test_arrow_is_star(self):
        g = graph_from_pattern(arrow_pattern(5))
        assert g.degree(0) == 4 and all(g.degree(v) == 1 for v in range(1, 5))

    def test_empty_offdiagonal(self):
        g = graph_from_pattern(SparsePattern(4, frozenset()))
        assert g.m == 0


class TestSymbolicFactor:
    def test_tridiagonal_natural_zero_fill(self):
        fill, total = symbolic_factor(tridiagonal_pattern(5), range(5))
        assert fill == frozenset()
        assert total == 2 * 4 + 5

    def test_arrow_center_first_dense(self):
        fill, total = symbolic_factor(arrow_pattern(5), [0, 1, 2, 3, 4])
        assert len(fill) == 6  # C(4,2), the eliminated hub cliques its leaves
        assert total == 2 * (4 + 6) + 5

    def test_arrow_leaves_first_zero_fill(self):
        fill, _ = symbolic_factor(arrow_pattern(5), [1, 2, 3, 4, 0])
        assert fill == frozenset()

    def test_rejects_non_permutation(self):
        with pytest.raises(GraphInputError):
            symbolic_factor(tridiagonal_pattern(4), [0, 1, 2])

    def test_rejects_non_integer_ordering(self):
        for order in ([0.5, 1.9, 2, 3], [0, 1, 2, 3.0], [True, 0, 2, 3]):
            with pytest.raises(GraphInputError):
                symbolic_fill_codes(tridiagonal_pattern(4), order)
        assert symbolic_fill_codes(tridiagonal_pattern(4), np.arange(4))[0].size == 0

    def test_total_counts_symmetric_pairs_plus_diagonal(self, rng):
        for _ in range(25):
            g = random_graph(rng, int(rng.integers(2, 9)))
            pattern = pattern_from_graph(g)
            order = rng.permutation(g.n).tolist()
            fill, total = symbolic_factor(pattern, order)
            assert total == 2 * (g.m + len(fill)) + g.n


def random_patterns(rng, count):
    """Empty, single-row and random patterns with n in 0..12, a third split in two blocks.

    A block-diagonal pattern (and any sparse one) has an elimination forest,
    not a single tree.
    """
    yield SparsePattern(0, frozenset())
    yield SparsePattern(1, frozenset())
    yield SparsePattern(6, frozenset())
    for _ in range(count):
        n = int(rng.integers(0, 13))
        p = float(rng.choice([0.0, 0.1, 0.25, 0.5, 0.8, 1.0]))
        pairs = {(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p}
        if rng.random() < 1 / 3:
            side = rng.random(n) < 0.5
            pairs = {(i, j) for i, j in pairs if side[i] == side[j]}
        yield SparsePattern(n, frozenset(pairs))


class TestEliminationTreeFactor:
    def test_matches_brute_elimination(self, rng):
        for pattern in random_patterns(rng, 400):
            order = rng.permutation(pattern.n).tolist()
            fill, total = symbolic_factor(pattern, order)
            assert fill == elimination_fill_brute(pattern.n, pattern.positions, order)
            assert total == 2 * (pattern.nnz_offdiag + len(fill)) + pattern.n

    def test_codes_sorted_and_match_graph_game(self, rng):
        for pattern in random_patterns(rng, 100):
            n = pattern.n
            order = rng.permutation(n).tolist()
            codes, _ = symbolic_fill_codes(pattern, order)
            assert codes.dtype == np.int64 and (np.diff(codes) > 0).all()
            assert {divmod(int(c), n) for c in codes} == symbolic_factor(pattern, order)[0]
            assert np.array_equal(codes, elimination_fill_codes(graph_from_pattern(pattern), order))

    def test_tridiagonal_20000_rows_without_dense_matrix(self):
        n = 20_000
        pattern = tridiagonal_pattern(n)
        for order in (range(n), range(n - 1, -1, -1)):
            tracemalloc.start()
            try:
                fill, total = symbolic_factor(pattern, order)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert fill == frozenset() and total == 2 * (n - 1) + n
            assert peak < 40 * 2**20  # an n-by-n bool matrix would take 400 MB


class TestEquivalence:
    def test_tridiagonal_any_ordering(self, rng):
        p = tridiagonal_pattern(6)
        for _ in range(20):
            assert fill_equivalence_check(p, rng.permutation(6).tolist())

    def test_random_patterns(self, rng):
        for _ in range(60):
            g = random_graph(rng, 8)
            p = pattern_from_graph(g)
            assert fill_equivalence_check(p, rng.permutation(8).tolist())

    def test_empty_pattern(self):
        assert fill_equivalence_check(SparsePattern(3, frozenset()), [2, 0, 1])

    def test_zero_fill_iff_peo(self, rng):
        for _ in range(40):
            g = random_graph(rng, int(rng.integers(2, 8)))
            order = rng.permutation(g.n).tolist()
            fill, _ = symbolic_factor(pattern_from_graph(g), order)
            assert (fill == frozenset()) == check_peo(g, order)


class TestMatrixMarket:
    def test_round_trip(self, tmp_path, rng):
        g = random_graph(rng, 7)
        p = pattern_from_graph(g)
        path = tmp_path / "m.mtx"
        save_matrix_market(p, path, comments=["round trip"])
        assert load_matrix_market(path) == p

    def test_header_required(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text("3 3 1\n2 1\n")
        with pytest.raises(GraphInputError, match="header"):
            load_matrix_market(path)

    def test_symmetric_required(self, tmp_path):
        path = tmp_path / "gen.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n3 3 1\n2 1 1.0\n")
        with pytest.raises(GraphInputError, match="symmetric"):
            load_matrix_market(path)

    def test_square_required(self, tmp_path):
        path = tmp_path / "rect.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real symmetric\n3 4 0\n")
        with pytest.raises(GraphInputError, match="square"):
            load_matrix_market(path)

    def test_field_validated_then_ignored(self, tmp_path):
        path = tmp_path / "int.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate integer symmetric\n% note\n3 3 2\n2 1 7\n3 3 4\n"
        )
        p = load_matrix_market(path)
        assert p.positions == {(0, 1)}
        bad = tmp_path / "badfield.mtx"
        bad.write_text("%%MatrixMarket matrix coordinate colors symmetric\n3 3 0\n")
        with pytest.raises(GraphInputError, match="field"):
            load_matrix_market(bad)

    def test_count_mismatch(self, tmp_path):
        path = tmp_path / "short.mtx"
        path.write_text("%%MatrixMarket matrix coordinate pattern symmetric\n3 3 2\n2 1\n")
        with pytest.raises(GraphInputError, match="declares 2"):
            load_matrix_market(path)

    def test_zero_diagonal_warning_on_load(self, tmp_path):
        path = tmp_path / "diag.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n3 3 2\n1 1 0.0\n3 1 2.5\n"
        )
        with pytest.warns(UserWarning, match="structurally nonzero"):
            p = load_matrix_market(path)
        assert p.positions == {(0, 2)}
