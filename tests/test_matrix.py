import copy
import hashlib
import pickle
import re
import signal
import warnings

import numpy as np
import pytest

from fillinlab import _bits, matrix
from fillinlab.chordal import check_peo, elimination_fill_codes
from fillinlab.errors import GraphInputError
from fillinlab.graph import pairs_from_codes
from fillinlab.matrix import (
    MAX_ROWS,
    SparsePattern,
    arrow_pattern,
    fill_equivalence_check,
    graph_from_pattern,
    load_matrix_market,
    pattern_from_graph,
    save_matrix_market,
    symbolic_fill_codes,
    tridiagonal_pattern,
)

from .conftest import grid3d_pattern, random_graph, traced_peak
from .oracles import degree, elimination_fill_brute, has_edge, load_matrix_market_lines, symbolic_merge_brute


def positions(pattern):
    return pairs_from_codes(pattern.codes, pattern.n)


def write_mtx(path, field, *lines):
    """A symmetric coordinate file: the header, then the size line and entries as given."""
    header = f"%%MatrixMarket matrix coordinate {field} symmetric"
    path.write_text("\n".join([header, *lines]) + "\n")
    return path


class TestPattern:
    def test_reader_folds_both_triangles(self, tmp_path):
        path = write_mtx(tmp_path / "m.mtx", "pattern", "4 4 5", "3 1", "1 3", "2 4", "3 3", "4 2")
        assert positions(load_matrix_market(path)) == {(0, 2), (1, 3)}

    def test_rejects_out_of_range(self, tmp_path):
        with pytest.raises(GraphInputError, match="not strict upper triangle"):
            SparsePattern(3, [(0, 5)])
        path = write_mtx(tmp_path / "m.mtx", "pattern", "3 3 2", "2 1", "6 1")
        with pytest.raises(GraphInputError, match=r"entry \(5,0\) out of range for n = 3"):
            load_matrix_market(path)

    @pytest.mark.parametrize(
        "bad", [(0.5, 2), (True, 2), ("0", 2), (0, 2.0)], ids=["float", "bool", "str", "float-col"]
    )
    def test_rejects_non_integer_ids(self, bad):
        """Each was stored as given (a string raised TypeError) before the
        constructor read ids by the vertex-id rule; ``(0.5, 2)`` was then
        factorized as ``(0, 2)`` and written as the entry line ``3 1.5``."""
        with pytest.raises(GraphInputError, match="vertex ids must be integers"):
            SparsePattern(3, [(0, 1), bad])

    @pytest.mark.parametrize("size", [2.5, True, "3", None])
    def test_rejects_non_integer_size(self, size):
        with pytest.raises(GraphInputError, match="^n must be an integer"):
            SparsePattern(size, [])

    @pytest.mark.parametrize(
        "bad", [(0, 2**70), (2**64, 2**65), (-(2**70), 1), (1, 2**63)], ids=["j", "both", "negative", "int64-max+1"]
    )
    def test_ids_past_int64_are_not_upper_triangle(self, bad):
        """Positions are range-tested before they become int64: ``(0, 2**70)``
        raised a bare OverflowError from the int64 array."""
        with pytest.raises(GraphInputError, match=rf"^position \({bad[0]},{bad[1]}\) is not strict upper triangle$"):
            SparsePattern(3, [(0, 1), bad])

    @pytest.mark.parametrize("bad", [(0, 1, 2), (0,), ()])
    def test_rejects_non_pairs(self, bad):
        with pytest.raises(GraphInputError, match="is not a pair of vertex ids"):
            SparsePattern(3, [(0, 1), bad])

    @pytest.mark.parametrize("dump", [
        lambda p: pickle.loads(pickle.dumps(p)), copy.deepcopy, copy.copy,
    ], ids=["pickle", "deepcopy", "copy"])
    def test_copies_stay_read_only(self, dump):
        p = SparsePattern(5, [(0, 3), (1, 4), (2, 3)])
        q = dump(p)
        assert q == p and q.n == 5 and q.codes.dtype == np.int64
        assert not q.codes.flags.writeable and not p.codes.flags.writeable

    def test_reads_numpy_ids(self):
        p = SparsePattern(np.int64(4), [(np.int64(0), np.int32(2)), (np.uint8(1), 3), (0, 2)])
        assert p.n == 4 and p.nnz_offdiag == 2
        assert positions(p) == {(0, 2), (1, 3)}

    def test_rejects_lower_triangle_direct(self):
        with pytest.raises(GraphInputError):
            SparsePattern(3, frozenset({(2, 1)}))

    def test_rejects_negative_size(self, tmp_path):
        with pytest.raises(GraphInputError, match="pattern size must be in 0"):
            SparsePattern(-2, frozenset())
        with pytest.raises(GraphInputError, match="pattern size must be in 0"):
            tridiagonal_pattern(-2)
        with pytest.raises(GraphInputError, match="got -2"):
            load_matrix_market(write_mtx(tmp_path / "neg.mtx", "pattern", "-2 -2 0"))

    def test_size_bound_keeps_codes_in_int64(self):
        n = MAX_ROWS
        assert n**2 <= 2**63 - 1 < (n + 1) ** 2
        assert SparsePattern(n, [(n - 2, n - 1)]).codes.tolist() == [(n - 2) * n + n - 1]
        with pytest.raises(GraphInputError, match="pattern size"):
            SparsePattern(MAX_ROWS + 1, frozenset())

    def test_codes_are_sorted_unique_and_read_only(self, tmp_path):
        g = random_graph(np.random.default_rng(3), 9)
        path = tmp_path / "g.mtx"
        save_matrix_market(pattern_from_graph(g), path)
        made = [
            SparsePattern(6, [(4, 5), (0, 3), (4, 5), (1, 2)]),
            pattern_from_graph(g),
            load_matrix_market(path),
            tridiagonal_pattern(6),
            arrow_pattern(6),
        ]
        for p in made:
            assert p.codes.dtype == np.int64 and (np.diff(p.codes) > 0).all()
            assert not p.codes.flags.writeable
        assert made[1] == made[2] and made[0] != made[3]

    def test_zero_diagonal_warns(self, tmp_path):
        path = write_mtx(tmp_path / "m.mtx", "complex", "3 3 3", "2 2 0.0 -0", "3 1 5 0", "3 3 0 1")
        with pytest.warns(UserWarning, match="structurally nonzero") as record:
            load_matrix_market(path)
        assert [str(w.message) for w in record] == [
            "explicit zero diagonal at 1; treated as structurally nonzero"
        ]

    def test_nonzero_diagonal_silent(self, tmp_path):
        files = [
            write_mtx(tmp_path / "r.mtx", "real", "3 3 2", "2 2 2.0", "3 1 0"),
            write_mtx(tmp_path / "i.mtx", "integer", "3 3 2", "2 2 -1", "3 1 0"),
            write_mtx(tmp_path / "p.mtx", "pattern", "3 3 2", "2 2", "3 1"),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for path in files:
                assert positions(load_matrix_market(path)) == {(0, 2)}


class TestGraphFromPattern:
    def test_tridiagonal_is_path(self):
        g = graph_from_pattern(tridiagonal_pattern(5))
        assert g.m == 4 and all(has_edge(g, i, i + 1) for i in range(4))

    def test_arrow_is_star(self):
        g = graph_from_pattern(arrow_pattern(5))
        assert degree(g, 0) == 4 and all(degree(g, v) == 1 for v in range(1, 5))

    def test_empty_offdiagonal(self):
        g = graph_from_pattern(SparsePattern(4, frozenset()))
        assert g.m == 0


class TestSymbolicFactor:
    def test_tridiagonal_natural_zero_fill(self):
        fill, total = symbolic_fill_codes(tridiagonal_pattern(5), range(5))
        assert fill.size == 0
        assert total == 2 * 4 + 5

    def test_arrow_center_first_dense(self):
        fill, total = symbolic_fill_codes(arrow_pattern(5), [0, 1, 2, 3, 4])
        assert fill.size == 6  # C(4,2), the eliminated hub cliques its leaves
        assert total == 2 * (4 + 6) + 5

    def test_arrow_leaves_first_zero_fill(self):
        fill, _ = symbolic_fill_codes(arrow_pattern(5), [1, 2, 3, 4, 0])
        assert fill.size == 0

    def test_rejects_non_permutation(self):
        with pytest.raises(GraphInputError):
            symbolic_fill_codes(tridiagonal_pattern(4), [0, 1, 2])

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
            fill, total = symbolic_fill_codes(pattern, order)
            assert total == 2 * (g.m + fill.size) + g.n


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


# 30-bit int digit, byte and 64-bit word boundaries of the bitset columns
BOUNDARY_SIZES = (0, 1, 7, 8, 9, 29, 30, 31, 63, 64, 65, 127, 128, 129)


def boundary_cases(rng):
    """(pattern, order): for every boundary size, the tridiagonal, the arrow
    and eight random patterns (half split into two blocks, so the elimination
    tree is a forest), each under the natural, reverse and a random order."""
    for n in BOUNDARY_SIZES:
        patterns = [tridiagonal_pattern(n), arrow_pattern(n)]
        for k in range(8):
            p = float(rng.choice([0.0, 0.02, 0.1, 0.3, 0.6, 1.0]))
            pairs = {(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p}
            if k % 2:
                side = rng.random(n) < 0.5
                pairs = {(i, j) for i, j in pairs if side[i] == side[j]}
            patterns.append(SparsePattern(n, pairs))
        for pattern in patterns:
            for order in (list(range(n)), list(range(n - 1, -1, -1)), rng.permutation(n).tolist()):
                yield pattern, order


class TestEliminationTreeFactor:
    def test_matches_brute_elimination(self, rng):
        for pattern in random_patterns(rng, 400):
            order = rng.permutation(pattern.n).tolist()
            fill, total = symbolic_fill_codes(pattern, order)
            brute = elimination_fill_brute(pattern.n, positions(pattern), order)
            assert pairs_from_codes(fill, pattern.n) == brute
            assert total == 2 * (pattern.nnz_offdiag + fill.size) + pattern.n

    def test_codes_sorted_and_match_graph_game(self, rng):
        for pattern in random_patterns(rng, 100):
            n = pattern.n
            order = rng.permutation(n).tolist()
            codes, _ = symbolic_fill_codes(pattern, order)
            assert codes.dtype == np.int64 and (np.diff(codes) > 0).all()
            assert np.array_equal(codes, elimination_fill_codes(graph_from_pattern(pattern), order))

    def test_tridiagonal_20000_rows_without_dense_matrix(self):
        n = 20_000
        for order in (range(n), range(n - 1, -1, -1)):
            (fill, total), peak = traced_peak(symbolic_fill_codes, tridiagonal_pattern(n), order)
            assert fill.size == 0 and total == 2 * (n - 1) + n
            # an n-by-n bool matrix would take 400 MB, and packed rows 50 MB
            assert peak < 40 * 2**20

    @pytest.mark.parametrize("block_bytes", [None, 64], ids=["one-block", "64-byte-blocks"])
    def test_matches_per_column_merge(self, rng, monkeypatch, block_bytes):
        """The bitset columns against the per-column ``np.unique`` merge and the
        graph game; 64-byte unpack blocks split the extraction into many."""
        if block_bytes:
            monkeypatch.setattr(_bits, "UNPACK_BLOCK_BYTES", block_bytes)
        cases = 0
        for pattern, order in boundary_cases(rng):
            fill, total = symbolic_fill_codes(pattern, order)
            want, want_total = symbolic_merge_brute(pattern.n, pattern.codes, order)
            assert fill.dtype == want.dtype == np.int64
            assert np.array_equal(fill, want) and total == want_total
            assert np.array_equal(fill, elimination_fill_codes(graph_from_pattern(pattern), order))
            cases += 1
        assert cases >= 400

    @pytest.mark.parametrize("with_path", [False, True], ids=["arrow", "path-and-arrow"])
    def test_arrow_20000_rows_centre_last(self, with_path):
        """The widest bitset columns found: every column reaches the last row,
        n^2 / 2 bits in all, and no fill."""
        n = 20_000
        pattern = arrow_pattern(n)
        if with_path:
            codes = np.union1d(pattern.codes, tridiagonal_pattern(n).codes)
            pattern = SparsePattern(n, pairs_from_codes(codes, n))
        order = [*range(1, n), 0]
        (fill, total), peak = traced_peak(symbolic_fill_codes, pattern, order)
        assert fill.size == 0 and total == 2 * pattern.nnz_offdiag + n
        assert peak < 40 * 2**20

    def test_grid_12_cubed_natural_order_peak(self):
        pattern = grid3d_pattern(12)
        (fill, total), peak = traced_peak(symbolic_fill_codes, pattern, range(pattern.n))
        assert (fill.size, total) == (224_939, 461_110)
        assert peak < 4 * 2**20  # 1.7 MiB of fill codes, the columns and one block

    def test_tiny_blocks_match_one_block(self, rng, monkeypatch):
        """Both code extractions at a 64-byte cap, about one row or column per
        block, against the same call in one block."""
        calls = {"rows": 0, "cols": 0}
        set_positions, block_codes = _bits.set_positions, matrix._block_codes

        def rows_counted(rows):
            calls["rows"] += 1
            return set_positions(rows)

        def cols_counted(*args):
            calls["cols"] += 1
            block_codes(*args)

        monkeypatch.setattr(_bits, "set_positions", rows_counted)
        monkeypatch.setattr(matrix, "_block_codes", cols_counted)
        cases = [(grid3d_pattern(5), range(125)), (arrow_pattern(90), range(90))]
        for n in (63, 64, 65, 130):
            cases.append((pattern_from_graph(random_graph(rng, n)), rng.permutation(n).tolist()))
        for pattern, order in cases:
            rows = graph_from_pattern(pattern).packed_rows().copy()
            _bits.set_diagonal(rows)  # dropped with the rest of the lower triangle
            results = []
            for block_bytes, want_blocks in ((1 << 40, 1), (64, pattern.n // 2)):
                monkeypatch.setattr(_bits, "UNPACK_BLOCK_BYTES", block_bytes)
                calls.update(rows=0, cols=0)
                results.append((_bits.upper_codes(rows, pattern.n), *symbolic_fill_codes(pattern, order)))
                assert min(calls.values()) >= want_blocks and (want_blocks > 1 or max(calls.values()) == 1)
            (codes, fill, total), (tiny_codes, tiny_fill, tiny_total) = results
            assert np.array_equal(codes, pattern.codes) and np.array_equal(tiny_codes, codes)
            assert np.array_equal(tiny_fill, fill) and tiny_total == total


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
            fill, _ = symbolic_fill_codes(pattern_from_graph(g), order)
            assert (fill.size == 0) == check_peo(g, order)


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
        assert positions(p) == {(0, 1)}
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
        assert positions(p) == {(0, 2)}


_VALUES = {  # value tokens per entry, and the strings they are drawn from
    "pattern": (0, []),
    "real": (1, ["0", "0.0", "-0.0", "2.5", "1e-3", "nan", "-inf", "1_0.5"]),
    "integer": (1, ["0", "-0", "7", "+3", "-12", "1_000"]),
    "complex": (2, ["0", "0.0", "-0", "1.5", "nan"]),
}
_FAULTS = ("short", "word-index", "float-index", "word-value", "count", "range", "huge-index")


def _entry(rng, field, n):
    count, choices = _VALUES[field]
    i, j = (str(x) for x in rng.integers(1, max(n, 1) + 1, size=2))
    return [i, i if rng.random() < 0.25 else j, *(str(rng.choice(choices)) for _ in range(count))]


def _mtx_corpus(rng, count):
    """Seeded symmetric files: every field, both triangles, duplicates, zero
    and nonzero diagonals, comment and blank lines between entries, extra
    tokens; every second file carries one or two of the ``_FAULTS``."""
    for k in range(count):
        field = str(rng.choice(list(_VALUES)))
        n = int(rng.integers(0, 9))
        entries = [_entry(rng, field, n) for _ in range(int(rng.integers(0, 14)) if n else 0)]
        for tokens in entries:
            if rng.random() < 0.1:
                tokens.append("9")  # extra tokens are ignored
        if entries and rng.random() < 0.3:
            entries.append(list(entries[int(rng.integers(len(entries)))]))
        nnz = len(entries)
        faults = rng.choice(_FAULTS, size=int(rng.integers(1, 3)), replace=False)
        for fault in faults if k % 2 else ():
            bad = _entry(rng, field, n)
            if fault == "count":
                nnz += int(rng.choice([-1, 1]))
                continue
            if fault == "short":
                bad = bad[: int(rng.integers(1, len(bad)))]
            elif fault == "word-value":
                bad[2:3] = ["abc"]  # the first value; in a pattern file, an extra token
            else:
                bad[int(rng.integers(2))] = {
                    "word-index": "x",
                    "float-index": bad[0] + ".0",
                    "range": str(rng.choice([0, -1, n + 1, n + 3])),
                    "huge-index": "9" * 25,
                }[fault]
            entries.insert(int(rng.integers(0, len(entries) + 1)), bad)
            nnz += 1
        lines = [f"%%MatrixMarket matrix coordinate {field} symmetric", "%", f"{n} {n} {nnz}"]
        for tokens in entries:
            if rng.random() < 0.2:
                lines.append(str(rng.choice(["% between", "", "   ", "%"])))
            lines.append(("  " if rng.random() < 0.1 else "") + " ".join(tokens))
        yield "\n".join(lines) + "\n"


def _outcome(load, path):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = load(path)
        except Exception as exc:  # the exception itself is the outcome compared
            result = (type(exc), str(exc))
    return result, [(w.category, str(w.message)) for w in caught]


class TestReaderParity:
    def test_matches_line_reader_on_seeded_corpus(self, tmp_path):
        """Same positions, exception type and message, and warnings as the
        per-entry reader; a file that fails warns nothing."""
        rng = np.random.default_rng(2024)
        seen = set()
        for k, text in enumerate(_mtx_corpus(rng, 600)):
            path = tmp_path / f"c{k}.mtx"
            path.write_text(text)
            want, want_warnings = _outcome(load_matrix_market_lines, path)
            got, got_warnings = _outcome(load_matrix_market, path)
            if isinstance(got, SparsePattern):
                got = (got.n, positions(got))
                assert got_warnings == want_warnings, text
            else:
                assert got_warnings == [], text
            assert got == want, text
            faults = ("malformed", "declares", "out of range")
            seen.add(next((w for w in faults if w in str(want)), "loaded"))
        assert seen == {"loaded", *faults}


def _writer_cases():
    """The eliminate digest's patterns, two small named ones, an empty one
    and a random one written with comments."""
    from .test_cli import _digest_patterns

    rng = np.random.default_rng(97)
    pairs = {(int(i), int(j)) for i, j in rng.integers(0, 40, size=(90, 2)) if i < j}
    cases = [(name, pattern, ()) for name, pattern in _digest_patterns()]
    cases += [
        ("tri.mtx", tridiagonal_pattern(7), ()),
        ("arrow.mtx", arrow_pattern(7), ()),
        ("empty.mtx", SparsePattern(3, frozenset()), ()),
        ("comments.mtx", SparsePattern(40, frozenset(pairs)), ["seed 97", "two lines"]),
    ]
    return cases


# Recorded with the writer that sorted a frozenset of positions; the bench
# digests the files it writes, so the bytes must not move.
WRITER_DIGEST = "178331408fb2584b6396f811fc2df2acfe327c6e10af2319046cc921c8454146"


def test_writer_digest(tmp_path):
    digest = hashlib.sha256()
    for name, pattern, comments in _writer_cases():
        save_matrix_market(pattern, tmp_path / name, comments=comments)
        digest.update((tmp_path / name).read_bytes())
    assert digest.hexdigest() == WRITER_DIGEST


def _entry_line(rng, field, n, fault=None):
    """One entry line in one of the spellings the bulk read takes or leaves to
    the line reader; ``fault`` picks a spelling that only the line reader reads."""
    count = _VALUES[field][0]
    i, j = (int(x) for x in rng.integers(1, max(n, 1) + 1, size=2))
    if rng.random() < 0.3:
        j = i
    tokens = [str(i), str(j)]
    values = ["0", "0.0", "-0", "+0.0", "2.5", "-1.", ".5", "1e-400", "3E+2", "0e5", "-7"]
    tokens += [str(rng.choice(values)) for _ in range(count)]
    if fault == "sign":
        tokens[int(rng.integers(2))] = "+" + tokens[0]
    elif fault == "zeros":
        tokens[int(rng.integers(2))] = "0" * int(rng.integers(1, 17)) + tokens[1]
    elif fault == "odd-value" and count:
        tokens[2] = str(rng.choice(["nan", "-inf", "1_0", "0x1", "1.5.2"]))
    elif fault == "extra":
        tokens.append("9")
    elif fault == "short":
        tokens = tokens[: int(rng.integers(1, len(tokens)))]
    elif fault == "word":
        tokens[int(rng.integers(len(tokens)))] = "x"
    elif fault == "range":
        tokens[int(rng.integers(2))] = str(rng.choice([0, n + 1]))
    gaps = ["\t", "  ", " \t "] if rng.random() < 0.2 else [" "]
    line = "".join(t + str(rng.choice(gaps)) for t in tokens).rstrip()
    return (str(rng.choice(["", " ", "\t"])) if rng.random() < 0.2 else "") + line + (" " if rng.random() < 0.1 else "")


def _bulk_corpus(rng, count):
    """Seeded files of every field: half of them well formed (the bulk read's
    case), half with one fault among signs, leading zeros, odd values, extra
    tokens, short lines, words, out-of-range ids, comment or blank lines
    among the entries, a wrong entry count, CRLF endings or no final newline."""
    faults = ("sign", "zeros", "odd-value", "extra", "short", "word", "range", "comment", "blank", "count", "crlf", "eof")
    for k in range(count):
        field = str(rng.choice(list(_VALUES)))
        n = int(rng.integers(0, 12))
        fault = str(rng.choice(faults)) if k % 2 else None
        entries = [_entry_line(rng, field, n) for _ in range(int(rng.integers(0, 16)) if n else 0)]
        if fault in ("sign", "zeros", "odd-value", "extra", "short", "word", "range") and n:
            entries.insert(int(rng.integers(0, len(entries) + 1)), _entry_line(rng, field, n, fault))
        nnz = len(entries) + (int(rng.choice([-1, 1])) if fault == "count" else 0)
        if fault in ("comment", "blank"):
            entries.insert(int(rng.integers(0, len(entries) + 1)), "% note" if fault == "comment" else "")
        lines = [f"%%MatrixMarket matrix coordinate {field} symmetric", "% size next", f"{n} {n} {nnz}", *entries]
        text = "\n".join(lines) + ("" if fault == "eof" else "\n")
        yield text.replace("\n", "\r\n") if fault == "crlf" else text


_PARSE_LINES = matrix._parse_lines


def _read_both(path, monkeypatch):
    """The reader's outcome with its bulk read, whether it took the bulk read, and
    its outcome with every file left to the line reader."""
    calls = []
    monkeypatch.setattr(matrix, "_parse_lines", lambda *args: calls.append(1) or _PARSE_LINES(*args))
    bulk = _outcome(load_matrix_market, path)
    took_bulk = not calls
    with monkeypatch.context() as m:
        m.setattr(matrix, "_BULK", dict.fromkeys(matrix._BULK, re.compile("(?!)")))
        by_line = _outcome(load_matrix_market, path)
    return bulk, by_line, took_bulk


def _as_positions(outcome):
    result, caught = outcome
    return ((result.n, positions(result)) if isinstance(result, SparsePattern) else result), caught


class TestBulkRead:
    def test_matches_the_line_reader_on_a_seeded_corpus(self, tmp_path, monkeypatch):
        """Same positions, exception type and message, and warnings with the
        bulk read as without it and as the reference reader; every well-formed
        file takes the bulk read."""
        rng = np.random.default_rng(3131)
        took = 0
        for k, text in enumerate(_bulk_corpus(rng, 500)):
            path = tmp_path / f"b{k}.mtx"
            path.write_bytes(text.encode())
            bulk, by_line, took_bulk = _read_both(path, monkeypatch)
            assert _as_positions(bulk) == _as_positions(by_line), text
            want = _outcome(load_matrix_market_lines, path)
            assert _as_positions(bulk)[0] == _as_positions(want)[0], text
            if isinstance(bulk[0], SparsePattern):
                assert bulk[0].codes.dtype == np.int64 and bulk[1] == want[1], text
            if k % 2 == 0:
                assert took_bulk, text
            took += took_bulk
        assert 250 <= took < 500

    def test_matches_the_line_reader_on_the_test_files(self, tmp_path, monkeypatch):
        """Every Matrix Market file the tests write takes the bulk read, with the
        line reader's result."""
        for name, pattern, comments in _writer_cases():
            path = tmp_path / name
            save_matrix_market(pattern, path, comments=comments)
            bulk, by_line, took_bulk = _read_both(path, monkeypatch)
            assert took_bulk and bulk[0] == pattern == by_line[0]
            assert bulk[1] == by_line[1] == []

    def test_seeded_corpus_matches_without_the_bulk_read(self, tmp_path, monkeypatch):
        """The fault corpus of ``TestReaderParity`` gives the same outcome either way."""
        rng = np.random.default_rng(2024)
        for k, text in enumerate(_mtx_corpus(rng, 300)):
            path = tmp_path / f"c{k}.mtx"
            path.write_text(text)
            bulk, by_line, _ = _read_both(path, monkeypatch)
            assert _as_positions(bulk) == _as_positions(by_line), text

    def test_bulk_read_memory_is_bounded(self, tmp_path, monkeypatch):
        """50,000 entry lines (0.55 MiB of text) take the bulk read, whose matcher
        keeps about 440 bytes per line it has matched: matched a run of lines at a
        time, the peak is the lines, their text and the arrays, under 200 bytes a
        line, where one match over the whole text took about 490."""
        m = 50_000
        path = tmp_path / "tri.mtx"
        save_matrix_market(tridiagonal_pattern(m + 1), path)

        def refuse(*args):
            raise AssertionError("the line reader ran")

        monkeypatch.setattr(matrix, "_parse_lines", refuse)
        pattern, peak = traced_peak(load_matrix_market, path)
        assert pattern == tridiagonal_pattern(m + 1)
        assert peak < 200 * m

    @pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs an interval timer")
    @pytest.mark.parametrize("field", ["real", "integer", "complex"])
    @pytest.mark.parametrize("tail", ["\n", "% after the entries\n", "61 61 x\n"])
    def test_a_rejected_file_is_rejected_in_linear_time(self, tmp_path, monkeypatch, field, tail):
        """60 entries with multi-digit values and a last line the bulk read rejects
        (blank, comment, malformed) give the line reader's outcome at once; a value
        pattern that matches ``12`` two ways backtracks through 2^60 splits here."""
        width = matrix._WIDTHS[field] - 2
        entries = "".join(f"{k} {k}" + f" {10 + k}" * width + "\n" for k in range(1, 61))
        count = 60 + ("x" in tail)
        path = tmp_path / "late.mtx"
        path.write_text(f"%%MatrixMarket matrix coordinate {field} symmetric\n61 61 {count}\n{entries}{tail}")

        def expire(*_):
            raise TimeoutError("the bulk read backtracked")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, 10)
        try:
            bulk, by_line, took_bulk = _read_both(path, monkeypatch)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert not took_bulk
        assert _as_positions(bulk) == _as_positions(by_line)
        assert ("malformed" in str(bulk[0])) == ("x" in tail)
