"""The packed-row layout and its block policy: the ``_bits`` helpers, and the
rule that no other package module computes words, bits or block sizes."""

from pathlib import Path

import numpy as np
import pytest

import fillinlab
from fillinlab import _bits

from .conftest import random_graph

#: Text that computes a word index, a bit position or a block size by hand, or that
#: turns packed rows into Python ints or Python ints into row bytes (``row_ints`` and
#: ``rows_from_ints`` do).
LAYOUT_ARITHMETIC = (
    ">> 6", "& 63", "_bits.WORD", "UNPACK_BLOCK_BYTES //", "UNPACK_BLOCK_BYTES >>", "BIT_BYTES *",
    "int.from_bytes", ".tobytes()", ".to_bytes(", "memoryview(",
)

#: ``matrix.symbolic_fill_codes`` turns its Python-int columns, which are not packed
#: rows, into bytes.
LAYOUT_ALLOWED = {"matrix.py": (".to_bytes(",)}


def test_only_bits_knows_the_layout():
    package = Path(fillinlab.__file__).parent
    offenders = [
        f"{path.name}: {token!r}"
        for path in sorted(package.glob("*.py"))
        if path.name != "_bits.py"
        for token in LAYOUT_ARITHMETIC
        if token in path.read_text() and token not in LAYOUT_ALLOWED.get(path.name, ())
    ]
    assert not offenders


def test_only_bits_finds_set_bits_of_a_matrix():
    """No other module calls ``nonzero`` on an unpacked matrix: ``set_positions`` does it."""
    package = Path(fillinlab.__file__).parent
    offenders = [
        f"{path.name}: {token!r}"
        for path in sorted(package.glob("*.py"))
        if path.name != "_bits.py"
        for token in ("np.nonzero(", ".nonzero()")
        if token in path.read_text()
    ]
    assert not offenders


@pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 127, 128, 129])
@pytest.mark.parametrize("nrows", [0, 1, 2, 3])
def test_set_positions_match_unpack_nonzero(rng, nrows, n):
    for fill in ("empty", "full", 0.05, 0.5, 0.95):
        if fill == "empty":
            matrix = np.zeros((nrows, n), dtype=bool)
        elif fill == "full":
            matrix = np.ones((nrows, n), dtype=bool)
        else:
            matrix = rng.random((nrows, n)) < fill
        rows = _bits.pack(matrix)
        want = np.nonzero(_bits.unpack(rows, n))
        got = _bits.set_positions(rows)
        for a, b in zip(got, want, strict=True):
            assert a.dtype == np.int64
            assert a.tolist() == b.tolist()


@pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 130])
def test_mask_from_indices_packs_the_boolean_vector(rng, n):
    for size in (0, 1, n // 2, 2 * n):
        idx = rng.integers(0, max(n, 1), size=size if n else 0)
        idx = np.concatenate([idx, idx[:3]])  # repeated ids
        vec = np.zeros((1, n), dtype=bool)
        vec[0, idx] = True
        got = _bits.mask_from_indices(n, idx.tolist())
        assert got.dtype == np.uint64 and got.shape == (_bits.nwords(n),)
        assert got.tolist() == _bits.pack(vec)[0].tolist()


@pytest.mark.parametrize("n", [1, 63, 64, 65, 130])
def test_set_clear_get_match_a_set_of_pairs(rng, n):
    nrows = 5
    rows = _bits.zero_rows(nrows, n)
    want = set()
    for _ in range(6):
        size = int(rng.integers(0, 3 * n))
        r = rng.integers(0, nrows, size=size)
        c = rng.integers(0, n, size=size)
        r, c = np.concatenate([r, r[:3]]), np.concatenate([c, c[:3]])  # repeated pairs
        pairs = set(zip(r.tolist(), c.tolist()))
        if rng.random() < 0.6:
            _bits.set_bits(rows, r, c)
            want |= pairs
        else:
            _bits.clear_bits(rows, r, c)
            want -= pairs
        assert {(i, j) for i in range(nrows) for j in _bits.indices(rows[i], n).tolist()} == want
        assert not _bits.padded_rows(rows, n).size
        qr = rng.integers(0, nrows, size=2 * n)
        qc = rng.integers(0, n, size=2 * n)
        got = _bits.get_bits(rows, qr, qc)
        assert got.dtype == bool
        assert got.tolist() == [(i, j) in want for i, j in zip(qr.tolist(), qc.tolist())]


@pytest.mark.parametrize("n", [1, 63, 64, 65, 130])
def test_diagonal_helpers(rng, n):
    rows = _bits.zero_rows(n, n)
    _bits.set_diagonal(rows)
    assert _bits.diagonal(rows).all()
    idx = np.unique(rng.integers(0, n, size=n // 2 + 1))
    twice = np.concatenate([idx, idx])
    _bits.clear_bits(rows, twice, twice)
    assert np.flatnonzero(~_bits.diagonal(rows)).tolist() == idx.tolist()
    assert _bits.mask_from_indices(n, range(n)).tolist() == _bits.pack(np.ones((1, n), bool))[0].tolist()


@pytest.mark.parametrize("n, column", [(1, 1), (63, 63), (65, 127), (130, 191)])
def test_padded_rows(n, column):
    rows = _bits.zero_rows(3, n)
    rows[1, -1] |= np.uint64(1) << np.uint64(column % 64)
    assert _bits.padded_rows(rows, n).tolist() == [1]
    assert _bits.padded_rows(_bits.zero_rows(3, 64), 64).size == 0


@pytest.mark.parametrize("cap", [None, 1, 7, 64, 1000])
@pytest.mark.parametrize("block_bytes", [1 << 24, 64])
def test_blocks_cover_each_item_once(monkeypatch, cap, block_bytes):
    """Blocks made under ``block_bytes`` and iterated under ``cap`` (the same when
    None) hold to ``cap``: ``UNPACK_BLOCK_BYTES`` is read when iteration starts."""
    for count in (0, 1, 5, 64, 1000):
        for item_bytes in (0, 1, 8, 9, 100, 10**9):
            monkeypatch.setattr(_bits, "UNPACK_BLOCK_BYTES", block_bytes)
            blocks = _bits.blocks(count, item_bytes)
            limit = block_bytes if cap is None else cap
            monkeypatch.setattr(_bits, "UNPACK_BLOCK_BYTES", limit)
            parts = list(blocks)
            assert all(p.stop > p.start for p in parts)
            assert [i for p in parts for i in range(count)[p]] == list(range(count))
            assert all(p.stop - p.start == 1 or (p.stop - p.start) * item_bytes <= limit for p in parts)


@pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 130])
def test_row_ints_hold_the_edges(rng, n):
    g = random_graph(rng, n)
    ints = _bits.row_ints(g.packed_rows())
    assert len(ints) == n
    from_ints = [(u, v) for u in range(n) for v in range(u + 1, n) if ints[u] >> v & 1]
    assert from_ints == g.edge_list()
    assert all(x < 1 << n for x in ints)


@pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 130])
def test_rows_from_ints_inverts_row_ints(rng, n):
    for fill in ("empty", "full", 0.05, 0.5):
        matrix = np.full((4, n), fill == "full") if isinstance(fill, str) else rng.random((4, n)) < fill
        rows = _bits.pack(matrix)
        back = _bits.rows_from_ints(_bits.row_ints(rows), n)
        assert back.dtype == np.uint64 and back.shape == (4, _bits.nwords(n))
        assert back.tolist() == rows.tolist()
        assert not _bits.padded_rows(back, n).size
    assert _bits.rows_from_ints([(1 << n) - 1], n).tolist() == _bits.pack(np.ones((1, n), bool)).tolist()
    assert _bits.rows_from_ints([], n).shape == (0, _bits.nwords(n))


def _other_codes(codes: np.ndarray, n: int):
    """Code arrays beside the true ``codes`` of an n-row matrix: none, one more past
    the last, the last or the first dropped, one replaced by a free position of
    its own row, and the last code of a row moved to a free position of the next
    row that holds codes (the next block, when a block holds about one row)."""
    taken = set(codes.tolist())
    free = [u * n + w for u in range(n) for w in range(u + 1, n) if u * n + w not in taken]
    out = [np.empty(0, dtype=np.int64), np.append(codes, n * n), codes[:-1], codes[1:]]
    rows = codes // max(n, 1)
    for i in range(codes.size):
        own = [c for c in free if c // n == rows[i]]
        later = np.flatnonzero(rows > rows[i])
        if own and i == codes.size // 2:
            out.append(np.sort(np.append(np.delete(codes, i), own[0])))
        if later.size and rows[i + 1] > rows[i] and (nxt := [c for c in free if c // n == rows[later[0]]]):
            out.append(np.sort(np.append(np.delete(codes, i), nxt[0])))
            break
    return out


@pytest.mark.parametrize("block_bytes", [None, 64], ids=["one-block", "64-byte-blocks"])
def test_upper_codes_equal_is_array_equal(rng, monkeypatch, block_bytes):
    """The block comparison gives ``np.array_equal(upper_codes(rows, n), codes)``
    on seeded symmetric matrices, diagonal bits included, against their codes and
    the wrong codes of ``_other_codes``; 64-byte blocks read about one row each,
    so a moved code crosses a block boundary."""
    if block_bytes:
        monkeypatch.setattr(_bits, "UNPACK_BLOCK_BYTES", block_bytes)
    wrong = 0
    for n in (0, 1, 2, 5, 63, 64, 65, 130):
        for density in (0.0, 0.05, 0.5, 1.0):
            matrix = rng.random((n, n)) < density
            matrix |= matrix.T
            rows = _bits.pack(matrix)
            codes = _bits.upper_codes(rows, n)
            assert _bits.upper_codes_equal(rows, n, codes)
            for other in _other_codes(codes, n):
                want = np.array_equal(_bits.upper_codes(rows, n), other)
                assert _bits.upper_codes_equal(rows, n, other) == want, (n, density)
                wrong += not want
    assert wrong > 80
