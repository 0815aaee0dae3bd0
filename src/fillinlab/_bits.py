"""Packed bit-row helpers: the adjacency storage of every graph.

Rows are numpy uint64 arrays; bit ``i`` of a row lives in word ``i >> 6`` at
position ``i & 63`` (little-endian within each word, matching
``np.unpackbits(..., bitorder="little")`` on the uint8 view); bits past the last
column are padding, always zero.  No other module computes the words, bits or
block sizes of packed rows: they call the helpers here and walk them in ``blocks``.

``set_positions`` is the one routine that finds the set bits of a matrix: it
unpacks only the nonzero words, and ``upper_codes``, min-fill's fill pairs and
the forbidden-clique search read their bits through it.  No other module
unpacks a matrix to find its set bits; ``indices`` reads one row.  Likewise
``row_ints`` and its inverse ``rows_from_ints`` are the one conversion between
packed rows and Python ints (bit i of the int is bit i of the row), which the
vertex cover search and min-degree's opening play on.

The block policy lives here too: ``blocks`` slices items of one size, and
``bit_blocks`` slices the rows or columns whose set bits become int64 codes,
charging each item its unpacked bytes and ``BIT_BYTES`` per set bit.  Both
hold a block to ``UNPACK_BLOCK_BYTES``, so a routine that turns set bits into
codes (``upper_codes`` and ``matrix.symbolic_fill_codes``) counts them first,
allocates its exact-size output once, and peaks at that output plus one block.
``upper_codes_equal`` reads the same blocks as ``upper_codes`` but compares each
with its slice of given codes instead of keeping it, so a fill that is checked
against codes in hand never exists twice.
"""

import numpy as np

WORD = 64

#: Bytes a whole-matrix scan holds per block: the boolean matrix it unpacks
#: and, where it builds codes, ``BIT_BYTES`` per set bit.
UNPACK_BLOCK_BYTES = 1 << 20

#: Bytes of int64 temporaries per set bit while ``set_positions`` or
#: ``matrix._block_codes`` turn bits into positions: four arrays at the peak.
BIT_BYTES = 32

_U1 = np.uint64(1)

#: ``_CLEAR[b]`` is a word with every bit but b set: ``clear_bit``'s mask, built once.
_CLEAR = ~(_U1 << np.arange(WORD, dtype=np.uint64))


def nwords(nbits: int) -> int:
    return (nbits + WORD - 1) // WORD


def zero_rows(nrows: int, nbits: int) -> np.ndarray:
    return np.zeros((nrows, nwords(nbits)), dtype=np.uint64)


def set_bits(rows: np.ndarray, r, c) -> None:
    """Set bit c[k] of row r[k] for int64 arrays r (or a row id) and c (in place); pairs may repeat."""
    np.bitwise_or.at(rows, (r, c >> 6), _U1 << (c & 63).astype(np.uint64))


def clear_bits(rows: np.ndarray, r, c) -> None:
    """Clear bit c[k] of row r[k] for every k (in place); pairs may repeat."""
    np.bitwise_and.at(rows, (r, c >> 6), ~(_U1 << (c & 63).astype(np.uint64)))


def get_bits(rows: np.ndarray, r, c) -> np.ndarray:
    """Bit c[k] of row r[k] for every k, as a boolean vector."""
    return ((rows[r, c >> 6] >> (c & 63).astype(np.uint64)) & _U1).astype(bool)


def mask_from_indices(nbits: int, idx) -> np.ndarray:
    """One packed row with exactly the bits in ``idx`` set; ids may repeat.

    Packed from a boolean vector by ``np.packbits``: one call, where
    ``set_bits``'s ``np.bitwise_or.at`` pays a per-pair cost."""
    vec = np.zeros(nwords(nbits) * WORD, dtype=bool)
    vec[np.asarray(idx, dtype=np.int64)] = True
    return np.packbits(vec, bitorder="little").view(np.uint64)


def test_bit(row: np.ndarray, i: int) -> bool:
    return bool(row.item(i >> 6) >> (i & 63) & 1)  # a Python int: no NumPy scalar arithmetic


def clear_bit(row: np.ndarray, i: int) -> None:
    row[i >> 6] &= _CLEAR[i & 63]


def set_diagonal(rows: np.ndarray) -> None:
    """Set bit v of row v for every row v (in place): open rows become closed."""
    v = np.arange(rows.shape[0], dtype=np.int64)
    set_bits(rows, v, v)


def diagonal(rows: np.ndarray) -> np.ndarray:
    """Bit v of row v, for every row v, as a boolean vector."""
    v = np.arange(rows.shape[0], dtype=np.int64)
    return get_bits(rows, v, v)


def padded_rows(rows: np.ndarray, nbits: int) -> np.ndarray:
    """Ascending ids of the rows with a padding bit set (none when nbits fills the words)."""
    return np.flatnonzero((rows[:, nbits // WORD :] >> np.uint64(nbits % WORD)).any(axis=1))


def row_ints(rows: np.ndarray) -> list[int]:
    """Each packed row as one Python int, bit i of the int being bit i of the row."""
    return [int.from_bytes(row.tobytes(), "little") for row in rows]


def rows_from_ints(ints: list[int], nbits: int) -> np.ndarray:
    """The inverse of ``row_ints``: one packed row per Python int, each below ``1 << nbits``.

    Each int's bytes are written straight into its row of one preallocated array,
    so the peak is that array plus one row's bytes."""
    rows = zero_rows(len(ints), nbits)
    width = 8 * rows.shape[1]
    out = memoryview(rows.view(np.uint8).reshape(-1))
    for i, x in enumerate(ints):
        out[i * width : (i + 1) * width] = x.to_bytes(width, "little")
    return rows


def blocks(count: int, item_bytes: int):
    """Slices of ``range(count)`` in order: as many items of ``item_bytes`` as fit in
    ``UNPACK_BLOCK_BYTES`` (read when iteration starts), and at least one."""
    step = max(1, UNPACK_BLOCK_BYTES // max(item_bytes, 1))
    for lo in range(0, count, step):
        yield slice(lo, min(lo + step, count))


def bit_blocks(nbits, set_bits: np.ndarray):
    """Slices of ``range(set_bits.size)`` in order: as many items as fit in
    ``UNPACK_BLOCK_BYTES`` (read when iteration starts), an item costing its
    ``nbits`` unpacked bytes (an array, or one size for all) plus ``BIT_BYTES``
    for each of its ``set_bits``, and at least one."""
    ends = np.zeros(set_bits.size + 1, dtype=np.int64)
    np.cumsum(nbits + BIT_BYTES * set_bits, out=ends[1:])
    cap, lo = UNPACK_BLOCK_BYTES, 0
    while lo < set_bits.size:
        hi = max(lo + 1, int(np.searchsorted(ends, ends[lo] + cap, "right")) - 1)
        yield slice(lo, hi)
        lo = hi


def popcount_rows(rows: np.ndarray) -> np.ndarray:
    """Number of set bits per row."""
    return np.bitwise_count(rows).sum(axis=-1, dtype=np.int64)


def unpack(rows: np.ndarray, nbits: int) -> np.ndarray:
    """Packed rows to a boolean matrix (or a single row to a boolean vector)."""
    bits = np.unpackbits(rows.view(np.uint8), axis=-1, count=nbits, bitorder="little")
    return bits.view(bool)


def pack(matrix: np.ndarray) -> np.ndarray:
    """Boolean matrix to packed rows (columns padded to a word multiple)."""
    matrix = np.asarray(matrix, dtype=bool)
    out = np.zeros((matrix.shape[0], nwords(matrix.shape[1]) * 8), dtype=np.uint8)
    out[:, : (matrix.shape[1] + 7) // 8] = np.packbits(matrix, axis=1, bitorder="little")
    return out.view(np.uint64)


def indices(row: np.ndarray, nbits: int) -> np.ndarray:
    """Sorted positions of the set bits of one packed row."""
    return unpack(row, nbits).nonzero()[0]


def set_positions(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row and column of every set bit of a 2-D array of packed rows, as int64
    arrays in row-major order: ``np.nonzero(unpack(rows, nbits))`` for any
    ``nbits`` that covers the set bits.  Only the nonzero words are unpacked,
    64 bytes each, so the cost follows the set words, not the matrix size; at
    its peak it holds three int64 arrays per set bit (``BIT_BYTES`` allows four).
    """
    r, w = np.nonzero(rows)
    words = rows[r, w]
    c = unpack(words, WORD * words.size).nonzero()[0]  # bit b of word k at 64 k + b
    word = c >> 6
    c &= WORD - 1
    w <<= 6
    c += w[word]
    return r[word], c


def is_clique(rows: np.ndarray, mask: np.ndarray, n: int) -> bool:
    """True iff the vertices of ``mask`` are pairwise adjacent in the open rows:
    each has the other ``|mask| - 1`` in its row.  Empty and one-vertex masks are cliques.

    An open row holds at most ``|mask| - 1`` of them, so one total decides it.
    """
    idx = indices(mask, n)
    return int(np.bitwise_count(rows[idx] & mask).sum()) == idx.size * (idx.size - 1)


def upper_codes(rows: np.ndarray, n: int) -> np.ndarray:
    """Sorted codes ``u * n + w`` (u < w) of the set bits (u, w) of an n-row matrix.

    A matrix read in one block (``_upper_counts``) returns that block's codes.
    A larger one fills one exact-size array with the codes of each
    ``_upper_code_blocks`` block in turn, so the peak is the codes plus one
    block of about ``UNPACK_BLOCK_BYTES``.
    """
    counts = _upper_counts(rows, n)
    if counts is None:
        return _block_upper_codes(rows, slice(0, n), n)
    codes = np.empty(int(counts.sum()), dtype=np.int64)
    at = 0
    for part in _upper_code_blocks(rows, n, counts):
        codes[at : at + part.size] = part
        at += part.size
        del part  # before the next block's
    return codes


def upper_codes_equal(rows: np.ndarray, n: int, codes: np.ndarray) -> bool:
    """``np.array_equal(upper_codes(rows, n), codes)`` for a 1-D ``codes``,
    without building the left side.

    A matrix read in one block is compared whole.  A larger one compares its
    count of set bits right of the diagonal with ``codes.size`` first, then the
    codes of each ``_upper_code_blocks`` block with their slice of ``codes``,
    each block released before the next, so the peak beside ``codes`` is one
    block of about ``UNPACK_BLOCK_BYTES``.
    """
    counts = _upper_counts(rows, n)
    if counts is None:
        return np.array_equal(_block_upper_codes(rows, slice(0, n), n), codes)
    if int(counts.sum()) != codes.size:
        return False
    at = 0
    for part in _upper_code_blocks(rows, n, counts):
        if not np.array_equal(codes[at : at + part.size], part):
            return False
        at += part.size
        del part  # before the next block's
    return True


def _upper_counts(rows: np.ndarray, n: int) -> np.ndarray | None:
    """The set bits right of the diagonal in each row of an n-row matrix, or
    None when the matrix is read in one block: it fits one ``bit_blocks``
    block with every position right of its diagonal set.

    The rows are counted one ``blocks`` slice of n unpacked bytes per row at a
    time, each slice masked by ``_right_of_diagonal``.
    """
    if n * n + BIT_BYTES * (n * (n - 1) // 2) <= UNPACK_BLOCK_BYTES:
        return None
    counts = np.empty(n, dtype=np.int64)
    for b in blocks(n, n):
        np.bitwise_count(_right_of_diagonal(rows, b.start, b.stop)).sum(axis=1, dtype=np.int64, out=counts[b])
    return counts


def _upper_code_blocks(rows: np.ndarray, n: int, counts: np.ndarray):
    """The codes of an n-row matrix whose rows hold ``counts`` set bits right of
    the diagonal, ascending, one ``bit_blocks`` block of rows at a time: the
    block loop of ``upper_codes`` and ``upper_codes_equal``."""
    for block in bit_blocks(n, counts):
        yield _block_upper_codes(rows, block, n)


def _block_upper_codes(rows: np.ndarray, block: slice, n: int) -> np.ndarray:
    """The codes of the set bits right of the diagonal in rows ``block``, ascending:
    a masked copy of the block (``_right_of_diagonal``) read by ``set_positions``."""
    u, w = set_positions(_right_of_diagonal(rows, block.start, block.stop))
    u += block.start
    u *= n
    u += w
    return u


def _right_of_diagonal(rows: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """A copy of rows lo..hi-1 with only the bits right of the diagonal: the words
    left of the diagonal word zeroed, and the bits at and below the diagonal cleared
    from it."""
    r = np.arange(lo, hi)
    part = rows[lo:hi].copy()
    part[np.arange(rows.shape[1]) < (r >> 6)[:, None]] = 0
    above = _U1 << (r & 63).astype(np.uint64) << _U1  # 0 at bit 63
    part[r - lo, r >> 6] &= ~(above - _U1)
    return part


def is_symmetric(rows: np.ndarray, n: int) -> bool:
    """Bit (u, v) equals bit (v, u) for all u, v of an n-row matrix.  Per block of words, rows
    lo..hi from column lo on are compared with columns lo..hi from row lo on: each bit unpacks about once."""
    for words in blocks(rows.shape[1], WORD * n):
        lo, hi = words.start * WORD, min(words.stop * WORD, n)
        top = unpack(rows[lo:hi, words.start :], n - lo)
        left = top if hi == n else unpack(rows[lo:, words], hi - lo)
        if not np.array_equal(top, left.T):
            return False
    return True
