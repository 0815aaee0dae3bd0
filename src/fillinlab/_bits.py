"""Packed bit-row helpers: the adjacency storage of every graph.

Rows are numpy uint64 arrays; bit ``i`` of a row lives in word ``i >> 6`` at
position ``i & 63`` (little-endian within each word, matching
``np.unpackbits(..., bitorder="little")`` on the uint8 view).
"""

import numpy as np

WORD = 64

#: Bytes of boolean matrix that whole-matrix scans unpack at a time.
UNPACK_BLOCK_BYTES = 1 << 24

_U1 = np.uint64(1)
_U63 = np.uint64(63)


def nwords(nbits: int) -> int:
    return (nbits + WORD - 1) // WORD


def zero_rows(nrows: int, nbits: int) -> np.ndarray:
    return np.zeros((nrows, nwords(nbits)), dtype=np.uint64)


def mask_from_indices(nbits: int, idx) -> np.ndarray:
    """One packed row with exactly the bits in ``idx`` set."""
    mask = np.zeros(nwords(nbits), dtype=np.uint64)
    idx = np.asarray(idx, dtype=np.int64)
    if idx.size:
        np.bitwise_or.at(mask, idx >> 6, _U1 << (idx.astype(np.uint64) & _U63))
    return mask


def range_mask(nbits: int, lo: int, hi: int) -> np.ndarray:
    """Packed row with bits lo..hi-1 set."""
    mask = np.zeros(nwords(nbits), dtype=np.uint64)
    if hi <= lo:
        return mask
    wlo, whi = lo >> 6, (hi - 1) >> 6
    mask[wlo : whi + 1] = ~np.uint64(0)
    mask[wlo] &= ~np.uint64(0) << np.uint64(lo & 63)
    tail = hi & 63
    if tail:
        mask[whi] &= ~np.uint64(0) >> np.uint64(64 - tail)
    return mask


def test_bit(row: np.ndarray, i: int) -> bool:
    return bool((row[i >> 6] >> np.uint64(i & 63)) & _U1)


def set_bit(row: np.ndarray, i: int) -> None:
    row[i >> 6] |= _U1 << np.uint64(i & 63)


def clear_bit(row: np.ndarray, i: int) -> None:
    row[i >> 6] &= ~(_U1 << np.uint64(i & 63))


def clear_diagonal(rows: np.ndarray, idx) -> None:
    """Clear bit v of row v for every v in idx (in place)."""
    idx = np.asarray(idx, dtype=np.int64)
    rows[idx, idx >> 6] &= ~(_U1 << (idx.astype(np.uint64) & _U63))


def set_diagonal(rows: np.ndarray) -> None:
    """Set bit v of row v for every row v (in place): open rows become closed."""
    v = np.arange(rows.shape[0], dtype=np.int64)
    rows[v, v >> 6] |= _U1 << (v.astype(np.uint64) & _U63)


def diagonal(rows: np.ndarray) -> np.ndarray:
    """Bit v of row v, for every row v, as a boolean vector."""
    v = np.arange(rows.shape[0], dtype=np.int64)
    return ((rows[v, v >> 6] >> (v.astype(np.uint64) & _U63)) & _U1).astype(bool)


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
    nbits = matrix.shape[1]
    pad = nwords(nbits) * 8  # bytes per row after packing
    packed = np.packbits(matrix, axis=1, bitorder="little")
    if packed.shape[1] < pad:
        packed = np.pad(packed, ((0, 0), (0, pad - packed.shape[1])))
    return np.ascontiguousarray(packed).view(np.uint64)


def indices(row: np.ndarray, nbits: int) -> np.ndarray:
    """Sorted positions of the set bits of one packed row."""
    return unpack(row, nbits).nonzero()[0]


def is_clique(rows: np.ndarray, mask: np.ndarray, n: int) -> bool:
    """True iff the vertices of ``mask`` are pairwise adjacent in the open rows:
    each has the other ``|mask| - 1`` in its row.  Empty and one-vertex masks are cliques.

    An open row holds at most ``|mask| - 1`` of them, so one total decides it.
    """
    idx = indices(mask, n)
    return int(np.bitwise_count(rows[idx] & mask).sum()) == idx.size * (idx.size - 1)


def upper_codes(rows: np.ndarray, n: int) -> np.ndarray:
    """Sorted codes ``u * n + w`` (u < w) of the set bits (u, w) of an n-row matrix.

    Only the nonzero words at or right of the diagonal are unpacked, from one
    block of rows at a time, so a block never unpacks more than about
    ``UNPACK_BLOCK_BYTES`` bytes; the bits at and below the diagonal are
    cleared from each diagonal word first, so every unpacked bit is a code.
    """
    out = [np.empty(0, dtype=np.int64)]
    step = max(1, UNPACK_BLOCK_BYTES // max(n, 1))
    for lo in range(0, n, step):
        r, c = np.nonzero(rows[lo : lo + step])
        r += lo
        upper = c >= r >> 6
        r, c = r[upper], c[upper]
        words = rows[r, c]
        diag = c == r >> 6
        above = _U1 << (r[diag] & 63).astype(np.uint64) << _U1  # 0 at bit 63
        words[diag] &= ~(above - _U1)
        bits = np.flatnonzero(unpack(words[:, None], WORD))
        code = (r * n + c * WORD)[bits >> 6]
        bits &= WORD - 1
        code += bits
        out.append(code)
    return np.concatenate(out)
