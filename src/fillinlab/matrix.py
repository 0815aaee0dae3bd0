"""Bridge between sparse symmetric matrix patterns and the graph machinery.

Only structure is modeled: a pattern is the set of strict upper-triangle
positions of an n-by-n symmetric matrix, with the diagonal assumed
structurally nonzero.  Symbolic factorization merges column structures up
the elimination tree of the permuted matrix (Liu 1990), each column one
Python int bitset, in one bit per position between a column's diagonal and
its last entry (at most n^2 / 2 bits), counted before the fill codes, 8 bytes
per fill position, are allocated (Gilbert, Ng and Peyton 1994)--
deliberately a separate implementation from the graph elimination game, so
the two can cross-check each other position for position: the game's fill
rows are compared with the factorization's codes one block at a time, so a
check of a fixed order holds one fill array.  Patterns and fills are both
sorted int64 codes ``i * n + j`` (``i < j``, original row ids), from the
Matrix Market text to the factorization.  Numerical cancellation is ignored.
"""

from __future__ import annotations

import re
import warnings

import numpy as np

from . import _bits
from .chordal import _validate_permutation, elimination_fill_matches
from .errors import GraphInputError
from .graph import Graph, _id_pairs, _int_param, _sorted_unique, _vertex_ids, parse_ints, text_lines

MAX_ROWS = 3_037_000_499  # isqrt(2**63 - 1): the largest n whose codes fit in int64


def _pattern_size(n) -> int:
    n = _int_param("n", n)
    if not 0 <= n <= MAX_ROWS:
        raise GraphInputError(f"pattern size must be in 0..{MAX_ROWS}, got {n}")
    return n


class SparsePattern:
    """Strict upper triangle of a symmetric matrix as read-only sorted unique codes."""

    __slots__ = ("n", "codes")

    def __init__(self, n: int, positions):
        """Pairs ``(i, j)`` with ``0 <= i < j < n``, read by ``graph._id_pairs``.

        The first entry that is no pair of integer ids raises its message; the
        pairs read before it are then tested in range before any int64 array is
        built, so an id past int64 is out of range, not an OverflowError.
        """
        n = _pattern_size(n)
        pairs, stop = _id_pairs(positions)
        if stop:
            raise GraphInputError(f"position {tuple(_vertex_ids(stop[0]))} is not a pair of vertex ids")
        i, j = pairs.T  # int64 once the test passes: an id past int64 fails it
        for k in np.flatnonzero((i < 0) | (i >= j) | (j >= n))[:1]:
            raise GraphInputError(f"position ({i[k]},{j[k]}) is not strict upper triangle")
        self.n, self.codes = n, _sorted_unique(i * n + j)
        self.codes.setflags(write=False)

    @classmethod
    def _adopt(cls, n: int, codes: np.ndarray) -> "SparsePattern":
        """Take ownership of sorted unique codes valid for size n (freezing them)."""
        codes.setflags(write=False)
        pattern = object.__new__(cls)
        pattern.n, pattern.codes = n, codes
        return pattern

    def __reduce__(self):
        # pickle and deepcopy rebuild through _adopt, which freezes the copy
        return (SparsePattern._adopt, (self.n, self.codes))

    @property
    def nnz_offdiag(self) -> int:
        return int(self.codes.size)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparsePattern):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.codes, other.codes)


def graph_from_pattern(pattern: SparsePattern) -> Graph:
    """One vertex per row, one edge per stored off-diagonal position."""
    return Graph.build(pattern.n, pattern.codes)


def pattern_from_graph(graph: Graph) -> SparsePattern:
    return SparsePattern._adopt(graph.n, _bits.upper_codes(graph.packed_rows(), graph.n))


def tridiagonal_pattern(n: int) -> SparsePattern:
    return SparsePattern._adopt(_pattern_size(n), np.arange(n - 1, dtype=np.int64) * (n + 1) + 1)


def arrow_pattern(n: int) -> SparsePattern:
    """Dense first row and column, otherwise diagonal only."""
    return SparsePattern._adopt(_pattern_size(n), np.arange(1, n, dtype=np.int64))


def symbolic_fill_codes(pattern: SparsePattern, ordering) -> tuple[np.ndarray, int]:
    """Symbolic symmetric factorization under the pivot ordering.

    Column k of the factor (in pivot order) holds the column's own lower
    entries plus, for every elimination-tree child c, the structure of c
    minus k itself; the parent of a column is its smallest entry.  Column k
    is one Python int, bit t standing for pivot row ``k + 1 + t``, so a
    column merges into its parent ``k + s`` by ``cols[k + s] |= c >> s``,
    where bit ``s - 1`` is the lowest set.  The columns take one bit per
    position between a column's diagonal and its last entry, not one entry per
    factor nonzero: an arrow with its centre pivoted last sets one bit per
    column yet holds n^2 / 2 bits (25 MB at n = 20,000, still half the packed
    rows of the graph side).

    The fill codes take 8 bytes per fill position, and nothing else grows with
    the factor: every pattern position is in the factor, so the fill count is
    the columns' set bits (``int.bit_count``) minus the pattern's, and the
    codes fill one exact-size array, sorted in place.  The columns become
    codes in ``_bits.bit_blocks`` blocks, each block's bytes joined once,
    the pattern's own bits cleared from them, only their nonzero bytes
    unpacked, and each block's ints released once read; the peak is the fill
    codes, the columns and one block.

    Returns (fill codes, total nonzeros of the factorized pattern): the
    codes are ``i * n + j`` for each fill position in original row ids with
    ``i < j``, sorted; the total counts both symmetric off-diagonal copies
    plus the n diagonal entries.
    """
    n = pattern.n
    order = _validate_permutation(n, ordering)
    step = np.empty(n, dtype=np.int64)
    step[order] = np.arange(n)
    a, b = np.take(step, np.divmod(pattern.codes, n))
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    cols = [0] * n
    for k, t in zip(lo.tolist(), (hi - lo - 1).tolist()):
        cols[k] |= 1 << t
    for k, c in enumerate(cols):
        if c:
            s = (c & -c).bit_length()
            cols[k + s] |= c >> s
    nbytes = [(c.bit_length() + 7) >> 3 for c in cols]
    first = np.zeros(n + 1, dtype=np.int64)  # where each column starts, then the end
    np.cumsum(nbytes, out=first[1:])
    own = np.sort(8 * first[lo] + hi - lo - 1)  # the pattern's bits, numbered through the joined bytes
    counts = np.array([c.bit_count() for c in cols], dtype=np.int64)
    fill = np.empty(int(counts.sum()) - own.size, dtype=np.int64)
    at = 0
    for block in _bits.bit_blocks(8 * np.diff(first), counts):
        k0, k1 = block.start, block.stop
        buf = bytearray().join([cols[k].to_bytes(nbytes[k], "little") for k in range(k0, k1)])
        cols[k0:k1] = [0] * (k1 - k0)
        buf = np.frombuffer(buf, dtype=np.uint8)
        mine = own[np.searchsorted(own, 8 * first[k0]) : np.searchsorted(own, 8 * first[k1])]
        mine = mine - 8 * first[k0]
        np.bitwise_and.at(buf, mine >> 3, ~np.left_shift(1, mine & 7).astype(np.uint8))
        size = int(counts[block].sum()) - mine.size
        _block_codes(buf, first, k0, order, fill[at : at + size])
        at += size
        del buf  # before the next block's
    fill.sort()
    return fill, 2 * (int(fill.size) + pattern.nnz_offdiag) + n


def _block_codes(buf: np.ndarray, first: np.ndarray, k0: int, order: np.ndarray, out: np.ndarray) -> None:
    """Write the codes of the set bits of the column bytes ``buf``, which start at
    column k0, to ``out``, whose size is their count.

    Column k's bytes start at ``first[k]`` of the whole byte string; only the
    nonzero bytes are unpacked.  At the peak four int64 arrays per set bit are
    alive (``_bits.BIT_BYTES``); a function of its own so that they are freed
    before the next block.
    """
    n = order.size
    nz = np.flatnonzero(buf)
    bits = np.flatnonzero(np.unpackbits(buf[nz], bitorder="little"))
    nz += first[k0]
    col = np.searchsorted(first, nz, "right") - 1
    row = (nz - first[col]) * 8 + col + 1  # pivot row of each nonzero byte's bit 0
    idx = bits >> 3
    bits &= 7
    col, row = col[idx], row[idx]
    del idx
    row += bits
    del bits
    col, row = order[col], order[row]
    np.minimum(col, row, out=out)
    out *= n
    out += np.maximum(col, row, out=row)


def fill_equivalence_check(pattern: SparsePattern, ordering) -> bool:
    """Matrix-side and graph-side fill agree position for position.

    The two sides are independent implementations; disagreement is treated
    as a hard failure by the verification suites.  The factorization's codes
    are the one fill array: the elimination game is checked against them
    block by block (``chordal.elimination_fill_matches``).
    """
    order = _validate_permutation(pattern.n, ordering)  # both sides take the int64 array
    matrix_fill, _ = symbolic_fill_codes(pattern, order)
    return elimination_fill_matches(graph_from_pattern(pattern), order, matrix_fill)


# -- Matrix Market coordinate I/O ------------------------------------------------

_WIDTHS = {"pattern": 2, "real": 3, "integer": 3, "complex": 4}  # tokens an entry needs

#: The entry lines the bulk read takes, per field: two unsigned indices of at most 15
#: digits (exact in float64), each further token a plain decimal value, exactly as many
#: tokens as the field needs, spaces and tabs only.  Anything else is read line by line.
#: Each token matches one way only, so a text that fails is rejected in linear time
#: (a value pattern that could split ``12`` two ways would backtrack through 2^k
#: splits of k earlier lines).
_BULK = {
    field: re.compile(
        r"(?:[ \t]*[0-9]{1,15}[ \t]+[0-9]{1,15}"
        + r"[ \t]+[-+]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][-+]?[0-9]+)?" * (width - 2)
        + r"[ \t]*(?:\n|\Z))*"
    )
    for field, width in _WIDTHS.items()
}

#: Entry lines per ``_BULK`` match: the matcher keeps state for every line it has
#: matched, about 440 bytes each, so one match over a whole file would grow with it.
_BULK_LINES = 512


def load_matrix_market(path) -> SparsePattern:
    """Parse a coordinate Matrix Market file; the symmetric qualifier is required.

    The field (real/integer/complex/pattern) is validated and otherwise
    ignored; indices are 1-based on disk.  Errors come in file order, the
    entry count checked between malformed and out-of-range entries.

    The lines after the size line are read in one pass when every one of them
    is an entry that ``_BULK`` accepts: one regular-expression match per run
    of ``_BULK_LINES`` joined lines, so the matcher's state stays bounded, and
    one ``np.fromstring`` over their text.  Any other file (comment or blank
    lines among the entries, signs, extra tokens, short lines, words) is read
    line by line by ``_parse_lines``; both give the same positions, messages and
    zero-diagonal warnings.  Positions are deduplicated by one sort.
    """
    lines = text_lines(path) or [""]
    parts = lines[0].split()
    if len(parts) != 5 or parts[0] != "%%MatrixMarket":
        raise GraphInputError(f"{path}: missing %%MatrixMarket header")
    _, obj, fmt, field, symmetry = (p.lower() for p in parts)
    if obj != "matrix" or fmt != "coordinate":
        raise GraphInputError(f"{path}: only 'matrix coordinate' files are supported")
    if field not in _WIDTHS:
        raise GraphInputError(f"{path}: unknown field {field!r}")
    if symmetry != "symmetric":
        raise GraphInputError(f"{path}: symmetry must be 'symmetric', got {symmetry!r}")
    at = next((k for k in range(1, len(lines)) if (s := lines[k].strip()) and s[0] != "%"), None)
    if at is None:
        raise GraphInputError(f"{path}: missing size line")
    dims = lines[at].split()
    if len(dims) != 3:
        raise GraphInputError(f"{path}:{at + 1}: size line must be '<rows> <cols> <nnz>'")
    rows, cols, nnz = parse_ints(dims, f"{path}:{at + 1}")
    if rows != cols:
        raise GraphInputError(f"{path}: pattern must be square, got {rows}x{cols}")
    n, width = _pattern_size(rows), _WIDTHS[field]
    bulk = _BULK[field].fullmatch
    if all(bulk("".join(lines[k : k + _BULK_LINES])) for k in range(at + 1, len(lines), _BULK_LINES)):
        text = "".join(lines[at + 1 :])
        count = len(lines) - at - 1
        table = np.fromstring(text, dtype=np.int64 if width == 2 else float, sep=" ")
        table = table.reshape(count, width).T
        ij, values = table[:2].astype(np.int64, copy=False), table[2:]
    else:
        body = [(k, s) for k, raw in enumerate(lines[at + 1 :], at + 2) if (s := raw.strip()) and s[0] != "%"]
        ij, values = _parse_lines(path, body, width)
        count = len(body)
    if count != nnz:
        raise GraphInputError(f"{path}: header declares {nnz} entries, found {count}")
    for k in np.flatnonzero(((ij < 1) | (ij > n)).any(axis=0))[:1]:
        i, j = map(int, ij[:, k])
        raise GraphInputError(f"entry ({i - 1},{j - 1}) out of range for n = {n}")
    i, j = ij.astype(np.int64, copy=False) - 1
    diag = i == j
    if field != "pattern":  # a complex value is zero when both of its parts are
        for d in i[diag & (values == 0).all(axis=0)].tolist():
            warnings.warn(
                f"explicit zero diagonal at {d}; treated as structurally nonzero", stacklevel=2
            )
    return SparsePattern._adopt(n, _sorted_unique((np.minimum(i, j) * n + np.maximum(i, j))[~diag]))


def _parse_lines(path, body, width) -> tuple[np.ndarray, np.ndarray]:
    """Per-line parse: the first malformed line raises; an index past int64 stays a Python int."""
    ij, values = [], []
    for lineno, line in body:
        toks = line.split()
        try:
            ij.append([int(toks[0]), int(toks[1])])
            values.append([float(toks[k]) for k in range(2, width)])
        except (ValueError, IndexError):
            raise GraphInputError(f"{path}:{lineno}: malformed entry {line!r}") from None
    m = len(body)
    return np.array(ij, dtype=object).reshape(m, 2).T, np.array(values, dtype=float).reshape(m, width - 2).T


def save_matrix_market(pattern: SparsePattern, path, comments=()) -> None:
    """Write the pattern as 'matrix coordinate pattern symmetric', lower triangle."""
    i, j = np.divmod(pattern.codes, pattern.n)
    lower = np.lexsort((i, j))
    with open(path, "w") as fh:
        fh.write("%%MatrixMarket matrix coordinate pattern symmetric\n")
        fh.writelines(f"% {c}\n" for c in comments)
        fh.write(f"{pattern.n} {pattern.n} {lower.size}\n")
        fh.write("".join(map("{} {}\n".format, (j[lower] + 1).tolist(), (i[lower] + 1).tolist())))
