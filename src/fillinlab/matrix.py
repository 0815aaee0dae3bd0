"""Bridge between sparse symmetric matrix patterns and the graph machinery.

Only structure is modeled: a pattern is the set of strict upper-triangle
positions of an n-by-n symmetric matrix, with the diagonal assumed
structurally nonzero.  Symbolic factorization merges column structures up
the elimination tree of the permuted matrix (Liu 1990), in memory
proportional to the nonzeros of the factor-- deliberately a separate
implementation from the graph elimination game, so the two can cross-check
each other position for position.  Fill positions travel as sorted int64
codes ``i * n + j`` (``i < j``, original row ids).  Numerical cancellation is
ignored throughout.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .chordal import _validate_permutation, elimination_fill_codes
from .errors import GraphInputError
from .graph import Graph, _vertex_id, pairs_from_codes, parse_ints

Position = tuple[int, int]


@dataclass(frozen=True)
class SparsePattern:
    """Strict upper-triangle positions of a symmetric matrix; no diagonal stored."""

    n: int
    positions: frozenset[Position]

    def __post_init__(self):
        for i, j in self.positions:
            if not (0 <= i < j < self.n):
                raise GraphInputError(f"position ({i},{j}) is not strict upper triangle")

    @property
    def nnz_offdiag(self) -> int:
        return len(self.positions)

    @classmethod
    def from_entries(cls, n: int, entries, values=None) -> "SparsePattern":
        """Build from (row, col) pairs in any order; diagonal entries are dropped.

        ``values`` may supply the numeric value per entry; an explicit zero on
        the diagonal triggers a warning and is still treated as structurally
        nonzero.  Indices are read by ``graph._vertex_id``.
        """
        pos = set()
        for k, (i, j) in enumerate(entries):
            try:
                i, j = _vertex_id(i), _vertex_id(j)
            except TypeError as exc:
                raise GraphInputError(f"vertex ids must be integers: {exc}") from None
            if not (0 <= i < n and 0 <= j < n):
                raise GraphInputError(f"entry ({i},{j}) out of range for n = {n}")
            if i == j:
                if values is not None and values[k] == 0:
                    warnings.warn(
                        f"explicit zero diagonal at {i}; treated as structurally nonzero",
                        stacklevel=2,
                    )
                continue
            pos.add((i, j) if i < j else (j, i))
        return cls(n, frozenset(pos))


def graph_from_pattern(pattern: SparsePattern) -> Graph:
    """One vertex per row, one edge per stored off-diagonal position."""
    return Graph.build(pattern.n, pattern.positions)


def pattern_from_graph(graph: Graph) -> SparsePattern:
    return SparsePattern(graph.n, graph.edge_set())


def tridiagonal_pattern(n: int) -> SparsePattern:
    return SparsePattern(n, frozenset((i, i + 1) for i in range(n - 1)))


def arrow_pattern(n: int) -> SparsePattern:
    """Dense first row and column, otherwise diagonal only."""
    return SparsePattern(n, frozenset((0, j) for j in range(1, n)))


def _position_array(pattern: SparsePattern) -> np.ndarray:
    """The stored positions as an (m, 2) int64 array, in set order."""
    m = len(pattern.positions)
    flat = np.fromiter(chain.from_iterable(pattern.positions), dtype=np.int64, count=2 * m)
    return flat.reshape(m, 2)


def symbolic_fill_codes(pattern: SparsePattern, ordering) -> tuple[np.ndarray, int]:
    """Symbolic symmetric factorization under the pivot ordering.

    Column k of the factor (in pivot order) holds the column's own lower
    entries plus, for every elimination-tree child c, the structure of c
    minus k itself; the parent of a column is its smallest entry.  Returns
    (fill codes, total nonzeros of the factorized pattern): the codes are
    ``i * n + j`` for each fill position in original row ids with ``i < j``,
    sorted; the total counts both symmetric off-diagonal copies plus the n
    diagonal entries.
    """
    n = pattern.n
    order = _validate_permutation(n, ordering)
    step = np.empty(n, dtype=np.int64)
    step[order] = np.arange(n)
    pairs = _position_array(pattern)
    a, b = step[pairs[:, 0]], step[pairs[:, 1]]
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    by_col = np.lexsort((hi, lo))
    own = hi[by_col]
    starts = np.searchsorted(lo[by_col], np.arange(n + 1))
    children: list[list[np.ndarray]] = [[] for _ in range(n)]
    columns = []
    for k in range(n):
        col = own[starts[k] : starts[k + 1]]
        if children[k]:
            col = np.unique(np.concatenate([col, *children[k]]))
        if col.size:
            children[col[0]].append(col[1:])
        columns.append(col)
    sizes = np.fromiter(map(len, columns), dtype=np.int64, count=n)
    a = order[np.repeat(np.arange(n), sizes)]
    b = order[np.concatenate(columns)] if columns else a
    factor = np.sort(np.minimum(a, b) * n + np.maximum(a, b))
    original = pairs[:, 0] * n + pairs[:, 1]
    fill = np.setdiff1d(factor, original, assume_unique=True)
    return fill, 2 * int(factor.size) + n


def symbolic_factor(pattern: SparsePattern, ordering) -> tuple[frozenset[Position], int]:
    """Fill positions (original row ids, strict upper triangle) and total nonzeros.

    The set form of ``symbolic_fill_codes``.
    """
    codes, total = symbolic_fill_codes(pattern, ordering)
    return pairs_from_codes(codes, pattern.n), total


def fill_equivalence_check(pattern: SparsePattern, ordering) -> bool:
    """Matrix-side and graph-side fill agree position for position.

    The two sides are independent implementations; disagreement is treated
    as a hard failure by the verification suites.
    """
    order = list(ordering)
    matrix_fill, _ = symbolic_fill_codes(pattern, order)
    graph_fill = elimination_fill_codes(graph_from_pattern(pattern), order)
    return bool(np.array_equal(matrix_fill, graph_fill))


# -- Matrix Market coordinate I/O ------------------------------------------------

_FIELDS = ("real", "integer", "complex", "pattern")


def load_matrix_market(path) -> SparsePattern:
    """Parse a coordinate Matrix Market file; the symmetric qualifier is required.

    The field (real/integer/complex/pattern) is validated and otherwise
    ignored; indices are 1-based on disk.
    """
    with open(path) as fh:
        header = fh.readline().strip()
        parts = header.split()
        if len(parts) != 5 or parts[0] != "%%MatrixMarket":
            raise GraphInputError(f"{path}: missing %%MatrixMarket header")
        _, obj, fmt, field, symmetry = (p.lower() for p in parts)
        if obj != "matrix" or fmt != "coordinate":
            raise GraphInputError(f"{path}: only 'matrix coordinate' files are supported")
        if field not in _FIELDS:
            raise GraphInputError(f"{path}: unknown field {field!r}")
        if symmetry != "symmetric":
            raise GraphInputError(f"{path}: symmetry must be 'symmetric', got {symmetry!r}")
        size_line = None
        for lineno, raw in enumerate(fh, 2):
            line = raw.strip()
            if line and not line.startswith("%"):
                size_line = line
                break
        if size_line is None:
            raise GraphInputError(f"{path}: missing size line")
        dims = size_line.split()
        if len(dims) != 3:
            raise GraphInputError(f"{path}:{lineno}: size line must be '<rows> <cols> <nnz>'")
        rows, cols, nnz = parse_ints(dims, f"{path}:{lineno}")
        if rows != cols:
            raise GraphInputError(f"{path}: pattern must be square, got {rows}x{cols}")
        entries = []
        vals = []
        for lineno, raw in enumerate(fh, lineno + 1):
            line = raw.strip()
            if not line or line.startswith("%"):
                continue
            toks = line.split()
            try:
                entries.append((int(toks[0]) - 1, int(toks[1]) - 1))
                if field == "pattern":
                    vals.append(1.0)
                elif field == "complex":
                    vals.append(abs(complex(float(toks[2]), float(toks[3]))))
                else:
                    vals.append(float(toks[2]))
            except (ValueError, IndexError):
                raise GraphInputError(f"{path}:{lineno}: malformed entry {line!r}") from None
        if len(entries) != nnz:
            raise GraphInputError(
                f"{path}: header declares {nnz} entries, found {len(entries)}"
            )
    return SparsePattern.from_entries(rows, entries, vals)


def save_matrix_market(pattern: SparsePattern, path, comments=()) -> None:
    """Write the pattern as 'matrix coordinate pattern symmetric', lower triangle."""
    lower = sorted((j, i) for i, j in pattern.positions)
    with open(path, "w") as fh:
        fh.write("%%MatrixMarket matrix coordinate pattern symmetric\n")
        for c in comments:
            fh.write(f"% {c}\n")
        fh.write(f"{pattern.n} {pattern.n} {len(lower)}\n")
        for i, j in lower:
            fh.write(f"{i + 1} {j + 1}\n")
