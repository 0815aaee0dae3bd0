"""Simple undirected graphs over dense vertex ids 0..n-1.

Graph values are immutable once built.  Two storage modes share one API:
an adjacency-set mode for sparse graphs, and a packed bit-matrix mode that
kicks in when m > n^2/8 (gadget graphs produced by the reductions are dense
enough that per-edge storage would dominate memory).  Edge queries are O(1)
in both modes and neighborhood iteration is linear in degree up to the
density constant.

File formats owned here: a DIMACS-like edge-list text format (1-based on
disk) and a canonical edge-set text serialization (0-based, one sorted pair
per line).
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Iterator

import numpy as np

from . import _bits
from .errors import GraphInputError

EdgePair = tuple[int, int]

#: Mode switch: store a packed bit matrix once m exceeds n^2 / _DENSE_DIVISOR.
_DENSE_DIVISOR = 8


def _norm_pair(u, v) -> EdgePair:
    return (u, v) if u < v else (v, u)


def pairs_from_codes(codes: np.ndarray, n: int) -> frozenset[EdgePair]:
    """Decode pair codes ``u * n + v`` into a set of ``(u, v)`` tuples."""
    return frozenset(zip((codes // n).tolist(), (codes % n).tolist()))


def normalize_edges(vertex_count: int, edges: Iterable) -> list[EdgePair]:
    """Validate and canonicalize an edge iterable: in-range, no loops, u < v, sorted, deduped."""
    seen = set()
    for e in edges:
        u, v = int(e[0]), int(e[1])
        if u == v:
            raise GraphInputError(f"self-loop ({u},{v}) is not allowed")
        if not (0 <= u < vertex_count and 0 <= v < vertex_count):
            raise GraphInputError(
                f"edge ({u},{v}) out of range for {vertex_count} vertices"
            )
        seen.add(_norm_pair(u, v))
    return sorted(seen)


def _is_symmetric(rows: np.ndarray, n: int) -> bool:
    """Bit (u, v) equals bit (v, u) for all u, v, unpacking one block of rows at a time.

    The block of rows lo..hi (a whole number of words) is compared, from
    column lo on, with the block of columns lo..hi from row lo on; the last
    block is square and compared with its own transpose.  Every bit is
    unpacked about once.
    """
    nw = rows.shape[1]
    words = max(1, _bits.UNPACK_BLOCK_BYTES // (_bits.WORD * max(n, 1)))
    for w0 in range(0, nw, words):
        w1 = min(w0 + words, nw)
        lo, hi = w0 * _bits.WORD, min(w1 * _bits.WORD, n)
        top = _bits.unpack(rows[lo:hi, w0:], n - lo)
        left = top if hi == n else _bits.unpack(rows[lo:, w0:w1], hi - lo)
        if not np.array_equal(top, left.T):
            return False
    return True


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1."""

    __slots__ = ("n", "m", "_nbrs", "_pairs", "_rows", "_degrees")

    def __init__(self, *_args, **_kwargs):
        raise TypeError("use Graph.build(...) or another constructor")

    @classmethod
    def _new(cls) -> "Graph":
        return object.__new__(cls)

    # -- constructors ------------------------------------------------------

    @classmethod
    def build(cls, vertex_count: int, edges: Iterable = ()) -> "Graph":
        """Build from an edge iterable; duplicates collapse, loops are rejected."""
        if vertex_count < 0:
            raise GraphInputError("vertex_count must be nonnegative")
        pairs = normalize_edges(vertex_count, edges)
        g = cls._new()
        g.n = vertex_count
        g.m = len(pairs)
        g._degrees = None
        if vertex_count and g.m * _DENSE_DIVISOR > vertex_count * vertex_count:
            g._nbrs = None
            g._pairs = None
            rows = _bits.zero_rows(vertex_count, vertex_count)
            if pairs:
                arr = np.asarray(pairs, dtype=np.int64)
                u, v = arr[:, 0], arr[:, 1]
                np.bitwise_or.at(
                    rows,
                    (u, v >> 6),
                    np.uint64(1) << (v.astype(np.uint64) & np.uint64(63)),
                )
                np.bitwise_or.at(
                    rows,
                    (v, u >> 6),
                    np.uint64(1) << (u.astype(np.uint64) & np.uint64(63)),
                )
            rows.setflags(write=False)
            g._rows = rows
        else:
            nbr_lists: list[list[int]] = [[] for _ in range(vertex_count)]
            for u, v in pairs:
                nbr_lists[u].append(v)
                nbr_lists[v].append(u)
            g._nbrs = [np.array(sorted(ns), dtype=np.int64) for ns in nbr_lists]
            g._pairs = frozenset(pairs)
            g._rows = None
        return g

    @classmethod
    def from_packed_rows(cls, rows: np.ndarray, vertex_count: int) -> "Graph":
        """Adopt a packed adjacency bit matrix (dense mode).

        The matrix must be symmetric with an empty diagonal; both are verified
        at every size, the symmetry one block of rows against the matching
        block of columns at a time.
        """
        rows = np.ascontiguousarray(rows, dtype=np.uint64)
        if rows.shape != (vertex_count, _bits.nwords(vertex_count)):
            raise GraphInputError("packed row shape does not match vertex_count")
        diag = np.flatnonzero(_bits.diagonal(rows))
        if diag.size:
            raise GraphInputError(f"diagonal bit set at vertex {int(diag[0])}")
        if not _is_symmetric(rows, vertex_count):
            raise GraphInputError("packed adjacency is not symmetric")
        g = cls._new()
        g.n = vertex_count
        g.m = int(_bits.popcount_rows(rows).sum()) // 2
        g._nbrs = None
        g._pairs = None
        g._degrees = None
        rows = rows.copy()
        rows.setflags(write=False)
        g._rows = rows
        return g

    @classmethod
    def from_bool_matrix(cls, matrix: np.ndarray) -> "Graph":
        matrix = np.asarray(matrix, dtype=bool)
        n = matrix.shape[0]
        if matrix.shape != (n, n):
            raise GraphInputError("adjacency matrix must be square")
        return cls.from_packed_rows(_bits.pack(matrix), n)

    # -- queries -----------------------------------------------------------

    @property
    def is_dense_mode(self) -> bool:
        return self._nbrs is None

    def has_edge(self, u: int, v: int) -> bool:
        if self._pairs is not None:
            return _norm_pair(u, v) in self._pairs
        return _bits.test_bit(self._rows[u], v)

    def neighbors(self, v: int) -> np.ndarray:
        if self._nbrs is not None:
            return self._nbrs[v]
        return _bits.indices(self._rows[v], self.n)

    def degree(self, v: int) -> int:
        if self._nbrs is not None:
            return len(self._nbrs[v])
        return _bits.popcount(self._rows[v])

    def degrees(self) -> np.ndarray:
        if self._degrees is None:
            if self._nbrs is not None:
                d = np.array([len(ns) for ns in self._nbrs], dtype=np.int64)
            else:
                d = _bits.popcount_rows(self._rows)
            d.setflags(write=False)
            self._degrees = d
        return self._degrees

    def iter_edges(self) -> Iterator[EdgePair]:
        if self._pairs is not None:
            yield from sorted(self._pairs)
            return
        for u in range(self.n):
            later = _bits.indices(self._rows[u], self.n)
            for v in later[later > u]:
                yield (u, int(v))

    def edge_list(self) -> list[EdgePair]:
        return list(self.iter_edges())

    def edge_set(self) -> frozenset[EdgePair]:
        if self._pairs is not None:
            return self._pairs
        return frozenset(self.iter_edges())

    def packed_rows(self) -> np.ndarray:
        """Read-only packed adjacency; built lazily for sparse-mode graphs."""
        if self._rows is None:
            rows = _bits.zero_rows(self.n, self.n)
            for v, ns in enumerate(self._nbrs):
                if len(ns):
                    rows[v] = _bits.mask_from_indices(self.n, ns)
            rows.setflags(write=False)
            self._rows = rows
        return self._rows

    def bool_matrix(self) -> np.ndarray:
        return _bits.unpack(self.packed_rows(), self.n)

    # -- derived graphs ----------------------------------------------------

    def add_edges(self, edges: Iterable) -> "Graph":
        """New graph with the given pairs added; self is left untouched."""
        extra = normalize_edges(self.n, edges)
        if not extra:
            return self
        if self._rows is not None and self._pairs is None:
            rows = self._rows.copy()
            arr = np.asarray(extra, dtype=np.int64)
            u, v = arr[:, 0], arr[:, 1]
            np.bitwise_or.at(
                rows, (u, v >> 6), np.uint64(1) << (v.astype(np.uint64) & np.uint64(63))
            )
            np.bitwise_or.at(
                rows, (v, u >> 6), np.uint64(1) << (u.astype(np.uint64) & np.uint64(63))
            )
            return Graph.from_packed_rows(rows, self.n)
        return Graph.build(self.n, list(self._pairs) + extra)

    def induced_subgraph(self, vertices: Iterable) -> tuple["Graph", np.ndarray]:
        """Relabeled subgraph on the given vertex set.

        Returns (subgraph, mapping) where mapping[i] is the original id of
        new vertex i; vertices are kept in ascending original order.
        """
        keep = np.unique(np.asarray(list(vertices), dtype=np.int64))
        if keep.size and (keep[0] < 0 or keep[-1] >= self.n):
            raise GraphInputError("subset vertex out of range")
        pos = {int(v): i for i, v in enumerate(keep)}
        edges = []
        for i, v in enumerate(keep):
            for w in self.neighbors(int(v)):
                j = pos.get(int(w))
                if j is not None and j > i:
                    edges.append((i, j))
        return Graph.build(keep.size, edges), keep

    def non_edges_within(self, vertices: Iterable) -> frozenset[EdgePair]:
        """Unordered pairs inside the subset that are absent from the graph."""
        keep = np.unique(np.asarray(list(vertices), dtype=np.int64))
        if keep.size and (keep[0] < 0 or keep[-1] >= self.n):
            raise GraphInputError("subset vertex out of range")
        out = []
        for i in range(keep.size):
            u = int(keep[i])
            for j in range(i + 1, keep.size):
                v = int(keep[j])
                if not self.has_edge(u, v):
                    out.append((u, v))
        return frozenset(out)

    # -- misc ----------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.m == other.m and self.edge_set() == other.edge_set()

    def __hash__(self):
        return hash((self.n, self.m))

    def __repr__(self) -> str:
        mode = "dense" if self.is_dense_mode else "sparse"
        return f"Graph(n={self.n}, m={self.m}, {mode})"

    def content_hash(self) -> str:
        """SHA-256 over the canonical edge-list text; stable instance id."""
        h = hashlib.sha256()
        h.update(f"{self.n}\n".encode())
        for u, v in self.iter_edges():
            h.update(f"{u} {v}\n".encode())
        return h.hexdigest()


# -- DIMACS-like edge list format -------------------------------------------


def save_dimacs(graph: Graph, path, comments: Iterable[str] = ()) -> None:
    """Write `p edge n m` then `e u v` lines, 1-based ids."""
    with open(path, "w") as fh:
        for c in comments:
            fh.write(f"c {c}\n")
        fh.write(f"p edge {graph.n} {graph.m}\n")
        for u, v in graph.iter_edges():
            fh.write(f"e {u + 1} {v + 1}\n")


def load_dimacs(path) -> Graph:
    """Parse the edge-list format; `c` comment lines and blank lines are skipped."""
    n = None
    declared = None
    edges = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("c"):
                continue
            parts = line.split()
            if parts[0] == "p":
                if n is not None:
                    raise GraphInputError(f"{path}:{lineno}: duplicate problem line")
                if len(parts) != 4 or parts[1] != "edge":
                    raise GraphInputError(f"{path}:{lineno}: expected 'p edge <n> <m>'")
                n, declared = int(parts[2]), int(parts[3])
            elif parts[0] == "e":
                if n is None:
                    raise GraphInputError(f"{path}:{lineno}: edge before problem line")
                if len(parts) != 3:
                    raise GraphInputError(f"{path}:{lineno}: expected 'e <u> <v>'")
                u, v = int(parts[1]) - 1, int(parts[2]) - 1
                edges.append((u, v))
            else:
                raise GraphInputError(f"{path}:{lineno}: unknown line type {parts[0]!r}")
    if n is None:
        raise GraphInputError(f"{path}: missing problem line")
    if len(edges) != declared:
        raise GraphInputError(
            f"{path}: header declares {declared} edges, found {len(edges)}"
        )
    return Graph.build(n, edges)


# -- canonical edge-set text --------------------------------------------------


def save_edge_set(edges: Iterable, path) -> None:
    """Sorted `u v` per line, u < v, 0-based."""
    pairs = sorted(_norm_pair(int(u), int(v)) for u, v in edges)
    with open(path, "w") as fh:
        for u, v in pairs:
            fh.write(f"{u} {v}\n")


def load_edge_set(path) -> frozenset[EdgePair]:
    pairs = set()
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise GraphInputError(f"{path}:{lineno}: expected 'u v'")
            u, v = int(parts[0]), int(parts[1])
            if u == v:
                raise GraphInputError(f"{path}:{lineno}: self-pair {u}")
            pairs.add(_norm_pair(u, v))
    return frozenset(pairs)
