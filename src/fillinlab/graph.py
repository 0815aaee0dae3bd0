"""Simple undirected graphs over dense vertex ids 0..n-1.

Graph values are immutable once built.  The only storage is a packed
adjacency bit matrix (``_bits`` layout): n rows of ceil(n/64) uint64 words,
so a graph costs n * ceil(n/64) * 8 bytes whatever its edge count (about
0.5 MB at n = 2000, 50 MB at n = 20000).  Degrees are counted once at
construction, and edges are listed in sorted order by ``_bits.upper_codes``.
``Graph`` has no per-vertex or per-edge query: ``Graph.neighbor_lists`` reads
every neighborhood in one pass for loops that walk the graph vertex by vertex,
and other code reads ``Graph.packed_rows``.

Since a graph never changes, the facts the audits ask of it are kept on the
graph itself, in the package's one memo (``Graph._kept``): the content hash,
``solvers.exact_vertex_cover`` per node budget, ``reduction.brooks_coloring``
per degree bound, ``reduction.reduce_colored``'s checked coloring and gadget
graph per (b, coloring object, byte limit) and, on a gadget,
``reduction._completed`` per cover.  Each is computed and certified by the
first call that succeeds; a call that raises keeps nothing, so the error is
raised again on every call.
No kept value refers back to its graph, so a dropped graph is freed, with its
facts, by reference counting.  Pickling and copying rebuild the graph through
``Graph._adopt`` with an empty memo.  Verdicts that re-check a result,
``chordal.verify_fillin`` and ``chordal.find_hole``, are never kept.

File format owned here: a DIMACS-like edge-list text format (1-based on
disk).
"""

from __future__ import annotations

import hashlib
import operator
from typing import Iterable

import numpy as np

from . import _bits
from .errors import GraphInputError

EdgePair = tuple[int, int]


def pairs_from_codes(codes: np.ndarray, n: int) -> frozenset[EdgePair]:
    """Decode pair codes ``u * n + v`` into a set of ``(u, v)`` tuples."""
    return frozenset(zip((codes // n).tolist(), (codes % n).tolist()))


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """The distinct values of a 1-D array, ascending: one sort and one adjacent compare
    (``np.unique`` costs several times more, and its cost grows faster)."""
    values = np.sort(values)
    keep = np.empty(values.size, dtype=bool)
    keep[:1] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def codes_hash(n: int, codes: np.ndarray) -> str:
    """SHA-256 over the canonical edge-list text of the sorted upper codes ``u * n + w``:
    the line ``n``, then one line ``u w`` per code, written by one format call."""
    pairs = np.column_stack(np.divmod(codes, max(n, 1))).ravel().tolist()
    text = "%d %d\n" * codes.size % tuple(pairs)
    return hashlib.sha256(f"{n}\n{text}".encode()).hexdigest()


def _vertex_id(x) -> int:
    """x as a vertex id, the one rule for every reader: an integer (Python or
    NumPy), never a bool; floats and strings are a TypeError, not truncated."""
    if x.__class__ is bool:
        raise TypeError(f"{x!r} is not a vertex id")
    return operator.index(x)


def _vertex_ids(values) -> list[int]:
    """Each value read by ``_vertex_id``; a non-integer is a GraphInputError."""
    try:
        return [_vertex_id(x) for x in values]
    except TypeError as exc:
        raise GraphInputError(f"vertex ids must be integers: {exc}") from None


def _id_array(values) -> np.ndarray:
    """values as a 1-D int64 array: a 1-D integer ndarray as it is (a uint64 id past
    int64 wraps to a negative one), anything else read once by ``_vertex_ids``, with
    an id past int64 as -1.  Either way, an id that is no vertex of any graph stays none."""
    if isinstance(values, np.ndarray) and values.ndim == 1 and values.dtype.kind in "iu":
        return values.astype(np.int64, copy=False)
    ids = _vertex_ids(values)
    try:
        return np.array(ids, dtype=np.int64)
    except OverflowError:
        return np.array([v if -1 < v < 2**63 else -1 for v in ids], dtype=np.int64)


def _int_param(name: str, x) -> int:
    """x read by ``_vertex_id``; anything else is a GraphInputError naming the parameter."""
    try:
        return _vertex_id(x)
    except TypeError as exc:
        raise GraphInputError(f"{name} must be an integer: {exc}") from None


def _count_param(name: str, x) -> int:
    """x read by ``_int_param``; a negative value is a GraphInputError naming the parameter."""
    x = _int_param(name, x)
    if x < 0:
        raise GraphInputError(f"{name} must be nonnegative, got {x}")
    return x


def normalize_edges(vertex_count: int, edges: Iterable) -> np.ndarray:
    """Validate edges into an (m, 2) int64 array, in input order, by one read and one test.

    The read takes a 1-D integer ndarray as codes ``u * n + w`` (one ``np.divmod``), an
    (m, 2) integer ndarray as it is and anything else by ``_id_pairs``; one array test
    flags loops and ids outside 0..n-1.  The first bad entry raises GraphInputError: the
    first flagged pair, else the entry the read stopped at, a code as ``divmod(code,
    max(n, 1))`` in its own Python type (so a bool or float code is no pair of ids).
    """
    d, source, stop = max(vertex_count, 1), edges, ()
    if isinstance(edges, np.ndarray) and edges.ndim == 1 and edges.dtype.kind in "bf":
        # bool or float codes: the first decodes to a pair of non-ids, at which the read stops
        edges = [tuple(map(type(c), divmod(c, d))) for c in edges[:1].tolist()]
    if isinstance(edges, np.ndarray) and edges.ndim == 1 and edges.dtype.kind in "iu":
        pairs = np.empty((edges.size, 2), dtype=np.int64)
        np.divmod(edges.astype(np.int64, copy=False), d, out=(pairs[:, 0], pairs[:, 1]))
    elif isinstance(edges, np.ndarray) and edges.shape[1:] == (2,) and edges.dtype.kind in "iu":
        pairs = edges.astype(np.int64, copy=False)  # an id past int64 wraps to a negative one
    else:
        pairs, stop = _id_pairs(edges)
        source = pairs
    bad = (pairs < 0) | (pairs >= vertex_count)
    bad = np.flatnonzero(bad[:, 0] | bad[:, 1] | (pairs[:, 0] == pairs[:, 1]))
    if bad.size:
        u, v = divmod(source[bad[0]].item(), d) if source.ndim == 1 else source[bad[0]].tolist()
        if u == v:
            raise GraphInputError(f"self-loop ({u},{v}) is not allowed")
        raise GraphInputError(f"edge ({u},{v}) out of range for {vertex_count} vertices")
    if stop:
        raise GraphInputError(f"edge {stop[0]!r} is not a pair of vertex ids")
    return pairs


def _id_pairs(edges) -> tuple[np.ndarray, tuple]:
    """The pairs of an iterable, ids read by ``_vertex_id`` and compared with no vertex
    count, as an (m, 2) array (object past int64) up to the first entry that is no such
    pair, and that entry as a 1-tuple (empty when there is none)."""
    try:
        edges = iter(edges)
    except TypeError:
        raise GraphInputError(f"edges {edges!r} are not an iterable of pairs") from None
    flat, stop = [], ()
    for e in edges:
        try:
            u, v = e
            flat += _vertex_id(u), _vertex_id(v)
        except (TypeError, ValueError):
            stop = (e,)
            break
    try:
        return np.array(flat, dtype=np.int64).reshape(-1, 2), stop
    except OverflowError:  # an id past int64, out of range for every graph
        return np.array(flat, dtype=object).reshape(-1, 2), stop


def _set_edge_bits(rows: np.ndarray, pairs: np.ndarray) -> None:
    """Set bits (u, v) and (v, u) of packed rows for every row of an (m, 2) int64 array (in place)."""
    _bits.set_bits(rows, pairs.ravel(), pairs[:, ::-1].ravel())


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1."""

    __slots__ = ("n", "m", "_rows", "_degrees", "_memo", "__weakref__")

    def __init__(self, *_args, **_kwargs):
        raise TypeError("use Graph.build(...) or another constructor")

    @classmethod
    def _adopt(cls, rows: np.ndarray) -> "Graph":
        """Take ownership of a valid packed adjacency matrix (freezing it)."""
        rows.setflags(write=False)
        g = object.__new__(cls)
        g.n = rows.shape[0]
        g._rows = rows
        g._degrees = _bits.popcount_rows(rows)
        g._degrees.setflags(write=False)
        g.m = int(g._degrees.sum()) // 2
        g._memo = {}
        return g

    def __reduce__(self):
        # pickle and deepcopy rebuild through _adopt, which freezes the copy and keeps no memo
        return (Graph._adopt, (self._rows,))

    def _kept(self, key, compute, *args):
        """The value kept under ``key``, else ``compute(*args)``, kept once it returns:
        an error propagates and keeps nothing.  Keys name the fact and its arguments,
        as read by the caller; an argument object is keyed by its ``id``, which stays
        its own while the kept value refers to it."""
        memo = self._memo
        if key not in memo:
            memo[key] = compute(*args)
        return memo[key]

    # -- constructors ------------------------------------------------------

    @classmethod
    def build(cls, vertex_count: int, edges: Iterable = ()) -> "Graph":
        """Build from an edge iterable; duplicates collapse, loops are rejected."""
        vertex_count = _count_param("vertex_count", vertex_count)
        rows = _bits.zero_rows(vertex_count, vertex_count)
        _set_edge_bits(rows, normalize_edges(vertex_count, edges))
        return cls._adopt(rows)

    @classmethod
    def from_packed_rows(cls, rows: np.ndarray, vertex_count: int) -> "Graph":
        """Adopt a copy of a packed adjacency bit matrix.

        The matrix must be symmetric with an empty diagonal and no bit set
        past ``vertex_count``; all three are verified at every size, the
        symmetry one block of rows against the matching block of columns at
        a time.
        """
        rows = np.array(rows, dtype=np.uint64, order="C")
        if rows.shape != (vertex_count, _bits.nwords(vertex_count)):
            raise GraphInputError("packed row shape does not match vertex_count")
        padded = _bits.padded_rows(rows, vertex_count)
        if padded.size:
            raise GraphInputError(f"padding bit set in row {int(padded[0])}")
        diag = np.flatnonzero(_bits.diagonal(rows))
        if diag.size:
            raise GraphInputError(f"diagonal bit set at vertex {int(diag[0])}")
        if not _bits.is_symmetric(rows, vertex_count):
            raise GraphInputError("packed adjacency is not symmetric")
        return cls._adopt(rows)

    # -- queries -----------------------------------------------------------

    def degrees(self) -> np.ndarray:
        return self._degrees

    def neighbor_lists(self) -> list[list[int]]:
        """Each vertex's neighbors as an ascending list of Python ints, read by one
        ``_bits.set_positions`` pass (row-major, so each row's columns ascend) and
        cut at the degree prefix sums: 2m Python ints, for loops that visit
        vertices one at a time."""
        flat = _bits.set_positions(self._rows)[1].tolist()
        ends = np.cumsum(self._degrees).tolist()
        return [flat[a:b] for a, b in zip([0, *ends], ends)]

    def edge_list(self) -> list[EdgePair]:
        """Edges as sorted ``(u, v)`` pairs with u < v."""
        codes = _bits.upper_codes(self._rows, self.n)
        return list(zip((codes // self.n).tolist(), (codes % self.n).tolist()))

    def edge_set(self) -> frozenset[EdgePair]:
        return pairs_from_codes(_bits.upper_codes(self._rows, self.n), self.n)

    def packed_rows(self) -> np.ndarray:
        """Read-only packed adjacency."""
        return self._rows

    # -- derived graphs ----------------------------------------------------

    def add_edges(self, edges: Iterable) -> "Graph":
        """New graph with the given pairs added; self is left untouched."""
        pairs = normalize_edges(self.n, edges)
        if not len(pairs):
            return self
        rows = self._rows.copy()
        _set_edge_bits(rows, pairs)
        return Graph._adopt(rows)

    def induced_subgraph(self, vertices: Iterable) -> tuple["Graph", np.ndarray]:
        """Relabeled subgraph on the given vertex set.

        Returns (subgraph, mapping) where mapping[i] is the original id of
        new vertex i; vertices are kept in ascending original order.  Each id
        is read by ``_vertex_id`` and range-tested as it is read, so the read
        stops at the first bad id, before any id becomes int64.
        """
        ids = []
        try:
            for x in vertices:
                ids.append(_vertex_id(x))
                if not 0 <= ids[-1] < self.n:
                    raise GraphInputError("subset vertex out of range")
        except TypeError as exc:
            raise GraphInputError(f"vertex ids must be integers: {exc}") from None
        keep = _sorted_unique(np.array(ids, dtype=np.int64))
        return Graph._adopt(_induced_rows(self._rows, keep)), keep

    # -- misc ----------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and np.array_equal(self._rows, other._rows)

    def __hash__(self):
        return hash((self.n, self.m))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"

    def content_hash(self) -> str:
        """SHA-256 over the canonical edge-list text (``codes_hash``); stable instance id,
        computed on the first call and kept."""
        return self._kept(
            "content_hash", lambda: codes_hash(self.n, _bits.upper_codes(self._rows, self.n))
        )


def _induced_rows(rows: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Packed rows of the subgraph induced on ``keep``, an ascending int64 array
    of valid ids, renumbered 0..k-1; unpacked one ``_bits.blocks`` slice at a time."""
    n = rows.shape[0]
    out = _bits.zero_rows(keep.size, keep.size)
    for block in _bits.blocks(keep.size, n):
        out[block] = _bits.pack(_bits.unpack(rows[keep[block]], n)[:, keep])
    return out


# -- true twins ---------------------------------------------------------------


def twin_classes(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Classes of true twins (vertices with equal closed neighborhoods) of a
    graph's packed adjacency rows.

    Returns ``(reps, cls)`` as int64 arrays: the smallest member of each
    class, ascending, and for each vertex the index in ``reps`` of its class.
    Each closed row is read as one fixed-width byte string (``np.void``), so
    one stable argsort puts every class in one run, members ascending, and the
    first of each run is the smallest member of every vertex in it; the
    vertices that are their own smallest member are the representatives.
    This is the one routine in the package that groups twins.
    """
    n = rows.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    closed = rows.copy()
    _bits.set_diagonal(closed)
    keys = closed.view(np.dtype((np.void, closed.itemsize * closed.shape[1]))).ravel()
    order = np.argsort(keys, kind="stable")
    ranked = keys[order]
    starts = np.empty(n, dtype=bool)
    starts[0] = True
    starts[1:] = ranked[1:] != ranked[:-1]
    smallest = np.empty(n, dtype=np.int64)
    smallest[order] = order[starts][np.cumsum(starts) - 1]
    reps = np.flatnonzero(smallest == np.arange(n))
    return reps, np.searchsorted(reps, smallest)


def twin_quotient(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """``twin_classes(rows)`` when working on the true-twin quotient pays, else None.

    It pays when the rows span more than one word and there are at most n/2
    classes; both guards are fixed rules.  Below two words the twin pass
    costs about what the quotient saves.  With more classes the quotient
    saves little, and a caller that must go back to the graph itself
    (``chordal.find_hole`` when the quotient is not chordal) pays for both.
    ``chordal.find_hole`` and ``solvers.greedy_game`` decide by this rule.
    """
    if rows.shape[1] <= 1:
        return None
    reps, cls = twin_classes(rows)
    return (reps, cls) if 2 * reps.size <= rows.shape[0] else None


# -- traversal --------------------------------------------------------------


def _bfs(neighbors, root: int, inside: list[bool], stop: int = -1):
    """Breadth-first search from root through the vertices w with ``inside[w]``
    true; root is always visited.  ``neighbors(u)`` gives u's neighbors in
    ascending id order, the order they are queued in: ``Graph.neighbor_lists``
    read once for many searches, or one row read per visited vertex for a search
    that stops early.

    Returns the visit order and a parent per vertex: root is its own parent,
    unreached vertices have -1.  A parent is fixed when its vertex is first
    discovered, so the parent path to any vertex is a shortest one, and it is
    the same when the search returns early, as it does once it discovers ``stop``.
    """
    parent = [-1] * len(inside)
    parent[root] = root
    order = [root]
    for u in order:  # order grows behind the loop: it is the FIFO queue
        for w in neighbors(u):
            if inside[w] and parent[w] == -1:
                parent[w] = u
                order.append(w)
                if w == stop:
                    return order, parent
    return order, parent


# -- DIMACS-like edge list format -------------------------------------------


def parse_ints(tokens, where: str) -> list[int]:
    """Text tokens as integers; a malformed one is a GraphInputError at ``where``."""
    try:
        return [int(tok) for tok in tokens]
    except ValueError:
        raise GraphInputError(f"{where}: expected integers, got {' '.join(tokens)!r}") from None


def text_lines(path) -> list[str]:
    """The lines of a UTF-8 text file; any other bytes are a GraphInputError naming the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.readlines()
        except UnicodeDecodeError as exc:
            raise GraphInputError(f"{path}: not UTF-8 text ({exc.reason})") from None


def dimacs_text(graph: Graph, comments: Iterable[str] = ()) -> str:
    """`c` comment lines, then `p edge n m`, then `e u v` lines with 1-based ids."""
    lines = [f"c {c}\n" for c in comments]
    lines.append(f"p edge {graph.n} {graph.m}\n")
    lines += [f"e {u + 1} {v + 1}\n" for u, v in graph.edge_list()]
    return "".join(lines)


def save_dimacs(graph: Graph, path, comments: Iterable[str] = ()) -> None:
    with open(path, "w") as fh:
        fh.write(dimacs_text(graph, comments))


def load_dimacs(path) -> Graph:
    """Parse the edge-list format; `c` comment lines and blank lines are skipped."""
    n = None
    declared = None
    edges = []
    for lineno, raw in enumerate(text_lines(path), 1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise GraphInputError(f"{path}:{lineno}: duplicate problem line")
            if len(parts) != 4 or parts[1] != "edge":
                raise GraphInputError(f"{path}:{lineno}: expected 'p edge <n> <m>'")
            n, declared = parse_ints(parts[2:], f"{path}:{lineno}")
        elif parts[0] == "e":
            if n is None:
                raise GraphInputError(f"{path}:{lineno}: edge before problem line")
            if len(parts) != 3:
                raise GraphInputError(f"{path}:{lineno}: expected 'e <u> <v>'")
            u, v = parse_ints(parts[1:], f"{path}:{lineno}")
            if u == v:  # checked first, as Graph.build does
                raise GraphInputError(f"{path}:{lineno}: self-loop ({u},{v}) is not allowed")
            if not (0 < u <= n and 0 < v <= n):
                raise GraphInputError(f"{path}:{lineno}: edge ({u},{v}) out of range for {n} vertices")
            edges.append((u - 1, v - 1))
        else:
            raise GraphInputError(f"{path}:{lineno}: unknown line type {parts[0]!r}")
    if n is None:
        raise GraphInputError(f"{path}: missing problem line")
    if len(edges) != declared:
        raise GraphInputError(
            f"{path}: header declares {declared} edges, found {len(edges)}"
        )
    return Graph.build(n, edges)
