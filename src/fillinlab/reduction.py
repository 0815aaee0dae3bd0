"""Gadget constructions mapping vertex cover to minimum fill-in, with
certificate maps in both directions and verifiers for the proven bounds.

Both constructions attach a large clique U of new vertices to an input graph
G.  The colored construction (for degree-bounded, clique-free inputs) gives
every color class of a proper coloring a block of b*n new vertices,
non-adjacent to exactly the vertices of that color.  The primitive
construction is the colored one under the identity coloring with b = n:
every original vertex gets its own block of n^2 new vertices, non-adjacent
to that vertex only.  Either way each original vertex misses exactly one
block, and the two endpoints of any edge miss different blocks; one builder
makes both.

That structure supports two certificate maps:

* ``split_completion`` turns a vertex cover C into a fill-in (complete
  C union U, leaving the rest independent, hence a split graph);
* ``full_vertices`` turns any fill-in back into a vertex cover (a vertex is
  "full" when all of its missing edges to U were added; a non-full endpoint
  pair on an edge would leave an induced 4-cycle).

Both maps work on one filled gadget's packed rows, which every audit reads:
``_completed`` ORs the mask of C union U into them, ``_filled`` reads a fill-in
once, by ``verify_fillin``, and a vertex is full when its row covers U.

No code here queries a graph one vertex or one edge at a time.  The
coloring reads G's neighbor lists once (``Graph.neighbor_lists``, one
``_bits.set_positions`` pass), and its components, BFS distance orders
(``graph._bfs`` on those lists), greedy colors and (u, a, b) search all use
them.  Every clique test (a K_{d+1} component, the clique U) is
``_bits.is_clique``, and the search for a forbidden K_{d+1} makes the same
popcount count for all its candidates at once.  The structural checks are
whole-graph passes that name the first failure: ``ReducedInstance.validate``
tests all n original rows against one expected matrix, and
``Coloring.monochromatic_edge`` compares the colors of every edge at once, in
``Graph.edge_list`` order.  An instance keeps no fact; graphs do (``Graph._kept``).

Sizes then sandwich each other: tau(G)*deficit <= phi(H) <
(tau(G)+1)*deficit with deficit = n^2 for the primitive construction, which
``verify_sandwich`` and ``decision_equivalence_check`` audit on concrete
data.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import _bits
from .chordal import elimination_fill_codes, is_split, verify_fillin
from .errors import CounterexampleError, GraphInputError, ResourceLimitError
from .graph import EdgePair, Graph, _bfs, _int_param, _vertex_ids, load_dimacs, save_dimacs
from .report import IneqRecord, RunReport, check, instance_descriptor
from .solvers import (
    exact_fillin_ordering_oracle,
    exact_vertex_cover,
    greedy_game,
    is_vertex_cover,
)

PRIMITIVE_MAX_N = 40
SANDWICH_EXACT_MAX_VERTICES = 10
COLORED_MAX_CELLS = 1_000_000


# -- coloring ---------------------------------------------------------------------


@dataclass(frozen=True)
class Coloring:
    """Proper coloring with an explicit palette size (classes may be empty)."""

    colors: tuple[int, ...]
    q: int

    def monochromatic_edge(self, graph: Graph) -> EdgePair | None:
        """The first edge, in ``Graph.edge_list`` order, whose endpoints share a color:
        one comparison over the sorted edge codes."""
        u, v = np.divmod(_bits.upper_codes(graph.packed_rows(), graph.n), max(graph.n, 1))
        colors = np.asarray(self.colors)
        same = np.flatnonzero(colors[u] == colors[v])[:1]
        return (int(u[same[0]]), int(v[same[0]])) if same.size else None

    def validate(self, graph: Graph) -> None:
        q = _int_param("q", self.q)
        if len(self.colors) != graph.n:
            raise GraphInputError("coloring length does not match vertex count")
        if any(not (0 <= _int_param("color", c) < q) for c in self.colors) and graph.n:
            raise GraphInputError("color id outside the declared palette")
        bad = self.monochromatic_edge(graph)
        if bad is not None:
            raise GraphInputError(f"coloring is improper: edge {bad} is monochromatic")


def _components(adj: list[list[int]], vertices) -> list[list[int]]:
    """Sorted components of the subgraph induced by ``vertices`` on the neighbor
    lists ``adj``, in order of smallest member: one ``_bfs`` from the smallest
    vertex left at a time."""
    left = [False] * len(adj)
    for v in vertices:
        left[v] = True
    comps = []
    for v in sorted(vertices):
        if left[v]:
            comp = sorted(_bfs(adj.__getitem__, v, left)[0])
            for w in comp:
                left[w] = False
            comps.append(comp)
    return comps


def find_forbidden_clique(graph: Graph, d: int) -> list[int] | None:
    """Some clique on d+1 vertices, if present (degrees must be <= d).

    A degree-d vertex v is in one iff its closed row is a clique, i.e. the
    d+1 members' open rows hold d(d+1) of the closed row's bits in all (the
    ``_bits.is_clique`` count), tested for every degree-d vertex at once, one
    ``_bits.blocks`` slice (the unpacked nonzero words of a closed row, read by
    ``_bits.set_positions``, and d+1 gathered member rows per vertex) at a
    time; the members of the smallest such v are returned in ascending order.
    """
    rows, n = graph.packed_rows(), graph.n
    v_all = np.flatnonzero(graph.degrees() == d)
    for block in _bits.blocks(v_all.size, n + (d + 1) * rows.shape[1] * 8):
        v = v_all[block]
        closed = rows[v]
        _bits.set_bits(closed, np.arange(v.size), v)
        members = _bits.set_positions(closed)[1].reshape(v.size, d + 1)
        inside = np.bitwise_count(rows[members] & closed[:, None]).sum(axis=(1, 2))
        for i in np.flatnonzero(inside == d * (d + 1))[:1].tolist():
            return members[i].tolist()
    return None


def strip_clique_components(graph: Graph, d: int):
    """Remove K_{d+1} components, taking d vertices of each into a forced cover.

    Returns (stripped graph, kept original ids, forced cover original ids).
    """
    forced: list[int] = []
    kept: list[int] = []
    rows = graph.packed_rows()
    for comp in _components(graph.neighbor_lists(), range(graph.n)):
        if len(comp) == d + 1 and _bits.is_clique(
            rows, _bits.mask_from_indices(graph.n, comp), graph.n
        ):
            forced.extend(comp[:d])
        else:
            kept.extend(comp)
    sub, mapping = graph.induced_subgraph(sorted(kept))
    return sub, mapping, forced


def _greedy_colors(adj: list[list[int]], vertices, colors: list[int]) -> None:
    for v in vertices:
        used = {colors[w] for w in adj[v] if colors[w] >= 0}
        c = 0
        while c in used:
            c += 1
        colors[v] = c


def _distance_order(adj: list[list[int]], comp: set[int], root: int) -> list[int]:
    """Vertices of comp by decreasing BFS distance from root (root last)."""
    inside = [False] * len(adj)
    for v in comp:
        inside[v] = True
    order, parent = _bfs(adj.__getitem__, root, inside)
    if len(order) != len(comp):
        return []  # disconnected
    dist = {root: 0}
    for v in order[1:]:
        dist[v] = dist[parent[v]] + 1
    return sorted(comp, key=lambda v: (-dist[v], v))


def brooks_coloring(graph: Graph, d: int) -> Coloring:
    """Proper coloring with at most d colors for a d-degree-bounded graph
    without a clique on d+1 vertices, by the cases of Lovasz's proof of
    Brooks' theorem, component by component:

    * small component (at most d vertices): greedy;
    * low-degree root: greedy from the leaves of a BFS tree rooted at a
      vertex of degree below d;
    * (u, a, b) triple: in a d-regular component, nonadjacent neighbors a, b
      of u whose removal keeps it connected share color 0, and the rest is
      colored greedily from the leaves of a BFS tree rooted at u;
    * cut-vertex lobes: a d-regular component without a triple has a cut
      vertex x; each lobe (a component of the rest, plus x) holds fewer than
      d neighbors of x, is colored alone as from a low-degree root x, and is
      recolored so x gets color 0.

    The coloring, checked for a monochromatic edge (a bug here, not bad input),
    is kept on the graph per d (``Graph._kept``), so a graph is colored and its
    coloring checked once; a refusal keeps nothing and is raised on every call.
    """
    d = _int_param("d", d)
    return graph._kept(("brooks", d), _brooks_coloring, graph, d)


def _brooks_coloring(graph: Graph, d: int) -> Coloring:
    """The coloring behind ``brooks_coloring``, uncached."""
    if d < 3:
        raise GraphInputError("degree bound d must be at least 3")
    degrees = graph.degrees()
    if graph.n and int(degrees.max()) > d:
        v = int(np.argmax(degrees))
        raise GraphInputError(f"vertex {v} has degree {int(degrees[v])} > d = {d}")
    clique = find_forbidden_clique(graph, d)
    if clique is not None:
        raise GraphInputError(
            f"clique on {d + 1} vertices {clique} present; "
            "strip clique components before coloring"
        )

    adj = graph.neighbor_lists()
    colors = [-1] * graph.n
    for comp in _components(adj, range(graph.n)):
        comp_set = set(comp)
        if len(comp) <= d:
            _greedy_colors(adj, comp, colors)
            continue
        low = [v for v in comp if len(adj[v]) < d]
        if low:
            _greedy_colors(adj, _distance_order(adj, comp_set, low[0]), colors)
            continue
        candidates = (
            (a, b, _distance_order(adj, comp_set - {a, b}, u))
            for u in comp
            for a, b in combinations(adj[u], 2)
            if b not in adj[a]
        )
        triple = next(((a, b, order) for a, b, order in candidates if order), None)
        if triple is not None:
            a, b, order = triple
            colors[a] = colors[b] = 0
            _greedy_colors(adj, order, colors)
            continue
        x = next((v for v in comp if len(_components(adj, comp_set - {v})) > 1), None)
        if x is None:
            raise CounterexampleError("2-connected d-regular component without a triple")
        for lobe in _components(adj, comp_set - {x}):
            scratch = [-1] * graph.n
            _greedy_colors(adj, _distance_order(adj, {x, *lobe}, x), scratch)
            swap = {0: scratch[x], scratch[x]: 0}
            for v in lobe:
                colors[v] = swap.get(scratch[v], scratch[v])
        colors[x] = 0

    q = max(colors) + 1 if colors else 0
    coloring = Coloring(tuple(colors), q)
    if (bad := coloring.monochromatic_edge(graph)) is not None:
        raise CounterexampleError(f"constructive coloring left edge {bad} monochromatic")
    if q > d:
        raise CounterexampleError("constructive coloring exceeded d colors")
    return coloring


# -- reduced instances ---------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ReducedInstance:
    """Gadget graph H plus the bookkeeping needed to map certificates back: a
    frozen value that keeps nothing (``_completed`` keeps on H).  ``coloring``
    and ``b`` are None for the primitive gadget, whose blocks are n*n wide."""

    graph: Graph
    original: Graph
    blocks: tuple  # per original vertex (primitive) or per color (colored), read-only arrays
    b: int | None = None
    coloring: Coloring | None = None

    @property
    def kind(self) -> str:
        return "primitive" if self.coloring is None else "colored"

    @property
    def q(self) -> int | None:
        return None if self.coloring is None else self.coloring.q

    @property
    def n_original(self) -> int:
        return self.original.n

    @property
    def block_deficit(self) -> int:
        """Missing edges from each original vertex to U."""
        n = self.n_original
        return n * (n if self.b is None else self.b)

    @property
    def block_of(self) -> np.ndarray:
        """The block each original vertex misses: its own, or its color's."""
        return np.arange(self.n_original) if self.coloring is None else np.asarray(self.coloring.colors)

    def missing_block(self, v: int) -> np.ndarray:
        """Gadget vertices not adjacent to original vertex v."""
        return self.blocks[self.block_of[v]]

    def validate(self) -> None:
        """Structural self-check; failure means the construction is buggy.

        Each check is one pass over the whole gadget: the blocks partition
        the new vertices (one sort), and every original row meets U in exactly
        U minus its missing block (all n rows against one expected matrix; the
        smallest wrong vertex is named).  That the ends of an edge of G miss
        different blocks is not re-tested: every vertex misses its own on the
        primitive gadget, and both builders of a colored one run ``Coloring.validate``."""
        n, N = self.n_original, self.graph.n
        rows = self.graph.packed_rows()
        if len(self.blocks) != (n if self.q is None else self.q):
            raise CounterexampleError("block count differs from the construction's")
        sizes = {len(blk) for blk in self.blocks}
        if sizes and sizes != {self.block_deficit}:
            raise CounterexampleError("block sizes differ from the deficit")
        ids = np.concatenate([np.asarray(b) for b in self.blocks]) if self.blocks else np.array([], dtype=int)
        if not np.array_equal(np.sort(ids), np.arange(n, N)):
            raise CounterexampleError("blocks do not partition the gadget vertices")
        sub, _ = self.graph.induced_subgraph(range(n))
        if sub != self.original:
            raise CounterexampleError("gadget altered the original graph")
        u_mask = _bits.mask_from_indices(N, range(n, N))
        if not _bits.is_clique(rows, u_mask, N):
            raise CounterexampleError("gadget vertices do not form a clique")
        missing = _bits.zero_rows(len(self.blocks), N)  # row c: the vertices of block c
        blk = np.repeat(np.arange(len(self.blocks)), [len(b) for b in self.blocks])
        _bits.set_bits(missing, blk, ids.astype(np.int64))
        want = (u_mask & ~missing)[self.block_of]
        wrong = np.flatnonzero(((rows[:n] & u_mask) != want).any(axis=1))
        if wrong.size:
            raise CounterexampleError(
                f"vertex {int(wrong[0])} has the wrong gadget adjacency pattern"
            )


def _gadget(graph: Graph, block_of, nblocks: int, size: int) -> tuple[Graph, tuple]:
    """Both constructions: ``nblocks`` blocks of ``size`` new vertices after the
    original ones, all new vertices one clique U, and original vertex v
    adjacent to every new vertex outside block ``block_of[v]``.

    Built from two masks per block, each set by one ``_bits.set_bits`` call
    for all blocks: its new vertices, and the original vertices that miss it."""
    n = graph.n
    N = n + nblocks * size
    rows = np.zeros((N, _bits.nwords(N)), dtype=np.uint64)
    g_rows = graph.packed_rows()
    rows[:n, : g_rows.shape[1]] = g_rows
    u_mask = _bits.mask_from_indices(N, range(n, N))
    orig_mask = _bits.mask_from_indices(N, range(n))
    block_of = np.asarray(block_of, dtype=np.int64)
    new = np.arange(n, N)
    new_block = (new - n) // size
    block_rows = _bits.zero_rows(nblocks, N)
    _bits.set_bits(block_rows, new_block, new)
    members = _bits.zero_rows(nblocks, N)
    _bits.set_bits(members, block_of, np.arange(n))
    rows[:n] |= (u_mask & ~block_rows)[block_of]
    rows[n:] = ((orig_mask & ~members) | u_mask)[new_block]
    _bits.clear_bits(rows, new, new)
    blocks = tuple(_frozen(np.arange(n + c * size, n + (c + 1) * size)) for c in range(nblocks))
    return Graph.from_packed_rows(rows, N), blocks


def _frozen(a: np.ndarray) -> np.ndarray:
    """a, made read-only: kept blocks are shared by every later instance."""
    a.setflags(write=False)
    return a


def reduce_primitive(graph: Graph, max_n: int = PRIMITIVE_MAX_N) -> ReducedInstance:
    """Per-vertex gadget: n^2 new vertices per original vertex, U a clique.

    This is the colored gadget under the identity coloring with b = n.
    Produces a graph on n^3 + n vertices; memory grows with n^6, so inputs
    beyond ``max_n`` are refused.
    """
    n = graph.n
    if n < 1:
        raise GraphInputError("the construction needs at least one vertex")
    if n > max_n:
        raise ResourceLimitError(
            f"gadget on n^3+n = {n**3 + n} vertices refused (n = {n} > {max_n}); "
            "raise the limit explicitly to override"
        )
    h, blocks = _gadget(graph, range(n), n, n * n)
    inst = ReducedInstance(graph=h, original=graph, blocks=blocks)
    inst.validate()
    return inst


def reduce_colored(
    graph: Graph, b: int, coloring: Coloring, max_cells: int = COLORED_MAX_CELLS
) -> ReducedInstance:
    """Per-color gadget: b*n new vertices per color class, U a clique.

    Produces a graph on (b*q + 1)*n vertices, linear in n for fixed b, q.
    The checked coloring, H and blocks are kept on the graph per (b, coloring
    object, max_cells) (``Graph._kept``) and wrapped in a new instance per call,
    so a graph's gadget is built and checked once per coloring; a refusal keeps
    nothing and is raised again on every call.
    """
    if graph.n < 1:
        raise GraphInputError("the construction needs at least one vertex")
    b = _int_param("b", b)
    if b < 1:
        raise GraphInputError("block scale b must be positive")
    key = ("gadget", b, id(coloring), max_cells)
    _, h, blocks = graph._kept(key, _reduce_colored, graph, b, coloring, max_cells)
    return ReducedInstance(graph=h, original=graph, blocks=blocks, b=b, coloring=coloring)


def _reduce_colored(graph: Graph, b: int, coloring: Coloring, max_cells: int) -> tuple:
    """The construction behind ``reduce_colored``, uncached: the coloring (kept,
    so the ``id`` in the key stays its own), H and the blocks of the validated instance."""
    n = graph.n
    coloring.validate(graph)
    q = coloring.q
    if b * q * n > max_cells:
        raise ResourceLimitError(
            f"colored gadget with b*q*n = {b * q * n} cells refused (limit {max_cells})"
        )
    h, blocks = _gadget(graph, coloring.colors, q, b * n)
    ReducedInstance(graph=h, original=graph, blocks=blocks, b=b, coloring=coloring).validate()
    return coloring, h, blocks


# -- certificate maps -------------------------------------------------------------


def _completed(inst: ReducedInstance, cover) -> Graph:
    """The gadget with cover-union-U completed into a clique: a split graph,
    hence chordal, with |C|*deficit + C(|C|,2) - |E(G[C])| edges more than H,
    checked with |E(G[C])| counted from G's rows.  The certified completion is
    kept on H per sorted cover (``Graph._kept``); a refusal keeps nothing."""
    key = tuple(sorted(set(_vertex_ids(cover))))
    return inst.graph._kept(("completion", key), _complete, inst, list(key))


def _complete(inst: ReducedInstance, cover: list[int]) -> Graph:
    """The completion behind ``_completed``, uncached, of a sorted list of distinct ids."""
    n, N = inst.n_original, inst.graph.n
    if any(not (0 <= v < n) for v in cover):
        raise GraphInputError("cover contains a non-original vertex")
    if not is_vertex_cover(inst.original, cover):
        uncovered = next(
            (u, v)
            for u, v in inst.original.edge_list()
            if u not in cover and v not in cover
        )
        raise GraphInputError(f"not a vertex cover: edge {uncovered} is uncovered")
    clique = np.array(cover + list(range(n, N)), dtype=np.int64)
    rows = inst.graph.packed_rows().copy()
    rows[clique] |= _bits.mask_from_indices(N, clique)
    _bits.clear_bits(rows, clique, clique)
    completed = Graph._adopt(rows)  # a clique's mask in its own rows keeps them symmetric
    g_rows = inst.original.packed_rows()
    inside = _bits.popcount_rows(g_rows[cover] & _bits.mask_from_indices(n, cover))
    expect = len(cover) * inst.block_deficit + math.comb(len(cover), 2) - int(inside.sum()) // 2
    if completed.m - inst.graph.m != expect:
        raise CounterexampleError("split completion size bookkeeping is wrong")
    if not is_split(completed)[0]:  # verified partition; split graphs are chordal
        raise CounterexampleError("split completion did not produce a split graph")
    return completed


def split_completion(inst: ReducedInstance, cover) -> np.ndarray:
    """Fill-in built from a vertex cover: the sorted codes of the pairs ``_completed`` adds."""
    rows = _completed(inst, cover).packed_rows() & ~inst.graph.packed_rows()
    return _bits.upper_codes(rows, inst.graph.n)


def _filled(inst: ReducedInstance, fillin) -> Graph:
    """The gadget plus a fill-in, read once by ``verify_fillin``; an invalid
    fill-in is an input error."""
    res = verify_fillin(inst.graph, fillin)
    if not res:
        raise GraphInputError(f"invalid fill-in: {res.reason} {res.detail}")
    return res.filled


def _full_set(inst: ReducedInstance, filled: Graph) -> frozenset[int]:
    """Original vertices adjacent to all of U in the filled gadget, re-verified
    to be a vertex cover; failure is a hard internal error, not an input error."""
    n, N = inst.n_original, filled.n
    covered = _bits.popcount_rows(filled.packed_rows()[:n] & _bits.mask_from_indices(N, range(n, N)))
    full = frozenset(np.flatnonzero(covered == N - n).tolist())
    if not is_vertex_cover(inst.original, full):
        raise CounterexampleError(
            "full-vertex extraction produced a non-cover from a valid fill-in"
        )
    return full


def full_vertices(inst: ReducedInstance, fillin) -> frozenset[int]:
    """Original vertices whose missing edges to U all lie in the verified fill-in."""
    return _full_set(inst, _filled(inst, fillin))


# -- verification harnesses ---------------------------------------------------------


def produced_fillins(inst: ReducedInstance, rng=None, random_orderings: int = 0):
    """Named fill-ins from every in-repo producer, as sorted codes, for audit sweeps."""
    out = {
        "min-degree": greedy_game(inst.graph, "min-degree")[1],
        "min-fill": greedy_game(inst.graph, "min-fill")[1],
    }
    if rng is not None:
        for i in range(random_orderings):
            order = rng.permutation(inst.graph.n)
            out[f"random-order-{i}"] = elimination_fill_codes(inst.graph, order)
    return out


def _primitive_gadget(graph: Graph, inst: ReducedInstance | None) -> ReducedInstance:
    """``inst``, or G's primitive gadget when it is None; a colored gadget or the
    gadget of another graph is an input error."""
    if inst is None:
        return reduce_primitive(graph)
    if inst.coloring is not None or inst.original != graph:
        raise GraphInputError(f"the primitive audits of {graph!r} got the {inst.kind} gadget of {inst.original!r}")
    return inst


def verify_sandwich(
    graph: Graph,
    inst: ReducedInstance | None = None,
    rng=None,
    random_orderings: int = 2,
) -> RunReport:
    """Audit the cover-to-fill-in size window on one primitive instance.

    Checks (i) the constructive upper bound, (ii) the accounting lower bound
    for every produced fill-in, and (iii) the exact window against the
    ordering oracle on gadgets of at most SANDWICH_EXACT_MAX_VERTICES
    vertices (n <= 2), although the oracle would solve them up to n = 8.
    """
    inst = _primitive_gadget(graph, inst)
    deficit = inst.block_deficit
    report = RunReport(
        command="verify-sandwich", instance=instance_descriptor(graph)
    )
    cover_res = exact_vertex_cover(graph)
    report.outputs["cover_solver_status"] = cover_res.status
    if not cover_res.optimal:
        report.add(
            IneqRecord("exact_cover_available", 0, 1, "==", False, "solver exhausted")
        )
        return report
    tau = cover_res.size
    report.outputs["tau"] = tau
    completed = _completed(inst, cover_res.vertices)
    ub = completed.m - inst.graph.m
    report.outputs["constructive_upper_bound"] = ub
    report.add(check("constructed_fillin_below_window", ub, (tau + 1) * deficit, "<"))
    fills = produced_fillins(inst, rng=rng, random_orderings=random_orderings)
    filled = {name: _filled(inst, fill) for name, fill in fills.items()}
    filled["split-completion"] = completed  # is_split already certified it
    for name, f in sorted(filled.items()):
        size = f.m - inst.graph.m
        full = _full_set(inst, f)
        report.add(check(f"accounting[{name}]", len(full) * deficit, size, "<="))
        report.add(check(f"full_set_covers[{name}]", tau, len(full), "<="))
        report.add(check(f"window_lower[{name}]", tau * deficit, size, "<="))
    if inst.graph.n <= SANDWICH_EXACT_MAX_VERTICES:
        phi = len(exact_fillin_ordering_oracle(inst.graph))
        report.outputs["phi_gadget"] = phi
        report.add(check("oracle_window_lower", tau * deficit, phi, "<="))
        report.add(check("oracle_window_upper", phi, (tau + 1) * deficit, "<"))
    return report


def decision_equivalence_check(
    graph: Graph,
    c: int,
    fillin=None,
    inst: ReducedInstance | None = None,
) -> RunReport:
    """Audit the decision-level equivalence at threshold c on one instance.

    A cover of size at most c exists iff the gadget admits a fill-in of size
    at most (c+1)n^2 - 1.  The 'if' direction is checked constructively; the
    'only if' direction is checked on the supplied fill-in: when its size is
    within the bound, the extracted full-vertex set must be a cover of size
    at most c.
    """
    inst = _primitive_gadget(graph, inst)
    n = graph.n
    bound = (c + 1) * n * n - 1
    report = RunReport(
        command="verify-decision-equivalence",
        instance=instance_descriptor(graph),
        params={"c": c, "bound": bound},
    )
    cover_res = exact_vertex_cover(graph)
    if not cover_res.optimal:
        report.add(
            IneqRecord("exact_cover_available", 0, 1, "==", False, "solver exhausted")
        )
        return report
    tau = cover_res.size
    report.outputs["tau"] = tau
    if tau <= c:
        ub = _completed(inst, cover_res.vertices).m - inst.graph.m
        report.add(check("constructive_within_bound", ub, bound, "<="))
    if fillin is not None:
        filled = _filled(inst, fillin)
        size = filled.m - inst.graph.m  # each pair once
        report.outputs["fillin_size"] = size
        if size <= bound:
            full = _full_set(inst, filled)
            rec = check("extracted_cover_at_most_c", len(full), c, "<=")
            report.add(rec)
            if not rec.passed:
                raise CounterexampleError(
                    "fill-in within the bound extracted a cover larger than c"
                )
        else:
            report.add(check("fillin_exceeds_bound", bound, size, "<"))
        if tau > c:
            rec = check("no_small_fillin_when_tau_exceeds_c", bound, size, "<")
            report.add(rec)
            if not rec.passed:
                raise CounterexampleError(
                    "found a fill-in within the bound although tau exceeds c"
                )
    return report


# -- serialization --------------------------------------------------------------------


def save_instance(inst: ReducedInstance, dimacs_path, sidecar_path=None) -> str:
    """Write the gadget as DIMACS plus a JSON sidecar with the bookkeeping."""
    if sidecar_path is None:
        sidecar_path = str(dimacs_path) + ".json"
    save_dimacs(inst.graph, dimacs_path)
    sidecar = {
        "reduction": inst.kind,
        "n": inst.n_original,
        "b": inst.b,
        "q": inst.q,
        "blocks": [[int(u) for u in blk] for blk in inst.blocks],
        "coloring": list(inst.coloring.colors) if inst.coloring else None,
    }
    with open(sidecar_path, "w") as fh:
        json.dump(sidecar, fh, indent=2)
        fh.write("\n")
    return str(sidecar_path)


def load_instance(dimacs_path, sidecar_path=None) -> ReducedInstance:
    """Read a gadget written by ``save_instance``.  Ids, counts and colors are
    read by ``graph._vertex_id``, so a colored sidecar needs b, q and a
    coloring; a bad sidecar or a gadget failing ``validate`` is input error."""
    if sidecar_path is None:
        sidecar_path = str(dimacs_path) + ".json"
    H = load_dimacs(dimacs_path)
    with open(sidecar_path) as fh:
        try:
            side = json.load(fh)
        except json.JSONDecodeError as exc:
            raise GraphInputError(f"{sidecar_path}: not JSON: {exc}") from None
    kind = side.get("reduction") if isinstance(side, dict) else None
    if kind not in ("primitive", "colored"):
        raise GraphInputError(f"{sidecar_path}: reduction must be 'primitive' or 'colored'")
    n = _int_param("n", side.get("n"))
    original, _ = H.induced_subgraph(range(n))
    b = coloring = None
    if kind == "colored":
        b, q = _int_param("b", side.get("b")), _int_param("q", side.get("q"))
        coloring = Coloring(tuple(_vertex_ids(side.get("coloring"))), q)
        coloring.validate(original)
    blocks = side.get("blocks")
    if not isinstance(blocks, list):
        raise GraphInputError(f"{sidecar_path}: blocks must be a list of vertex lists")
    inst = ReducedInstance(
        graph=H,
        original=original,
        blocks=tuple(_frozen(np.array(_vertex_ids(blk), dtype=np.int64)) for blk in blocks),
        b=b,
        coloring=coloring,
    )
    try:
        inst.validate()
    except CounterexampleError as exc:
        raise GraphInputError(f"{sidecar_path}: not a valid gadget: {exc}") from None
    return inst
