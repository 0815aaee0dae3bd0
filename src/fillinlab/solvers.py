"""Desk-scale exact solvers and greedy heuristics.

These are the ground-truth generators for the whole repository: a
branch-and-bound minimum vertex cover, an exact minimum fill-in oracle (a
subset DP over true-twin classes, after Bodlaender, Fomin, Koster, Kratsch
and Thilikos, ESA 2006, that reads only reachability sets of the graph), a
hole-ear branching fill-in solver for instances with a small optimum, and
the classic min-degree / min-fill elimination heuristics.

Both heuristics keep exact integer scores on the packed rows: min-degree the
alive degrees, min-fill the number of non-adjacent pairs among each vertex's
alive neighbors.  Scores are computed once and then updated only where an
elimination changes them, so each step costs popcounts over the eliminated
vertex's neighborhood and its fill pairs, never a rescoring of every vertex.
A game ends at its clique tail: once the eliminated vertex saw every other
alive vertex, its step leaves the alive vertices a clique (min-degree by its
fill; min-fill picks such a vertex only at score 0, when they already are
one).  Every later step then adds no fill and changes no row, and every
alive vertex has the same degree and a fill score of 0, so both rules pick
the alive vertices in ascending ids: the ordering ends with them and the
game stops.

``greedy_game`` plays one elimination game per call and returns the ordering
and its fill together, so a caller that needs both (``fillinlab eliminate``)
never replays the game.  Like ``chordal``'s game it works on closed rows:
the working rows carry bit v of row v, a vertex leaves ``alive`` before its
row is read, so ``rows[v] & alive`` excludes v and OR-ing a neighborhood
into its own rows needs no diagonal clearing.  Closed rows count the vertex
itself, hence the ``- 1`` in an alive degree; the initial fill scores come
from the original open rows.  Min-fill also keeps each vertex's closed alive
degree, so a step whose vertex scores 0 (its neighborhood is a clique)
updates its neighbors' scores from those degrees and reads no rows.

Every solver revalidates its certificate before returning; budget exhaustion
is always an explicit outcome, never a silently wrong answer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import _bits
from .chordal import _eliminate_vertex, elimination_fill, find_hole
from .errors import CounterexampleError, GraphInputError, ResourceLimitError
from .graph import EdgePair, Graph, _int_param, _vertex_id, pairs_from_codes, twin_classes

ORACLE_CLASS_LIMIT = 16

GREEDY_STRATEGIES = ("min-degree", "min-fill")

#: Bytes of rows that min-fill gathers, or unpacks, per batch of edges or fill pairs.
_GATHER_BYTES = 1 << 18


class _BudgetExceeded(Exception):
    pass


def _count_param(name: str, x) -> int:
    """x read by ``_int_param``; a negative value is a GraphInputError naming the parameter."""
    x = _int_param(name, x)
    if x < 0:
        raise GraphInputError(f"{name} must be nonnegative, got {x}")
    return x


# -- vertex cover ---------------------------------------------------------------


@dataclass(frozen=True)
class CoverResult:
    """Outcome of the exact vertex cover search."""

    vertices: frozenset[int]
    optimal: bool
    nodes: int
    seconds: float

    @property
    def size(self) -> int:
        return len(self.vertices)

    @property
    def status(self) -> str:
        return "optimal" if self.optimal else "budget_exhausted"


def is_vertex_cover(graph: Graph, vertices) -> bool:
    """Every edge has an end in the set: no row outside it meets the mask of the
    vertices outside it.  Ids outside 0..n-1 cover nothing; non-integers give False."""
    n = graph.n
    try:
        inside = _bits.mask_from_indices(n, [v for v in map(_vertex_id, vertices) if 0 <= v < n])
    except TypeError:
        return False
    rest = np.flatnonzero(~_bits.unpack(inside, n))
    return not (graph.packed_rows()[rest] & ~inside).any()


def exact_vertex_cover(graph: Graph, node_budget: int = 5_000_000) -> CoverResult:
    """Minimum vertex cover by branch and bound on the maximum-degree vertex.

    Degree-0 and degree-1 vertices are simplified away; a greedy matching
    supplies the lower bound.  Exceeding the node budget yields an explicit
    non-optimal result carrying the best cover found (still a valid cover).
    ``node_budget`` must be a nonnegative integer.
    """
    node_budget = _count_param("node_budget", node_budget)
    t0 = time.perf_counter()
    n = graph.n
    adj = _bits.row_ints(graph.packed_rows())
    full = (1 << n) - 1

    best_size = n + 1
    best_set: list[int] = []
    nodes = 0

    def matching_bound(alive: int) -> int:
        used = 0
        size = 0
        rem = alive
        while rem:
            v = (rem & -rem).bit_length() - 1
            rem &= rem - 1
            if used >> v & 1:
                continue
            nb = adj[v] & alive & ~used
            if nb:
                u = (nb & -nb).bit_length() - 1
                used |= (1 << v) | (1 << u)
                size += 1
        return size

    def search(alive: int, chosen: list[int]):
        nonlocal best_size, best_set, nodes
        nodes += 1
        if nodes > node_budget:
            raise _BudgetExceeded
        base = len(chosen)
        try:
            # simplification: drop isolated vertices, force neighbors of leaves
            while True:
                changed = False
                rem = alive
                while rem:
                    v = (rem & -rem).bit_length() - 1
                    rem &= rem - 1
                    nb = adj[v] & alive
                    if nb == 0:
                        alive &= ~(1 << v)
                    elif nb & (nb - 1) == 0:  # degree 1: take the neighbor
                        u = nb.bit_length() - 1
                        chosen.append(u)
                        alive &= ~((1 << v) | (1 << u))
                        changed = True
                        break
                if not changed:
                    break
            if not any(adj[v] & alive for v in _iter_bits(alive)):
                if len(chosen) < best_size:
                    best_size = len(chosen)
                    best_set = list(chosen)
                return
            if len(chosen) + matching_bound(alive) >= best_size:
                return
            v = max(_iter_bits(alive), key=lambda w: ((adj[w] & alive).bit_count(), -w))
            nb = list(_iter_bits(adj[v] & alive))
            # branch 1: v joins the cover
            chosen.append(v)
            search(alive & ~(1 << v), chosen)
            chosen.pop()
            # branch 2: v stays out, so all its neighbors join
            chosen.extend(nb)
            mask = 1 << v
            for u in nb:
                mask |= 1 << u
            search(alive & ~mask, chosen)
        finally:
            del chosen[base:]

    optimal = True
    try:
        search(full, [])
    except _BudgetExceeded:
        optimal = False
        if best_size > n:
            best_set = list(range(n))  # trivial fallback cover
    result = CoverResult(
        vertices=frozenset(best_set),
        optimal=optimal,
        nodes=nodes,
        seconds=time.perf_counter() - t0,
    )
    if not is_vertex_cover(graph, result.vertices):
        raise CounterexampleError("vertex cover solver returned a non-cover")
    return result


def _iter_bits(mask: int):
    while mask:
        v = (mask & -mask).bit_length() - 1
        yield v
        mask &= mask - 1


# -- exact fill-in: ordering oracle ---------------------------------------------


def exact_fillin_ordering_oracle(graph: Graph) -> frozenset[EdgePair]:
    """Minimum fill-in, by a subset DP over the classes of true twins.

    True twins (equal closed rows) form a clique module, which every minimal
    triangulation keeps (Bouchitte and Todinca, SIAM J. Comput. 2001), so an
    optimal ordering eliminates each class in one run.  The classes, numbered
    by smallest member, come from ``graph.twin_classes``.  With the classes of
    S eliminated, a and b are adjacent iff a path joins them through S
    (Bodlaender et al., ESA 2006); so with Q(S, v) the classes outside S + v
    so reached from v, eliminating v costs s_a * s_b for each pair a, b of
    Q(S, v) with b outside Q(S, a), and phi(S) is the least cost(S, v) +
    phi(S + v).  A path through S + u passes u once, so the reach R(S + u, v)
    is R(S, v), joined with R(S, u) when u is in R(S, v).  Ties go to the
    smallest class (numbered by smallest member), members ascending, and
    ``elimination_fill`` recounts the order as the certificate.  Time and
    memory grow as k * 2^k for k classes; at the ORACLE_CLASS_LIMIT of 16 a
    call takes 0.19 s and a 34 MB traced peak (one shared Xeon core).
    """
    rows = graph.packed_rows()
    reps, cls = twin_classes(rows)
    k = reps.size
    if k > ORACLE_CLASS_LIMIT:
        raise ResourceLimitError(
            f"ordering oracle is limited to {ORACLE_CLASS_LIMIT} true-twin classes, got {k}"
        )
    size = np.bincount(cls, minlength=k)
    bit = np.int64(1) << np.arange(k, dtype=np.int64)
    subsets = np.arange(1 << k, dtype=np.int64)
    reach = np.empty((k, 1 << k), dtype=np.int64)
    reach[:, 0] = (_bits.unpack(rows[reps], graph.n)[:, reps] * bit).sum(axis=1)
    weight = np.zeros(1 << k, dtype=np.int64)  # class-size sum of every mask
    for u in range(k):
        low = reach[:, : 1 << u]
        reach[:, 1 << u : 2 << u] = low | (low >> u & 1) * low[u]
        weight[1 << u : 2 << u] = weight[: 1 << u] + size[u]
    reach &= ~subsets & ~bit[:, None]  # Q(S, v)
    cost = np.zeros((k, 1 << k), dtype=np.int64)  # twice the fill of each step
    for a in range(k):
        apart = reach & ~(reach[a] | bit[a])
        apart &= -(reach >> a & 1)  # empty unless a is in Q(S, v)
        cost += (weight * size[a])[apart]
    phi = np.zeros(1 << k, dtype=np.int64)
    choice = np.zeros(1 << k, dtype=np.int64)
    popcount = np.bitwise_count(subsets)
    for p in range(k - 1, -1, -1):
        layer = subsets[popcount == p]
        after = cost[:, layer] // 2 + phi[layer | bit[:, None]]
        after[(layer & bit[:, None]) != 0] = np.iinfo(np.int64).max  # v already in S
        choice[layer] = after.argmin(axis=0)  # first minimum = smallest class
        phi[layer] = after.min(axis=0)
    order, done = [], 0
    for _ in range(k):
        order.append(int(choice[done]))
        done |= 1 << order[-1]
    fill = elimination_fill(graph, np.argsort(np.argsort(order)[cls], kind="stable"))
    if len(fill) != phi[0]:
        raise CounterexampleError("oracle reconstruction does not match its optimum")
    return fill


# -- exact fill-in: hole-chord branching ------------------------------------------


@dataclass(frozen=True)
class BranchFillinResult:
    """Outcome of the budgeted branching fill-in search."""

    status: str  # 'found' | 'none_within_budget' | 'feasible_budget_exhausted' | 'exhausted'
    fillin: frozenset[EdgePair] | None
    nodes: int
    seconds: float


def exact_fillin_branch(
    graph: Graph, budget: int, node_budget: int = 200_000
) -> BranchFillinResult:
    """Minimum fill-in of size at most ``budget``, by branching on a hole's ear.

    For a hole ``v, u, *inner, w`` of the current graph G', the l - 2 children
    add ``uw``, then ``vx`` for each x in ``inner`` (non-edges: the hole is
    induced).  Exhaustive: if a fill-in F of G' holds neither ``uw`` nor a
    chord at v, a shortest u-w path P in G' + F restricted to the hole minus v
    is induced, has two or more edges (``uw`` is not in G' + F), and v sees no
    inner vertex of P, so v + P is a hole of the chordal G' + F.  Every fill-in
    thus holds a child and, minus it, is a fill-in of G' + child; depth is
    capped by the budget.  'found' and 'none_within_budget' mean the search
    finished.  A node budget cut gives 'feasible_budget_exhausted' with the
    best fill-in so far (valid, not known to be minimum), or 'exhausted'
    without one.  ``budget`` and ``node_budget`` must be nonnegative integers.
    """
    budget = _count_param("budget", budget)
    node_budget = _count_param("node_budget", node_budget)
    t0 = time.perf_counter()
    nodes = 0
    best: list[EdgePair] | None = None

    def search(g: Graph, added: list[EdgePair], remaining: int):
        nonlocal nodes, best
        nodes += 1
        if nodes > node_budget:
            raise _BudgetExceeded
        if best is not None and len(added) >= len(best):
            return
        hole = find_hole(g)
        if hole is None:
            best = list(added)
            return
        if remaining == 0:
            return
        v, u, *inner, w = hole
        for chord in [(min(u, w), max(u, w))] + [(min(v, x), max(v, x)) for x in inner]:
            added.append(chord)
            search(g.add_edges([chord]), added, remaining - 1)
            added.pop()

    try:
        search(graph, [], budget)
        status = "found" if best is not None else "none_within_budget"
    except _BudgetExceeded:
        status = "feasible_budget_exhausted" if best is not None else "exhausted"
    seconds = time.perf_counter() - t0
    if best is None:
        return BranchFillinResult(status, None, nodes, seconds)
    return BranchFillinResult(status, frozenset(best), nodes, seconds)


# -- greedy elimination heuristics -------------------------------------------------


def _fill_scores(rows: np.ndarray, n: int) -> np.ndarray:
    """Exact fill score of every vertex: the non-adjacent pairs among its neighbors.

    That is ``deg*(deg-1)/2`` minus the edges inside the neighborhood; each
    edge (u, x) lies in the neighborhoods of its ``|N(u) & N(x)|`` common
    neighbors, so the per-edge common-neighbor counts, added at both ends,
    count every such edge twice.
    """
    deg = _bits.popcount_rows(rows)
    twice_inside = np.zeros(n, dtype=np.int64)
    codes = _bits.upper_codes(rows, n)
    for part in _bits.blocks(codes.size, rows.itemsize * rows.shape[1], _GATHER_BYTES):
        u, x = np.divmod(codes[part], n)
        both = np.take(rows, u, axis=0)
        both &= np.take(rows, x, axis=0)
        common = _bits.popcount_rows(both)
        np.add.at(twice_inside, u, common)
        np.add.at(twice_inside, x, common)
    return deg * (deg - 1) // 2 - twice_inside // 2


def greedy_game(graph: Graph, strategy: str) -> tuple[np.ndarray, np.ndarray]:
    """Run the elimination game under a greedy vertex choice; ties pick the smallest id.

    Returns (ordering, fill codes): the fill as sorted codes ``u * n + w``
    with u < w, the same codes ``elimination_fill_codes`` gives for that
    ordering, from this one game.  Min-degree keeps a degree array and, after
    each elimination, recounts only the eliminated vertex's neighbors: no
    other alive row changes.

    Min-fill keeps the exact fill score of every alive vertex (the number of
    non-adjacent pairs among its alive neighbors) as an int64 array and
    updates it only where an elimination changes it.  Eliminating v, with
    alive neighborhood N and fill pairs P (the non-adjacent pairs in N):

    - every w loses the pairs of P inside N(w), which become edges;
    - each w in N also loses ``|O_w|``, the pairs (v, o) for o in
      ``O_w = N(w) - N - {v}``, and gains, for each new partner y in N, the
      pairs (y, o) that stay non-adjacent: ``|O_w - N(y)|``.

    Nothing else changes.  The score is exact, so N is already a clique (P is
    empty) exactly when v scored 0; then only the ``|O_w|`` losses apply and
    no row changes.  Such a step reads no rows either: with ``deg[w]`` the
    closed alive degree of w, ``|O_w| = deg[w] - k - 1`` for each w in N
    (k = |N|), and w loses only v.  A step with fill sets ``deg[w]`` to
    ``|O_w| + k`` from the ``|O_w|`` it counts.

    Both strategies stop after the first step whose v saw every other alive
    vertex (``k == n - step - 1``).  After that step the alive vertices form
    a clique, so no later step fills or changes a row, and all of them tie
    (equal degrees, fill scores 0): the smallest id goes first each time, so
    the ordering ends with N in ascending ids and needs no more steps.  That
    step updates no score.  In min-fill it is a clique step: were v to see
    every alive vertex with some pair a, b of them non-adjacent, a would
    score less than v (its pairs are v's, without those holding a), so v
    would not be the minimum.

    A step with fill reads P, in both directions, from the nonzero words of
    ``N & ~rows[N]`` by ``_bits.set_positions``: no module unpacks a whole
    matrix to find its set bits.  Row stacks are gathered by ``np.take`` and
    ANDed in place.
    """
    if strategy not in GREEDY_STRATEGIES:
        raise GraphInputError(
            f"unknown strategy {strategy!r}; expected one of {GREEDY_STRATEGIES}"
        )
    n = graph.n
    original = graph.packed_rows()
    rows = original.copy()
    _bits.set_diagonal(rows)
    alive = _bits.mask_from_indices(n, range(n))
    order = np.empty(n, dtype=np.int64)
    if strategy == "min-degree":
        deg = graph.degrees().copy()
        for step in range(n):
            v = int(deg.argmin())  # first minimum = smallest id
            order[step] = v
            idx = _eliminate_vertex(rows, alive, v, n)
            if idx.size == n - step - 1:  # the alive vertices are a clique: ascending ids
                order[step + 1 :] = idx
                break
            deg[idx] = _bits.popcount_rows(rows[idx] & alive) - 1  # minus the own bit
            deg[v] = n  # above every alive degree: never re-selected
        return order, _bits.upper_codes(rows & ~original, n)
    score = _fill_scores(original, n)
    deg = graph.degrees() + 1  # closed alive degrees
    retired = np.iinfo(np.int64).max  # above every alive score: never re-selected
    for step in range(n):
        v = int(score.argmin())  # first minimum = smallest id
        order[step] = v
        clique = score[v] == 0
        score[v] = retired
        _bits.clear_bit(alive, v)
        nbr = rows[v] & alive
        idx = _bits.indices(nbr, n)
        k = idx.size
        if clique:  # no fill, no row change: |O_w| is deg[w] - k - 1
            if k == n - step - 1:  # v saw every alive vertex: they are a clique
                order[step + 1 :] = idx
                break
            d = deg[idx] - 1
            score[idx] -= d - k
            deg[idx] = d
            continue
        near = np.take(rows, idx, axis=0)  # closed: row w holds w, which nbr holds too
        outside = near & (alive & ~nbr)  # O_w for each w in N
        lost = _bits.popcount_rows(outside)
        score[idx] -= lost
        deg[idx] = lost + k
        missing = ~near
        missing &= nbr
        i, y = _bits.set_positions(missing)  # P in both directions: (idx[i], y)
        x = idx[i]
        for part in _bits.blocks(i.size, rows.itemsize * rows.shape[1], _GATHER_BYTES):
            shared = np.take(outside, i[part], axis=0)
            shared &= np.take(rows, y[part], axis=0)  # |O_w - N(y)| = |O_w| - |O_w & N(y)|
            np.add.at(score, x[part], lost[i[part]] - _bits.popcount_rows(shared))
        upper = x < y
        x, y = x[upper], y[upper]
        for part in _bits.blocks(x.size, 8 * rows.itemsize * rows.shape[1], _GATHER_BYTES):  # unpacked
            common = np.take(rows, x[part], axis=0)  # x, y not adjacent: open
            common &= np.take(rows, y[part], axis=0)
            common &= alive
            score -= _bits.unpack(common, n).sum(axis=0, dtype=np.int64)
        rows[idx] = near | nbr
    return order, _bits.upper_codes(rows & ~original, n)


def greedy_minfill_heuristic(graph: Graph, strategy: str) -> frozenset[EdgePair]:
    """Fill-in produced by the greedy elimination game.

    'min-degree' picks the vertex of least current degree; 'min-fill' picks
    the vertex whose elimination adds the fewest edges right now.  The result
    is always a valid fill-in.
    """
    return pairs_from_codes(greedy_game(graph, strategy)[1], graph.n)
