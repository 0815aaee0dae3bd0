"""Desk-scale exact solvers and greedy heuristics.

These are the ground-truth generators for the whole repository: a
branch-and-bound minimum vertex cover, an exact minimum fill-in oracle (a
subset DP over true-twin classes, after Bodlaender, Fomin, Koster, Kratsch
and Thilikos, ESA 2006, that reads only reachability sets of the graph), a
hole-ear branching fill-in solver for instances with a small optimum, and
the classic min-degree / min-fill elimination heuristics.  Every fill-in
leaves them as sorted int64 codes ``u * n + w`` with u < w.

Both heuristics keep exact integer scores: min-degree the alive degrees,
min-fill the number of non-adjacent pairs among each vertex's alive
neighbors.  A graph that ``graph.twin_quotient`` accepts, with at most 64
classes of true twins (one word), plays on its class graph: the members of a
class share their scores, so each step rescores the classes with one k x k
product, eliminates the least class's smallest alive member and fills whole
class products (the proof that ordering and fill are the row game's is in
``greedy_game``).  Every other graph plays on the packed rows, where scores
are computed once and then updated only where an elimination changes them,
so each step costs popcounts over the eliminated vertex's neighborhood and
its fill pairs, never a rescoring of every vertex.  Such a step is about 14
NumPy calls, about 20 us whatever its neighbourhood, so min-degree opens on
one Python int per closed row while the least alive degree is below
``OPENING_DEGREE``: a step there costs about 2 us plus 0.5 us per neighbour
(``_degree_opening``).  Past the opening it plays on the packed rows and
records each pick's twins in the pick's own step (mass elimination of
indistinguishable vertices, George and Liu, SIAM Review 1989; the lemma is in
``_degree_game``).  A game ends at its
clique tail: once the eliminated vertex saw every other alive vertex, its
step leaves the alive vertices a clique (min-degree by its fill; min-fill
picks such a vertex only at score 0, when they already are one).  Every
later step then adds no fill and changes no row, and every alive vertex has
the same degree and a fill score of 0, so both rules pick the alive vertices
in ascending ids: the ordering ends with them and the game stops.

``greedy_game`` plays one elimination game per call and returns the ordering
and its fill together, so a caller that needs both (``fillinlab eliminate``)
never replays the game; a caller that needs the fill-in takes ``[1]``.
Like ``chordal``'s game the row game works on closed rows: the working rows
carry bit v of row v, a vertex leaves ``alive`` before its row is read, so
``rows[v] & alive`` excludes v and OR-ing a neighborhood into its own rows
needs no diagonal clearing.  Closed rows count the vertex itself, hence the
``- 1`` in an alive degree; the initial fill scores come from the original
open rows.  Min-fill also keeps each vertex's closed alive degree, so a step
whose vertex scores 0 (its neighborhood is a clique) updates its neighbors'
scores from those degrees and reads no rows.

Every solver revalidates its certificate before returning; budget exhaustion
is always an explicit outcome, never a silently wrong answer.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from . import _bits
from .chordal import _eliminate_vertex, elimination_fill_codes, find_hole
from .errors import CounterexampleError, GraphInputError, ResourceLimitError
from .graph import (
    Graph,
    _count_param,
    _vertex_id,
    twin_classes,
    twin_quotient,
)

ORACLE_CLASS_LIMIT = 16

#: Min-degree plays its steps on Python-int rows while the least alive degree is below this.
OPENING_DEGREE = 16

GREEDY_STRATEGIES = ("min-degree", "min-fill")


# -- vertex cover ---------------------------------------------------------------


@dataclass(frozen=True)
class CoverResult:
    """Outcome of the exact vertex cover search."""

    vertices: frozenset[int]
    optimal: bool
    nodes: int

    @property
    def size(self) -> int:
        return len(self.vertices)

    @property
    def status(self) -> str:
        return "optimal" if self.optimal else "budget_exhausted"


def is_vertex_cover(graph: Graph, vertices) -> bool:
    """``_covers`` on the ids read by ``graph._vertex_id``; non-integers give False."""
    try:
        return _covers(graph, list(map(_vertex_id, vertices)))
    except TypeError:
        return False


def _covers(graph: Graph, ids: list[int]) -> bool:
    """Every edge has an end among the integer ``ids``: no row outside them meets
    the mask of the vertices outside them.  Ids outside 0..n-1 cover nothing."""
    n = graph.n
    inside = _bits.mask_from_indices(n, [v for v in ids if 0 <= v < n])
    rest = np.flatnonzero(~_bits.unpack(inside, n))
    return not (graph.packed_rows()[rest] & ~inside).any()


def exact_vertex_cover(graph: Graph, node_budget: int = 5_000_000) -> CoverResult:
    """Minimum vertex cover by branch and bound on the maximum-degree vertex.

    Degree-0 and degree-1 vertices are simplified away; a greedy matching
    supplies the lower bound.  Exceeding the node budget yields an explicit
    non-optimal result carrying the best cover found (still a valid cover).
    ``node_budget`` must be a nonnegative integer.

    The certified result is kept on the graph per node budget (``Graph._kept``),
    so the search runs once per graph and budget: a later call returns the
    same result, whose ``nodes`` are the first search's.  A
    budget-exhausted result stays one for its budget; a call with another
    budget searches again.
    """
    node_budget = _count_param("node_budget", node_budget)
    return graph._kept(("cover", node_budget), _search_cover, graph, node_budget)


def _search_cover(graph: Graph, node_budget: int) -> CoverResult:
    """The search behind ``exact_vertex_cover``, uncached."""
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

    # Depth-first, v's "in" branch first: each stack entry is a node's alive set, the
    # length of its parent's cover and the vertices its branch adds to that cover.
    optimal, chosen, stack = True, [], [(full, 0, ())]
    while stack:
        alive, base, extra = stack.pop()
        del chosen[base:]
        chosen += extra
        nodes += 1
        if nodes > node_budget:
            optimal = False
            break
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
            continue
        if len(chosen) + matching_bound(alive) >= best_size:
            continue
        v = max(_iter_bits(alive), key=lambda w: ((adj[w] & alive).bit_count(), -w))
        nb = list(_iter_bits(adj[v] & alive))
        mask = 1 << v
        for u in nb:
            mask |= 1 << u
        # branch 2, v stays out and all its neighbors join, runs after branch 1, v joins
        stack.append((alive & ~mask, len(chosen), nb))
        stack.append((alive & ~(1 << v), len(chosen), (v,)))
    if not optimal and best_size > n:
        best_set = list(range(n))  # trivial fallback cover
    result = CoverResult(
        vertices=frozenset(best_set),
        optimal=optimal,
        nodes=nodes,
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


def exact_fillin_ordering_oracle(graph: Graph) -> np.ndarray:
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
    ``elimination_fill_codes`` recounts the order into the codes returned.
    Time and memory grow as k * 2^k for k classes; at the ORACLE_CLASS_LIMIT
    of 16 a call takes 0.19 s and a 34 MB traced peak (one shared Xeon core).
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
    fill = elimination_fill_codes(graph, np.argsort(np.argsort(order)[cls], kind="stable"))
    if fill.size != phi[0]:
        raise CounterexampleError("oracle reconstruction does not match its optimum")
    return fill


# -- exact fill-in: hole-chord branching ------------------------------------------


@dataclass(frozen=True, eq=False)  # an array field has no truth value to compare or hash by
class BranchFillinResult:
    """Outcome of the budgeted branching fill-in search."""

    status: str  # 'found' | 'none_within_budget' | 'feasible_budget_exhausted' | 'exhausted'
    fillin: np.ndarray | None  # sorted codes u * n + w with u < w
    nodes: int


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
    without one, the fill-in as sorted codes.  ``budget`` and ``node_budget``
    must be nonnegative integers.
    """
    budget = _count_param("budget", budget)
    node_budget = _count_param("node_budget", node_budget)
    n = graph.n
    nodes = 0
    best: list[int] | None = None  # codes u * n + w with u < w
    added: list[int] = []  # the chords from the root to the current node
    # Depth-first, in the order of a recursive search.  Every node on the path but the
    # current one branched, and ``levels[d]`` is the one at depth d: its hole as an int64
    # array and the index of its next child (0 is ``uw``, i > 0 is ``v`` and the i-th
    # inner vertex).  A node's graph is built from the root's rows and the codes in
    # ``added`` by one ``add_edges``, so one graph of the path is alive at a time.
    levels: list[list] = []
    cut = False
    while True:
        nodes += 1
        if nodes > node_budget:
            cut = True
            break
        if best is None or len(added) < len(best):
            hole = find_hole(graph.add_edges(np.array(added, dtype=np.int64)))
            if hole is None:
                best = list(added)
            elif len(added) < budget:
                levels.append([np.array(hole, dtype=np.int64), 0])
        while levels and levels[-1][1] == levels[-1][0].size - 2:
            levels.pop()  # every child tried
        if not levels:
            break
        hole, i = levels[-1]
        levels[-1][1] = i + 1
        del added[len(levels) - 1 :]
        a, b = (hole.item(1), hole.item(-1)) if i == 0 else (hole.item(0), hole.item(i + 1))
        added.append(min(a, b) * n + max(a, b))
    if cut:
        status = "feasible_budget_exhausted" if best is not None else "exhausted"
    else:
        status = "found" if best is not None else "none_within_budget"
    fillin = None if best is None else np.sort(np.array(best, dtype=np.int64))
    return BranchFillinResult(status, fillin, nodes)


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
    for part in _bits.blocks(codes.size, rows.itemsize * rows.shape[1]):
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
    ordering, from this one game.  When ``graph.twin_quotient`` accepts the
    rows and the classes of true twins fit in one word, the game is played
    on the class graph (``_class_game``), else on the packed rows
    (``_row_game``).  Both return the same ordering and codes:

    - True twins (equal closed rows) stay twins when any other vertex v is
      eliminated.  If v sees twin a it sees twin b, the step adds the same
      vertices, N(v), to both closed rows and removes v from both, and every
      other vertex gains a exactly when it gains b.  So every class of
      ``graph.twin_classes`` stays a clique of twins, and two classes are
      either fully adjacent or not at all: the class graph.
    - The members of a class share their degree and their fill score.  With
      s_d the number of alive members of class d and N(c) the classes
      adjacent to c, a member of c sees the other ``s_c - 1`` members and
      every alive member of N(c).  Two of those are non-adjacent only when
      they lie in two non-adjacent classes of N(c), so its degree is
      ``s_c - 1 + sum(s_d for d in N(c))`` and its fill score the sum of
      ``s_d1 * s_d2`` over the non-adjacent pairs {d1, d2} of N(c).
    - The row game takes the least score, then the least id.  The members
      of a class tie, so it takes the smallest alive member of the class
      that minimises (score, smallest alive member), as the class game does.
    - Eliminating that member of c adds every pair of an alive member of d1
      and one of d2, for each non-adjacent pair {d1, d2} of N(c), and no
      other pair; d1 and d2 are adjacent from then on.  The fill of one step
      is a union of class products.

    By induction on the step both games pick the same vertex and add the
    same pairs.  Both stop after the first step whose vertex saw every other
    alive vertex (the clique tail, see ``_row_game``) and end the ordering
    with the alive vertices in ascending ids.
    """
    if strategy not in GREEDY_STRATEGIES:
        raise GraphInputError(
            f"unknown strategy {strategy!r}; expected one of {GREEDY_STRATEGIES}"
        )
    quotient = twin_quotient(graph.packed_rows())
    if quotient is not None and _bits.nwords(quotient[0].size) == 1:
        return _class_game(graph, strategy, *quotient)
    return _row_game(graph, strategy)


def _class_scores(
    strategy: str, near: np.ndarray, apart: np.ndarray, size: np.ndarray
) -> np.ndarray:
    """The score every class's members share, as int64: the degree for
    min-degree, twice the fill score for min-fill (ordered pairs, which
    order the classes as the fill score does).

    ``near`` and ``apart`` are the k x k float64 0/1 matrices of adjacent and
    of distinct non-adjacent classes, ``size`` the float64 alive counts.
    Every entry, product and partial sum is an integer of magnitude at most
    n^2 (the sums of the product add nonnegative terms), so float64 and the
    BLAS product are exact for n < 2^26.
    """
    if strategy == "min-degree":
        score = near @ size
        score += size - 1
        return score.astype(np.int64)
    w = near * size  # w[c, d] = s_d for each d in N(c)
    pairs = w @ apart
    pairs *= w
    return pairs.sum(axis=1).astype(np.int64)


def _class_game(
    graph: Graph, strategy: str, reps: np.ndarray, cls: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``greedy_game`` on the class graph of the true-twin classes ``(reps, cls)``.

    Each step rescores every class (``_class_scores``, one k x k product)
    and takes the least key ``score * n + smallest alive member``, an int64
    below n^3: exact, and below ``retired``, for n < 2^20, whose packed rows
    alone would take 128 GiB.  A class keeps its members in ascending ids, as
    one run of ``members``, and ``head[c]`` points at its smallest alive one;
    a class whose last member goes is retired: its adjacency is cleared and
    its key can no longer be least.  Each step records the class pairs it
    joins, by its step number (``joined``, n for never), and each vertex its
    elimination step (``gone``, n for the clique tail).  Members leave a
    class in ascending ids, so the members of class d still alive after step
    t are one run of ``members``; the fill of a pair joined at step t is the
    product of two such runs, and the codes are read from those products,
    with no n x n matrix.
    """
    n, k = graph.n, reps.size
    rows = graph.packed_rows()
    members = np.argsort(cls, kind="stable")  # each class one run, ids ascending
    counts = np.bincount(cls, minlength=k)
    stop = np.cumsum(counts)
    head = (stop - counts).tolist()
    first = reps.copy()  # smallest alive member of each class
    near = _bits.unpack(rows[reps], n)[:, reps].astype(np.float64)
    apart = 1.0 - near
    np.fill_diagonal(apart, 0.0)
    size = counts.astype(np.float64)
    joined = np.full((k, k), n, dtype=np.int64)
    gone = np.full(n, n, dtype=np.int64)
    order = np.empty(n, dtype=np.int64)
    retired = np.iinfo(np.int64).max // 2  # above every alive key
    for step in range(n):
        score = _class_scores(strategy, near, apart, size)
        key = score * n
        key += first
        c = int(key.argmin())
        v = int(members[head[c]])
        order[step], gone[v] = v, step
        head[c] += 1
        size[c] -= 1
        nbr = near[c]  # no step changes row c while c is alive: c is not in N(c)
        if score[c] if strategy == "min-fill" else apart @ nbr @ nbr:  # N(c) is no clique
            fill = apart * nbr
            fill *= nbr[:, None]
            joined[fill > 0] = step
            near += fill
            apart -= fill
        if size[c] + nbr @ size == n - step - 1:  # v saw every alive vertex
            order[step + 1 :] = np.flatnonzero(gone == n)
            break
        if size[c]:
            first[c] = members[head[c]]
        else:
            near[c] = near[:, c] = 0.0
            first[c] = retired
    # Class pair (c1, c2) joined at step t fills every pair of members alive
    # after t: the run of each class from its first member with gone > t on.
    c1, c2 = np.triu_indices(k, 1)
    t = joined[c1, c2]
    c1, c2, t = c1[t < n], c2[t < n], t[t < n]
    ranked = cls[members] * (n + 1) + gone[members]  # ascending: by class, then by gone
    lo1 = np.searchsorted(ranked, c1 * (n + 1) + t, side="right")
    lo2 = np.searchsorted(ranked, c2 * (n + 1) + t, side="right")
    wide = stop[c2] - lo2
    area = (stop[c1] - lo1) * wide
    pair = np.repeat(np.arange(area.size), area)
    at = np.arange(pair.size) - np.repeat(np.cumsum(area) - area, area)
    u = members[lo1[pair] + at // wide[pair]]
    w = members[lo2[pair] + at % wide[pair]]
    codes = np.minimum(u, w) * n
    codes += np.maximum(u, w)
    codes.sort()
    return order, codes


def _row_game(graph: Graph, strategy: str) -> tuple[np.ndarray, np.ndarray]:
    """``greedy_game`` on the packed rows: min-degree plays ``_degree_game``.

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
    if strategy == "min-degree":
        return _degree_game(graph)
    n = graph.n
    original = graph.packed_rows()
    rows = original.copy()
    _bits.set_diagonal(rows)
    alive = _bits.mask_from_indices(n, range(n))
    order = np.empty(n, dtype=np.int64)
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
        for part in _bits.blocks(i.size, rows.itemsize * rows.shape[1]):
            shared = np.take(outside, i[part], axis=0)
            shared &= np.take(rows, y[part], axis=0)  # |O_w - N(y)| = |O_w| - |O_w & N(y)|
            np.add.at(score, x[part], lost[i[part]] - _bits.popcount_rows(shared))
        upper = x < y
        x, y = x[upper], y[upper]
        for part in _bits.blocks(x.size, 8 * rows.itemsize * rows.shape[1]):  # unpacked
            common = np.take(rows, x[part], axis=0)  # x, y not adjacent: open
            common &= np.take(rows, y[part], axis=0)
            common &= alive
            score -= _bits.unpack(common, n).sum(axis=0, dtype=np.int64)
        rows[idx] = near | nbr
    rows ^= original
    return order, _bits.upper_codes(rows, n)


def _degree_game(graph: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Min-degree's row game, in two phases picked by the least alive degree.

    While it is below ``OPENING_DEGREE`` the rows are Python ints
    (``_degree_opening``: about 2 us plus 0.5 us per neighbour a step); at the
    first pick of degree ``OPENING_DEGREE`` or more they go back to packed rows
    once (``_bits.rows_from_ints``), and a graph whose least degree starts
    there never converts.  The packed phase keeps a degree array and, after
    each elimination, recounts only the eliminated vertex's neighbors, from
    the block of their rows that ``_eliminate_vertex`` returns: no other alive
    row changes.  Such a step is about 14 NumPy calls, so the packed phase
    eliminates twins in bulk.  Let v be the pick, of least degree d, N its
    alive neighbourhood and T the w in N whose recounted degree is d - 1:

    - T is v's twins before the step.  After it, N[w] (closed, alive) holds N,
      which is d vertices, so w in T has N[w] = N; before it N[w] was within N
      + v and held at least d + 1 vertices, as d was least: N[w] = N[v].
    - The members of T are the next picks, in ascending ids, and add no fill.
      With j of them gone, each one left has degree d - 1 - j, every other w
      in N at least d - j (its recount is at least d, and it loses only the
      twins), and every vertex outside N + v keeps its degree, at least d.  A
      twin's alive neighbourhood lies in N, which v's step made a clique, so
      it fills nothing and only lowers the degrees of N by one.

    So the step records T after v, retires it from ``alive`` and lowers every
    other recount by |T|; no twin's step is a clique tail, since a twin sees
    every alive vertex only when v did.

    Both phases stop at the clique tail (see ``_row_game``).
    """
    n = graph.n
    original = graph.packed_rows()
    order = np.empty(n, dtype=np.int64)
    deg = graph.degrees().copy()
    step, done = 0, n == 0
    if not done and deg.min() < OPENING_DEGREE:
        ints = _bits.row_ints(original)
        for v in range(n):
            ints[v] |= 1 << v  # closed rows
        opened = deg.tolist()
        step, done = _degree_opening(ints, opened, order)
        rows = _bits.rows_from_ints(ints, n)
        del ints
        deg[:] = opened
    else:
        rows = original.copy()
        _bits.set_diagonal(rows)
    alive = _bits.mask_from_indices(n, np.flatnonzero(deg < n))
    while not done:
        v = int(deg.argmin())  # first minimum = smallest id
        order[step] = v
        idx, near = _eliminate_vertex(rows, alive, v, n)
        k = idx.size
        if k == n - step - 1:  # the alive vertices are a clique: ascending ids
            order[step + 1 :] = idx
            break
        near &= alive
        new = _bits.popcount_rows(near)
        new -= 1  # the own bit
        deg[v] = n  # above every alive degree: never re-selected
        step += 1
        twin = new == k - 1
        if twin.any():  # v's twins: the next picks, ascending, with no fill
            twins = idx[twin]
            order[step : step + twins.size] = twins
            step += twins.size
            alive &= ~_bits.mask_from_indices(n, twins)
            new -= twins.size
            new[twin] = n
        deg[idx] = new
    rows ^= original  # the game only sets bits: the fill
    return order, _bits.upper_codes(rows, n)


def _degree_opening(rows: list[int], deg: list[int], order: np.ndarray) -> tuple[int, bool]:
    """Min-degree's opening on closed rows as Python ints (both lists in place),
    while the least alive degree is below ``OPENING_DEGREE``.

    A ``heapq`` of keys ``degree * n + id`` finds the least (degree, id), so
    ties go to the smallest id.  Entries are deleted lazily: every alive v keeps
    a key whose degree is at most ``deg[v]``, because a drop pushes the new
    key and a rise pushes none; a popped key below ``deg[v]`` is pushed again at
    ``deg[v]``, one above it is stale, and one equal to it is the pick: no alive
    vertex has a smaller (degree, id).  ``deg[v]`` becomes n when v goes, so its
    keys are all stale.  Returns the steps played and whether the game ended
    there, at its clique tail (``order`` then ends with the alive vertices in
    ascending ids); else the next pick has degree ``OPENING_DEGREE`` or more.
    """
    n = len(rows)
    heap = [d * n + v for v, d in enumerate(deg)]
    heapq.heapify(heap)
    pop, push = heapq.heappop, heapq.heappush
    alive = (1 << n) - 1
    picks = []
    while True:
        d, v = divmod(pop(heap), n)
        if d != deg[v]:
            if d < deg[v] < n:
                push(heap, deg[v] * n + v)
            continue
        if d >= OPENING_DEGREE:
            order[: len(picks)] = picks
            return len(picks), False
        picks.append(v)
        alive ^= 1 << v
        nbr = rows[v] & alive
        if nbr == alive:  # v saw every alive vertex: they are a clique
            order[: len(picks)] = picks
            order[len(picks) :] = list(_iter_bits(alive))
            return len(picks), True
        deg[v] = n
        rest = nbr
        while rest:
            low = rest & -rest
            rest ^= low
            w = low.bit_length() - 1
            row = rows[w] | nbr
            rows[w] = row
            dw = (row & alive).bit_count() - 1  # minus the own bit
            if dw < deg[w]:
                push(heap, dw * n + w)
            deg[w] = dw
