"""Chordality recognition with checkable certificates, split-graph recognition,
and the elimination game that defines fill for an ordering.

A graph is chordal when it has no induced cycle (hole) of length at least
four, equivalently when some elimination ordering produces zero fill (a
perfect elimination ordering, PEO).  Recognition is one maximum cardinality
search that records each vertex's earliest later neighbor, then tests its
reversed visit order in one batched pass over blocks of steps.  A PEO verdict
rests on that earliest-later-neighbor test, which is a complete PEO check
(Rose, Tarjan and Lueker 1976).  A violation ``(v, u, x)`` names two
nonadjacent earlier neighbors u, x of some v; ``_hole`` closes it with the
shortest u-x path that ``graph._bfs`` finds outside N[v], and the hole passes
``check_hole`` once before it leaves this module.  ``check_peo`` stays as the
definitional checker for reports and tests; it and ``is_split`` test cliques
with ``_bits.is_clique``.  Vertex ids are read by ``graph._vertex_id`` alone.
A fill is sorted int64 codes ``u * n + w`` (u < w); ``verify_fillin`` reads
codes, an (m, 2) array or pairs (``graph.normalize_edges``) and hands the
filled graph on in ``FillinCheck.filled``.

The path exists for every MCS order, whatever its tie-break (the MCS
property behind Tarjan and Yannakakis, SIAM J. Comput. 1984, and their 1985
addendum).  Fix a vertex z and a step at which z is not yet visited, and let
t(w) be the step that visits w.  Let A be the visited neighbors of z and X
the other visited vertices.  Call p, q *linked* when pq is an edge or some
component of G[X] is adjacent to both, and w *heavy* when w is unvisited,
w != z, and w has more visited neighbors than z.  X only grows, so its
components only grow and a linked pair stays linked.  By induction on the
step:

- (L) any two vertices of A are linked;
- (J) if a is in A, w is in X and t(w) > t(a), w's component is adjacent to a;
- (H) any two heavy vertices are linked.

All three hold before the first step.  Let y != z be the next vertex chosen.
Key step: y is linked to every a in A.  Suppose it is not.  An X-neighbor of
y visited after s = t(a) would link y to a through its component (J), so
from step s on y gained only neighbors in A, a not among them, while z
gained a and every later vertex of A.  MCS takes y over z now, so y had more
visited neighbors than z at step s: y was heavy then, and so was a, which
MCS took over y.  (H) at step s links a and y, a contradiction.  If y is in
N(z), y joins A: the key step gives (L), X does not change, no vertex of X
comes after y, and no vertex becomes heavy, as z gains a neighbor and every
other vertex at most one.  If y is not in N[z], y joins X: the key step
gives (J), since y's new component holds y and whatever linked it to a.  A
vertex that becomes heavy is adjacent to y.  If any vertex was heavy before,
y, of maximum weight, was heavy too, so (H) links every older heavy vertex
to y, and through y's component to every newly heavy one; two newly heavy
vertices are both adjacent to y.

Take z = v at step t(v): u and x are in A and nonadjacent, so by (L) some
component of G[X] is adjacent to both.  It holds a u-x path whose inner
vertices are visited non-neighbors of v, outside N[v].  So ``_hole`` needs
no fallback, and a search that finds no path is a CounterexampleError.

``find_hole``, the one routine that returns a hole or None
(``verify_fillin``, ``transfer``'s completion check and
``exact_fillin_branch`` call it), may decide on the true-twin quotient: G
restricted to one member of each class of ``graph.twin_classes``, when
``graph.twin_quotient`` accepts its rows.  G is chordal iff its quotient is.
The quotient is an induced subgraph, and chordality is hereditary.
Conversely, G is the quotient plus true twins added one at a time, and
adding a true twin t of a vertex s (N[t] = N[s]) keeps a graph chordal.  A
hole through t but not s becomes a hole through s when s replaces t, since
on the cycle s sees exactly t's two neighbors.  A hole through both has st
as a cycle edge (st is an edge, and a hole has no chord), and then s is
adjacent to t's other cycle neighbor, a chord.  A non-chordal quotient sends
the check back to ``find_hole``'s scan of G, so the hole is the one that
``is_chordal`` gives on G.  ``is_chordal`` keeps its one scan of G, since it
must return a PEO.

The elimination game stops at its clique tail.  A step whose vertex v is
adjacent to every other alive vertex makes the alive vertices a clique
(it ORs them all into each other's rows), and a vertex of a clique has a
clique neighborhood, so no later step adds fill: the fill of the whole
order is already in the rows.

A fixed-order game plays each *chain* of its order as one batch.  A chain
is a run c_0..c_{r-1} in which each c_{j+1} lies in the neighborhood N_j
that step j cliques: c_{j+1} is c_j's parent in the elimination tree (Liu
1990), as in the natural order of a grid.  Let R be the closed rows and A
the alive set before the run, P_j = R[c_0] | ... | R[c_j] and B_j =
{c_0..c_j}.  Chain lemma: N_j = P_j & A & ~B_j (Rose, Tarjan and Lueker's
fill paths, read one parent at a time).  By induction on j.  At j = 0 it is
the definition.  Suppose it holds up to j, and c_{j+1} is in N_j.  The row
of c_{j+1} before step j+1 is R[c_{j+1}] OR the N_i (i <= j) that held it:
each lies in P_j, and N_j, which holds c_{j+1}, is one of them, so on the
vertices alive after step j it is (R[c_{j+1}] | P_j) & A & ~B_j.  Masked
to the vertices alive after step j+1, that is P_{j+1} & A & ~B_{j+1}.
Since B_j lies in P_j & A (closed rows), |N_j| = |P_j & A| - j - 1, so step
j is the clique tail exactly when P_j holds all of A.  The rows after the
run follow.  Let f(x) be the first j whose R[c_j] holds x, and e(x) the last
step after which x is alive: r - 1, or t - 1 when x = c_t.  x lies in N_j
exactly for f(x) <= j <= e(x), and each such N_j lies in P_{e(x)} & A &
~B_{f(x)}.  Conversely a y of that set lies with x in N_j for j =
max(f(x), f(y)) <= e(x): y is alive after step j, since a chain vertex c_s
outside B_{f(x)} has s > f(x) and, by its link, f(c_s) <= s - 1.  So step
by step x's row gains P_{e(x)} & A & ~B_{f(x)}, or with B_{f(x)-1} in its
place, which adds only c_{f(x)}, x's neighbor already.  ``_eliminate_chain``
ORs that set into each row, after one prefix OR over the window has tested
every link (bit c_{j+1} of P_j) and every tail.  It builds no elimination
tree and never reads a column structure, so ``matrix.symbolic_fill_codes``,
which merges columns up the tree, stays an independent cross-check of the
same fill.  ``elimination_fill_matches`` makes that check: it plays the game
and compares its fill rows with the factorization's codes block by block
(``_bits.upper_codes_equal``), so the check holds one fill array, not two.

Cost model: a single step is about ten NumPy calls, a batch about 45, plus
work linear in the rows it reads; on the rows of sparse patterns a batch
takes the time of four to eight single steps.  So the game batches only
after ``_CHAIN_LINKS`` links in a row, with a whole first window of
``_FIRST_WINDOW`` steps left to play, and doubles the window while the chain
goes on.  Where chains are short (random patterns in natural order: a run
of four links goes on about four more steps), batches about break even.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _bits
from .errors import CounterexampleError, GraphInputError
from .graph import (
    Graph,
    _bfs,
    _induced_rows,
    _set_edge_bits,
    _vertex_ids,
    normalize_edges,
    twin_quotient,
)


@dataclass(frozen=True)
class PeoCertificate:
    """Elimination ordering whose every vertex has a clique of later neighbors."""

    order: tuple[int, ...]
    kind = "peo"


@dataclass(frozen=True)
class HoleCertificate:
    """Induced cycle on >= 4 vertices, listed in cyclic order."""

    cycle: tuple[int, ...]
    kind = "hole"


Certificate = PeoCertificate | HoleCertificate


def _validate_permutation(n: int, order) -> np.ndarray:
    """``order`` as an int64 array, when it is a permutation of 0..n-1.

    A 1-D integer ndarray is tested as it is, by one array test (a uint64 id
    past int64 wraps to a negative one, never a vertex).  Any other input is
    read by ``graph._vertex_ids``, whose message a non-integer raises; an id
    past int64 is then no vertex either.  Every other failure raises "ordering
    is not a permutation of the vertices".
    """
    if isinstance(order, np.ndarray) and order.ndim == 1 and order.dtype.kind in "iu":
        arr = order.astype(np.int64, copy=False)
    else:
        ids = _vertex_ids(order)
        try:
            arr = np.array(ids, dtype=np.int64)
        except OverflowError:
            arr = None
    if arr is None or arr.shape != (n,) or not np.array_equal(np.sort(arr), np.arange(n)):
        raise GraphInputError("ordering is not a permutation of the vertices")
    return arr


# -- maximum cardinality search ----------------------------------------------


def _mcs_scan(graph: Graph):
    """MCS visit order and the first PEO violation ``(v, u, x)`` of its reverse, or None.

    When v is visited, its visited neighbors are its later neighbors in the
    reversed order, and the most recently visited of them, u, is the earliest.
    The order is a PEO iff every such u is adjacent to all the others (Rose,
    Tarjan and Lueker 1976).  The last failing v is the first in PEO order;
    x is the smallest id it misses.

    The loop only searches: per step one argmax, one unpacked row added to
    the weights, and u recorded as ``latest[v]``.  Rows that fit one word
    (n <= 64), as the true-twin quotients that ``find_hole`` scans do, are
    unpacked once before the loop: n^2 <= 64 n bytes, eight times the packed
    rows.  Wider rows are unpacked one per step, so the scan never holds an
    unpacked matrix of a large graph.  One batched pass then
    tests every step at once; the gap of step i is
    ``rows[v] & visited & ~rows[u]``, with ``visited`` the vertices of steps
    0..i (v itself is in no row of its own).  It holds u, so the step fails
    when the gap holds more.  The pass gathers the rows of one ``_bits.blocks``
    slice of steps at a time (a row's bytes per step), and carries the visited
    row from one block to the next.
    """
    n = graph.n
    rows = graph.packed_rows()
    one_word = rows.shape[1] == 1
    unpacked = _bits.unpack(rows, n) if one_word else None
    weight = np.zeros(n, dtype=np.int64)
    latest = np.full(n, -1, dtype=np.int64)  # most recently visited neighbor
    order = np.empty(n, dtype=np.int64)
    earliest = np.empty(n, dtype=np.int64)  # u of each step, -1 if none
    for i in range(n):
        v = int(weight.argmax())  # first maximum = smallest id
        order[i] = v
        earliest[i] = latest[v]
        nb = unpacked[v] if one_word else _bits.unpack(rows[v], n)
        weight += nb
        weight[v] = -2 * n  # below every later weight: never re-selected
        latest[nb] = v
    violation = None
    visited = np.zeros(_bits.nwords(n), dtype=np.uint64)
    for block in _bits.blocks(n, rows.itemsize * rows.shape[1]):
        vs, us = order[block], earliest[block]
        seen = _bits.zero_rows(vs.size, n)
        _bits.set_bits(seen, np.arange(vs.size), vs)
        np.bitwise_or.accumulate(seen, axis=0, out=seen)
        seen |= visited
        visited = seen[-1].copy()
        gap = rows[vs]
        gap &= seen
        gap &= ~rows[us]  # u = -1 reads the last row, but then v has no visited neighbor
        fails = np.flatnonzero(_bits.popcount_rows(gap) > 1)
        if fails.size:
            i = fails[-1]
            v, u = int(vs[i]), int(us[i])
            _bits.clear_bit(gap[i], u)
            violation = (v, u, int(_bits.indices(gap[i], n)[0]))
    return order, violation


def mcs_ordering(graph: Graph) -> np.ndarray:
    """Visit order of maximum cardinality search; ties break to the smallest id.

    The reversed visit order is a PEO exactly when the graph is chordal.
    """
    return _mcs_scan(graph)[0]


# -- certificate checkers (definitional, independent of recognition) ---------


def check_peo(graph: Graph, order) -> bool:
    """True iff order is a permutation and every vertex's later neighbors form a clique."""
    try:
        arr = _validate_permutation(graph.n, order)
    except GraphInputError:
        return False
    n = graph.n
    rows = graph.packed_rows()
    remaining = _bits.mask_from_indices(n, range(n))
    for v in arr:
        v = int(v)
        _bits.clear_bit(remaining, v)
        if not _bits.is_clique(rows, rows[v] & remaining, n):
            return False
    return True


def check_hole(graph: Graph, cycle) -> bool:
    """True iff cycle is an induced cycle of length >= 4 in the graph: distinct
    vertices whose rows, masked to the cycle, hold just their two cycle neighbors."""
    try:
        cyc = _vertex_ids(cycle)
    except GraphInputError:
        return False
    k, n = len(cyc), graph.n
    if k < 4 or len(set(cyc)) != k or any(not (0 <= v < n) for v in cyc):
        return False
    idx = np.array(cyc, dtype=np.int64)
    i = np.arange(k)
    want = _bits.zero_rows(k, n)  # row i holds cyc[i - 1] and cyc[i + 1]
    _bits.set_bits(want, np.concatenate([i, i]), idx[np.concatenate([i - 1, (i + 1) % k])])
    return np.array_equal(graph.packed_rows()[idx] & _bits.mask_from_indices(n, idx), want)


# -- recognition --------------------------------------------------------------


def _hole(graph: Graph, viol) -> tuple[int, ...]:
    """The hole that the PEO violation ``(v, u, x)`` closes, checked against the definition once.

    The path is x's breadth-first parent path from u outside N[v] (x
    excepted); a shortest path is induced, no inner vertex of it touches v,
    and u, x are nonadjacent, so v and the path are a hole.  The module
    docstring proves that the path exists for every MCS order; a search that
    finds none, or a cycle that ``check_hole`` rejects, is a
    CounterexampleError.
    """
    v, u, x = viol
    rows, n = graph.packed_rows(), graph.n
    inside = _bits.unpack(~rows[v], n).tolist()
    inside[v] = False
    inside[x] = True
    # rows are read as the search reaches them: it stops at x, often after a few
    parent = _bfs(lambda w: _bits.indices(rows[w], n).tolist(), u, inside, x)[1]
    if parent[x] == -1:
        raise CounterexampleError(f"PEO violation {viol} has no path outside N[{v}]")
    path = [x]
    while path[-1] != u:
        path.append(parent[path[-1]])
    hole = (v, *path[::-1])
    if not check_hole(graph, hole):
        raise CounterexampleError("recognition produced an invalid hole")
    return hole


def find_hole(graph: Graph):
    """``is_chordal``'s hole of the graph, or None when it is chordal.

    When ``graph.twin_quotient`` accepts the rows, the quotient is scanned
    first, and a chordal quotient decides (module docstring).  Otherwise, or
    when the quotient is not chordal, one scan of the graph itself decides.
    """
    rows = graph.packed_rows()
    quotient = twin_quotient(rows)
    if quotient is not None:
        if _mcs_scan(Graph._adopt(_induced_rows(rows, quotient[0])))[1] is None:
            return None
    viol = _mcs_scan(graph)[1]
    return None if viol is None else _hole(graph, viol)


def is_chordal(graph: Graph) -> tuple[bool, Certificate]:
    """Decide chordality with one MCS scan; a hole certificate is checked once."""
    order, viol = _mcs_scan(graph)
    if viol is None:
        return True, PeoCertificate(tuple(int(v) for v in order[::-1]))
    return False, HoleCertificate(_hole(graph, viol))


# -- split graphs --------------------------------------------------------------


def is_split(graph: Graph):
    """Split recognition via the degree-sequence identity.

    Returns (True, (clique_vertices, independent_vertices)) or (False, None),
    each part ascending.  One stable argsort orders the vertices by degree,
    ties in ascending id; the clique part is the first k of them, k the last
    position whose degree reaches k - 1, and the identity is two array sums.
    The witnessing partition is verified before it is returned.
    """
    n = graph.n
    if n == 0:
        return True, ((), ())
    deg = graph.degrees()
    by_degree = np.argsort(-deg, kind="stable")  # ties in ascending id
    d = deg[by_degree]
    k = int(np.flatnonzero(d >= np.arange(n))[-1]) + 1  # d[0] >= 0: never empty
    lhs = int(d[:k].sum())
    rhs = k * (k - 1) + int(np.minimum(d[k:], k).sum())
    if lhs != rhs:
        return False, None
    clique = tuple(np.sort(by_degree[:k]).tolist())
    indep = tuple(np.sort(by_degree[k:]).tolist())
    rows = graph.packed_rows()
    if not _bits.is_clique(rows, _bits.mask_from_indices(n, clique), n):
        raise CounterexampleError("degree identity held but clique part is not a clique")
    if indep:
        idx = np.asarray(indep, dtype=np.int64)
        inside = _bits.mask_from_indices(n, idx)
        if (rows[idx] & inside[None, :]).any():
            raise CounterexampleError("degree identity held but independent part has an edge")
    return True, (clique, indep)


# -- elimination game ----------------------------------------------------------

#: Links in a row after which a fixed-order game plays batches, and the steps
#: of its first batch (the cost model of the module docstring).
_CHAIN_LINKS = 4
_FIRST_WINDOW = 8


def _eliminate_vertex(
    rows: np.ndarray, alive: np.ndarray, v: int, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Retire v and clique its still-alive neighborhood (in place).

    ``rows`` are closed-neighborhood rows: a working copy of the packed rows
    with bit w of row w set for every w (``_bits.set_diagonal``, once per
    game).  v leaves ``alive`` before its row is read, so ``rows[v] & alive``
    is its open alive neighborhood N; every row of N holds its own bit, so
    OR-ing N into them keeps them closed and no diagonal bit is ever cleared.
    Returns N and a copy of its rows after the step (gathered once, OR-ed and
    written back), the only rows whose alive part changed.  When N is every
    alive vertex, the alive vertices are a clique from then on: callers end
    their game there (the clique tail), since no later step can fill.
    """
    _bits.clear_bit(alive, v)
    nbr = rows[v] & alive
    idx = _bits.indices(nbr, n)
    near = rows[idx]
    if idx.size >= 2:
        near |= nbr
        rows[idx] = near
    return idx, near


def _eliminate_chain(
    rows: np.ndarray,
    alive: np.ndarray,
    order: np.ndarray,
    pos: np.ndarray,
    step: int,
    width: int,
    n: int,
) -> tuple[int, bool, bool]:
    """Play ``order[step:]`` as one batch while it is a chain, at most ``width`` steps (in place).

    ``pos`` is the inverse of ``order``.  With A the alive vertices and c_t
    the vertex t steps in, P_j is the OR of the rows of c_0..c_j masked to
    A (the chain lemma of the module docstring).  Each x of P_{w-1} has a
    first step f(x) whose row holds it, and one ``_bits.set_positions`` call
    on the bits new to each P_j lists the pairs (f(x), x), f ascending.  The
    link into c_t (t >= 1) is broken exactly when f(c_t) = t, c_t first
    seen in its own row, and the batch plays the steps before the first such
    t.  The first j whose P_j holds all of A, |P_j| = |A|, is the clique
    tail when it comes before the break.  Then each x with f(x) below the
    steps played gets P_{e(x)} minus c_0..c_{f(x)-1} in its row, e(x) being
    the last step played, or t - 1 when x is c_t.  Returns the steps played,
    whether the last was the clique tail, and whether the chain goes on: the
    whole window played, and P_{w-1} holds the vertex after it.
    """
    chain = order[step : step + width]
    prefix = rows[chain]
    np.bitwise_or.accumulate(prefix, axis=0, out=prefix)
    prefix &= alive
    first = prefix.copy()
    first[1:] ^= prefix[:-1]  # P_{j-1} lies in P_j: the bits new at step j
    f, x = _bits.set_positions(first)
    del first
    t = pos[x]
    t -= step
    own = np.flatnonzero(f == t)  # c_0, then each c_t whose link is broken
    played = int(f[own[1]]) if own.size > 1 else chain.size
    tail = x.size == n - step and int(f[-1]) < played  # f[-1]: the first j with |P_j| = |A|
    if tail:
        played = int(f[-1]) + 1
    k = int(np.searchsorted(f, played))
    f, x, t = f[:k], x[:k], t[:k]
    e = np.minimum(t, played)
    e -= 1
    np.maximum(e, f, out=e)  # c_0: e = f = 0, and P_0 is in its row already
    gone = _bits.zero_rows(played + 1, n)  # row j: c_0..c_{j-1}
    _bits.set_bits(gone, np.arange(1, played + 1), chain[:played])
    np.bitwise_or.accumulate(gone, axis=0, out=gone)
    grown = prefix[e]
    grown ^= gone[f]  # c_0..c_{f-1} lie in P_{f-1}, so in P_e
    grown |= rows[x]
    rows[x] = grown
    alive ^= gone[played]
    linked = played == chain.size and not tail and bool((t == played).any())
    return played, tail, linked


def elimination_fill_codes(graph: Graph, order) -> np.ndarray:
    """Fill of the elimination game as sorted codes ``u * n + w`` with u < w.

    At each step the missing edges among the current vertex's not-yet
    eliminated neighbors are added, then the vertex is removed; the codes of
    all added pairs are returned.  Empty exactly when the order is a PEO.
    ``_fill_rows`` plays the game; ``_bits.upper_codes`` reads its fill rows.
    """
    return _bits.upper_codes(_fill_rows(graph, order), graph.n)


def elimination_fill_matches(graph: Graph, order, codes: np.ndarray) -> bool:
    """True iff the elimination game's fill under ``order`` is exactly the sorted
    int64 ``codes``: ``np.array_equal(elimination_fill_codes(graph, order), codes)``.

    The game is played as for ``elimination_fill_codes``; then
    ``_bits.upper_codes_equal`` compares the two counts, and the fill rows with
    ``codes`` one block at a time, so the game's fill never becomes a second
    code array beside ``codes``.
    """
    return _bits.upper_codes_equal(_fill_rows(graph, order), graph.n, codes)


def _fill_rows(graph: Graph, order) -> np.ndarray:
    """The elimination game of ``order``: packed rows whose bits right of the
    diagonal are its fill.

    The game runs on closed rows (see ``_eliminate_vertex``); the fill is the
    working rows minus the original ones, taken in place by ``^=`` (the game
    only sets bits), so the rows hold the fill in both triangles and the
    diagonal bits, which readers of the strict upper triangle drop.  It stops
    after the first step whose vertex saw every other alive vertex: that step
    leaves the alive vertices a clique, so the rest of the order adds no fill
    and is not played.

    Steps are played one ``_eliminate_vertex`` call at a time, each testing
    one bit: whether the next vertex lies in the neighborhood it just
    cliqued (a link).  After ``_CHAIN_LINKS`` links in a row, with at least
    ``_FIRST_WINDOW`` steps still to play, the game plays the order in
    ``_eliminate_chain`` batches instead, the first of ``_FIRST_WINDOW``
    steps; a batch that plays its whole window and links to the next vertex
    doubles the next window, and one that breaks hands back to single steps.
    Each window is capped by ``_bits.blocks`` at the four arrays of one row
    per step that a batch holds: the prefix ORs, the eliminated prefixes,
    and the grown rows with one gathered operand.
    """
    arr = _validate_permutation(graph.n, order)
    n = graph.n
    original = graph.packed_rows()
    rows = original.copy()
    _bits.set_diagonal(rows)
    alive = _bits.mask_from_indices(n, range(n))
    vertices = arr.tolist()
    pos = None  # the inverse of the order, once a batch needs it
    step, links, width = 0, 0, _FIRST_WINDOW
    while step < n:
        if links < _CHAIN_LINKS:
            v = vertices[step]
            if _eliminate_vertex(rows, alive, v, n)[0].size == n - step - 1:
                break  # v saw every alive vertex: they form a clique, no later step fills
            step += 1
            whole = n - step >= _FIRST_WINDOW  # a batch that cannot play a first window cannot pay
            links = links + 1 if whole and _bits.test_bit(rows[v], vertices[step]) else 0
            continue
        if pos is None:
            pos = np.empty(n, dtype=np.int64)
            pos[arr] = np.arange(n)
        window = next(_bits.blocks(width, 4 * rows.itemsize * rows.shape[1]))
        played, tail, linked = _eliminate_chain(rows, alive, arr, pos, step, window.stop, n)
        if tail:
            break
        step += played
        width, links = (2 * width, links) if linked else (_FIRST_WINDOW, 0)
    rows ^= original
    return rows


# -- fill-in validation ---------------------------------------------------------


@dataclass(frozen=True)
class FillinCheck:
    """Outcome of verifying a claimed fill-in; falsy when the claim fails,
    else ``filled`` is the graph with the fill-in added."""

    ok: bool
    reason: str | None = None  # 'invalid_pair' | 'pair_is_edge' | 'not_chordal'
    detail: tuple = ()
    filled: Graph | None = None

    def __bool__(self) -> bool:
        return self.ok


def verify_fillin(graph: Graph, fillin) -> FillinCheck:
    """Check that every pair is a non-edge and that adding them yields a chordal graph.

    Codes, an (m, 2) integer array (such as ``graph._id_pairs`` gives, which
    is tested, not read again) or pairs go through ``normalize_edges`` once
    (``invalid_pair``, with its message); one bit test over the array it gives
    finds the first pair that is already an edge (``pair_is_edge``, as
    ``(min, max)``); the same array fills the graph, and one chordality test
    on it (``find_hole``, on the true-twin quotient when small) decides
    ``not_chordal``, with its hole.
    """
    try:
        pairs = normalize_edges(graph.n, fillin)
    except GraphInputError as exc:
        return FillinCheck(False, "invalid_pair", exc.args)
    hit = np.flatnonzero(_bits.get_bits(graph.packed_rows(), pairs[:, 0], pairs[:, 1]))
    if hit.size:
        return FillinCheck(False, "pair_is_edge", tuple(sorted(pairs[hit[0]].tolist())))
    rows = graph.packed_rows().copy()
    _set_edge_bits(rows, pairs)
    filled = Graph._adopt(rows)
    hole = find_hole(filled)
    if hole is not None:
        return FillinCheck(False, "not_chordal", hole)
    return FillinCheck(True, filled=filled)
