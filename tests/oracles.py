"""Independent brute-force oracles used to cross-check the package.

Everything here works on plain Python sets of edge pairs, deliberately
sharing no algorithmic code with the package: holes are found by subset
enumeration, covers by subset enumeration, maximum cardinality search and its
PEO test by rescanning every vertex per step, minimum fill by trying every
elimination ordering with a dict-of-sets elimination game, or by a memoized
search over eliminated sets.  ``clique_tail_brute`` replays that game to
the first step whose vertex sees every live vertex.  The gadget certificate maps are restated from
their definitions on dicts of sets.  ``graph_from_bool_matrix`` builds a
package ``Graph`` from a boolean matrix, for layout tests of its intake, and
``load_matrix_market_lines`` is the reference Matrix Market reader, one
Python pass per entry.  ``normalize_edges_sorted`` is the reference edge
reader: the sorted, deduplicated pair list the one-pass array must set the
same bits as.  ``bfs_deque`` is the reference breadth-first search, a
``deque`` loop over sorted adjacency sets.  ``forbidden_clique_brute`` tests
one degree-d vertex at a time for a K_{d+1}.  ``symbolic_merge_brute`` is the
package's earlier symbolic factorization, one ``np.unique`` merge per column,
kept as the reference for the bitset columns.  ``check_hole_pairs`` and
``is_vertex_cover_pairs`` are the package's earlier certificate checkers, a
loop over every pair of cycle members and a walk over the edge list.
``twin_classes_brute`` groups vertices by their closed neighborhoods as
frozensets in a dict.  ``blow_up`` turns each vertex of a base graph into a
clique of true twins under shuffled labels, and ``twin_blowup``, the twin
generator of the tests, draws the base (a seeded G(m, p)) and the clique
sizes for it.  ``mcs_orders_brute`` lists every maximum cardinality
search order of a graph, one per tie-break, ``mcs_order_random`` draws one,
and ``unlinked_pair_brute`` tests the linkage lemma of the ``chordal``
docstring on an order by listing components with a stack.
``decode_codes`` turns the package's fill codes ``u * n + w`` back into
pairs, for tests that compare fills with these sets.  ``chain_order_brute``
draws orders whose next vertex often lies in the neighborhood the last step
cliqued, replaying the same game to know it.
"""

import operator
import warnings
from collections import deque
from itertools import combinations, permutations

import numpy as np

from fillinlab import _bits
from fillinlab.errors import GraphInputError
from fillinlab.generate import gnp
from fillinlab.graph import Graph, parse_ints


def edge_set(graph):
    return {tuple(e) for e in graph.edge_list()}


def decode_codes(codes, n):
    """Codes ``u * n + w`` as a list of ``(u, w)`` pairs, in input order.

    Each code is split by Python's ``divmod`` (by 1 when n = 0) and both halves
    keep the code's own Python type, so a bool or float code decodes to a
    pair the edge reader rejects, and a valid code to a pair of ints.
    """
    return [tuple(map(type(c), divmod(c, max(n, 1)))) for c in np.asarray(codes).tolist()]


def normalize_edges_sorted(vertex_count, edges):
    """Validate an edge iterable into sorted, deduplicated ``(u, v)`` pairs with
    u < v; same checks, order of checks and messages as ``graph.normalize_edges``."""
    seen = set()
    for e in edges:
        try:
            u, v = e
            if type(u) is bool or type(v) is bool:
                raise TypeError
            u, v = operator.index(u), operator.index(v)
        except (TypeError, ValueError):
            raise GraphInputError(f"edge {e!r} is not a pair of vertex ids") from None
        if u == v:
            raise GraphInputError(f"self-loop ({u},{v}) is not allowed")
        if not (0 <= u < vertex_count and 0 <= v < vertex_count):
            raise GraphInputError(f"edge ({u},{v}) out of range for {vertex_count} vertices")
        seen.add((min(u, v), max(u, v)))
    return sorted(seen)


def _read_ids(values):
    """Integer ids (never bools) as a list; a TypeError for anything else."""
    ids = []
    for x in values:
        if type(x) is bool:
            raise TypeError
        ids.append(operator.index(x))
    return ids


def check_hole_pairs(n, edges, cycle):
    """True iff cycle is an induced cycle of length >= 4: distinct integer ids
    in 0..n-1, and each pair adjacent exactly when consecutive on the cycle."""
    try:
        cyc = _read_ids(cycle)
    except TypeError:
        return False
    k = len(cyc)
    if k < 4 or len(set(cyc)) != k or any(not (0 <= v < n) for v in cyc):
        return False
    for i in range(k):
        for j in range(i + 1, k):
            adjacent = (min(cyc[i], cyc[j]), max(cyc[i], cyc[j])) in edges
            consecutive = (j - i == 1) or (i == 0 and j == k - 1)
            if adjacent != consecutive:
                return False
    return True


def is_vertex_cover_pairs(edges, vertices):
    """Every edge has an end in the set; False when an id is not an integer."""
    try:
        cover = set(_read_ids(vertices))
    except TypeError:
        return False
    return all(u in cover or v in cover for u, v in edges)


def bfs_deque(n, edges, root, allowed):
    """Breadth-first search from root through the vertex set ``allowed`` (root
    is always visited), queueing neighbors in ascending order.  Returns the
    visit order and a parent per vertex: root its own, unreached ones -1."""
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    parent = [-1] * n
    parent[root] = root
    order = []
    queue = deque([root])
    while queue:
        u = queue.popleft()
        order.append(u)
        for w in sorted(adj[u]):
            if w in allowed and parent[w] == -1:
                parent[w] = u
                queue.append(w)
    return order, parent


def graph_from_bool_matrix(matrix):
    """The graph of a square boolean adjacency matrix in any memory layout:
    packed by ``_bits.pack`` and checked by ``Graph.from_packed_rows``."""
    matrix = np.asarray(matrix, dtype=bool)
    return Graph.from_packed_rows(_bits.pack(matrix), matrix.shape[0])


def find_holes_brute(n, edges):
    """All induced cycles of length >= 4, as vertex subsets (ordered tuples)."""
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    holes = []
    for size in range(4, n + 1):
        for subset in combinations(range(n), size):
            sub = set(subset)
            degs = [len(adj[v] & sub) for v in subset]
            if any(d != 2 for d in degs):
                continue
            # connected 2-regular induced subgraph on |sub| vertices = induced cycle
            start = subset[0]
            seen = {start}
            stack = [start]
            while stack:
                u = stack.pop()
                for w in adj[u] & sub:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            if len(seen) == size:
                holes.append(subset)
    return holes


def is_chordal_brute(n, edges):
    return not find_holes_brute(n, edges)


def is_split_brute(n, edges):
    """No induced 2K2, C4, or C5."""
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)

    def induced_edges(subset):
        return {(a, b) for a, b in combinations(subset, 2) if b in adj[a]}

    for subset in combinations(range(n), 4):
        e = induced_edges(subset)
        if len(e) == 2 and not (set(e.pop()) & set(e.pop())):
            return False  # 2K2
    for hole in find_holes_brute(n, edges):
        if len(hole) in (4, 5):
            return False
    return True


def min_vertex_cover_brute(n, edges):
    """Smallest cover size by subset enumeration."""
    for k in range(n + 1):
        for subset in combinations(range(n), k):
            s = set(subset)
            if all(u in s or v in s for u, v in edges):
                return k
    return n


def elimination_fill_brute(n, edges, order):
    """Dict-of-sets elimination game; returns the set of added pairs."""
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    fill = set()
    remaining = set(range(n))
    for v in order:
        nbrs = sorted(adj[v] & remaining)
        for i in range(len(nbrs)):
            for j in range(i + 1, len(nbrs)):
                a, b = nbrs[i], nbrs[j]
                if b not in adj[a]:
                    adj[a].add(b)
                    adj[b].add(a)
                    fill.add((a, b))
        remaining.discard(v)
    return fill


def clique_tail_brute(n, edges, order):
    """Index of the first step of the dict-of-sets elimination game whose vertex
    is adjacent to every other live vertex, or None when no step is (n = 0).
    From that step on the live vertices form a clique."""
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    remaining = set(range(n))
    for step, v in enumerate(order):
        remaining.discard(v)
        nbrs = adj[v] & remaining
        if nbrs == remaining:
            return step
        for a in nbrs:
            adj[a] |= nbrs - {a}
    return None


def chain_order_brute(n, edges, rng, stay):
    """An elimination order that follows chains: with probability ``stay``
    the next vertex is a random member of the neighborhood the dict-of-sets
    game's last step cliqued, when it has one, else a random live vertex.
    Each chain so ends at a random step, inside a batch window or at its end."""
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    remaining = set(range(n))
    order, nbrs = [], set()
    while remaining:
        pool = sorted(nbrs if nbrs and rng.random() < stay else remaining)
        v = pool[int(rng.integers(len(pool)))]
        order.append(v)
        remaining.discard(v)
        nbrs = adj[v] & remaining
        for a in nbrs:
            adj[a] |= nbrs - {a}
    return order


def forbidden_clique_brute(n, edges, d):
    """Sorted members of the first degree-d vertex (by id) whose closed
    neighbourhood is a clique, or None."""
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    for v in range(n):
        closed = adj[v] | {v}
        if len(adj[v]) == d and all(b in adj[a] for a, b in combinations(closed, 2)):
            return sorted(closed)
    return None


def symbolic_merge_brute(n, codes, order):
    """(fill codes, total nonzeros) of the pattern ``codes`` under ``order``.

    Column structures merge up the elimination tree (Liu 1990) as sorted
    arrays: column k is its own lower entries, in pivot order, joined by one
    ``np.unique(np.concatenate(...))`` with each child's structure minus k;
    its parent is its smallest entry.
    """
    order = np.asarray(order, dtype=np.int64)
    step = np.empty(n, dtype=np.int64)
    step[order] = np.arange(n)
    a, b = np.take(step, np.divmod(codes, n))
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    by_col = np.lexsort((hi, lo))
    own = hi[by_col]
    starts = np.searchsorted(lo[by_col], np.arange(n + 1))
    children = [[] for _ in range(n)]
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
    fill = np.setdiff1d(factor, codes, assume_unique=True)
    return fill, 2 * int(factor.size) + n


def split_completion_brute(n, edges, clique):
    """Pairs of ``clique`` that are not edges: the fill completing it into a clique."""
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return {(a, b) for a, b in combinations(sorted(clique), 2) if b not in adj[a]}


def full_vertices_brute(missing, fill):
    """Vertices v (the keys of ``missing``) whose every pair {v, u}, u in
    missing[v], is in the fill, whichever way round it is listed."""
    added = {v: set() for v in missing}
    for a, b in fill:
        added.setdefault(a, set()).add(b)
        added.setdefault(b, set()).add(a)
    return {v for v, block in missing.items() if set(block) <= added[v]}


def mcs_scan_brute(n, edges):
    """Maximum cardinality search with smallest-id ties, and the PEO test of
    its reversed order, on dicts of sets.

    When v is visited, its already visited neighbours must all be adjacent to
    the most recently visited of them, u.  Returns the visit order and
    ``(v, u, x)`` for the last v that fails, x the smallest id u misses, or
    None when every v passes.
    """
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    weight = {v: 0 for v in range(n)}
    when = {}  # visited vertex -> its step
    violation = None
    while len(when) < n:
        v = min((w for w in range(n) if w not in when), key=lambda w: (-weight[w], w))
        earlier = [w for w in adj[v] if w in when]
        if earlier:
            u = max(earlier, key=when.__getitem__)
            missed = [w for w in earlier if w != u and w not in adj[u]]
            if missed:
                violation = (v, u, min(missed))
        when[v] = len(when)
        for w in adj[v]:
            weight[w] += 1
    return sorted(when, key=when.__getitem__), violation


def mcs_orders_brute(n, edges):
    """Every maximum cardinality search order, as tuples: at each step each
    unvisited vertex with the most visited neighbours is tried in turn."""
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    order = []

    def extend():
        if len(order) == n:
            yield tuple(order)
            return
        visited = set(order)
        weight = {w: len(adj[w] & visited) for w in range(n) if w not in visited}
        top = max(weight.values())
        for w in sorted(weight):
            if weight[w] == top:
                order.append(w)
                yield from extend()
                order.pop()

    yield from extend()


def mcs_order_random(n, edges, rng):
    """One maximum cardinality search order, each tie broken uniformly at random."""
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    order = []
    while len(order) < n:
        visited = set(order)
        weight = {w: len(adj[w] & visited) for w in range(n) if w not in visited}
        top = max(weight.values())
        ties = sorted(w for w in weight if weight[w] == top)
        order.append(ties[int(rng.integers(len(ties)))])
    return order


def unlinked_pair_brute(n, edges, order):
    """The first ``(z, p, q)``, p < q, of an elimination-visit order where p and q
    are nonadjacent neighbours of z visited before it and no component of the
    graph on z's earlier non-neighbours is adjacent to both; None if none is.

    This is the linkage that the ``chordal`` docstring proves for every MCS
    order, tested at the step that visits z.
    """
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    for i, z in enumerate(order):
        earlier = order[:i]
        near = sorted(w for w in earlier if w in adj[z])
        far = {w for w in earlier if w not in adj[z]}
        touched = []  # for each component of the graph on far, the vertices adjacent to it
        while far:
            comp, stack = set(), [far.pop()]
            while stack:
                w = stack.pop()
                comp.add(w)
                stack.extend(adj[w] & far)
                far -= adj[w]
            touched.append(set().union(*(adj[w] for w in comp)))
        for p, q in combinations(near, 2):
            if q not in adj[p] and not any(p in t and q in t for t in touched):
                return z, p, q
    return None


def twin_classes_brute(n, edges):
    """True-twin classes from closed neighborhoods kept as frozensets: the
    smallest member of each class, ascending, and each vertex's class index."""
    closed = {v: {v} for v in range(n)}
    for u, v in edges:
        closed[u].add(v)
        closed[v].add(u)
    first = {}  # closed neighborhood -> smallest vertex that has it
    for v in range(n):
        first.setdefault(frozenset(closed[v]), v)
    reps = sorted(first.values())
    index = {r: i for i, r in enumerate(reps)}
    return reps, [index[first[frozenset(closed[v])]] for v in range(n)]


def twin_blowup(rng, n, most=4):
    """A seeded G(m, p) with each vertex blown up into a clique of 1..``most``
    true twins, n vertices in all, under shuffled labels."""
    sizes = []
    while sum(sizes) < n:
        sizes.append(min(int(rng.integers(1, most + 1)), n - sum(sizes)))
    return blow_up(gnp(len(sizes), float(rng.uniform(0.2, 0.8)), rng), sizes, rng)


def blow_up(base, sizes, rng):
    """``base`` with vertex i replaced by a clique of ``sizes[i]`` true twins,
    under labels shuffled by one ``rng.permutation``."""
    owner = np.repeat(np.arange(base.n), sizes).tolist()
    label = rng.permutation(len(owner)).tolist()
    edges = [
        (label[i], label[j])
        for i, j in combinations(range(len(owner)), 2)
        if owner[i] == owner[j] or base.has_edge(owner[i], owner[j])
    ]
    return Graph.build(len(owner), edges)


def min_degree_ordering_brute(n, edges):
    """Min-degree elimination order by a full rescan of every live vertex per step.

    Ties go to the smallest id; degrees count live neighbors only.
    """
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    remaining = set(range(n))
    order = []
    while remaining:
        v = min(remaining, key=lambda w: (len(adj[w] & remaining), w))
        nbrs = adj[v] & remaining
        for a in nbrs:
            adj[a] |= nbrs - {a}
        remaining.discard(v)
        order.append(v)
    return order


def min_fill_ordering_brute(n, edges):
    """Min-fill elimination order by a full rescan of every live vertex per step.

    A vertex's deficiency is the number of non-adjacent pairs among its live
    neighbors, counted pair by pair; ties go to the smallest id.
    """
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    remaining = set(range(n))

    def deficiency(w):
        nbrs = sorted(adj[w] & remaining)
        return sum(1 for a, b in combinations(nbrs, 2) if b not in adj[a])

    order = []
    while remaining:
        v = min(remaining, key=lambda w: (deficiency(w), w))
        nbrs = adj[v] & remaining
        for a in nbrs:
            adj[a] |= nbrs - {a}
        remaining.discard(v)
        order.append(v)
    return order


def min_fill_brute(n, edges):
    """Minimum fill size over every elimination ordering (n <= 8 or so)."""
    best = None
    for order in permutations(range(n)):
        size = len(elimination_fill_brute(n, edges, order))
        if best is None or size < best:
            best = size
            if best == 0:
                break
    return best


def min_fill_memo_brute(n, edges):
    """Minimum fill set by the best elimination ordering, memoized on the set
    of eliminated vertices, over Python-int adjacency masks.

    The package's oracle before its true-twin subset DP, kept as the
    reference: ties go to the smallest vertex (an ascending scan keeping only
    strict improvements), and the fill is replayed by
    ``elimination_fill_brute``.  Exponential in n; n <= 10 or so.
    """
    base = [0] * n
    for u, v in edges:
        base[u] |= 1 << v
        base[v] |= 1 << u
    full = (1 << n) - 1
    memo = {}  # eliminated set -> (fill cost, best vertex)

    def deficiency(adj, v):
        nb = adj[v]
        missing = 0
        rem = nb
        while rem:
            u = (rem & -rem).bit_length() - 1
            rem &= rem - 1
            missing += (nb & ~adj[u] & ~(1 << u) & ~((1 << (u + 1)) - 1)).bit_count()
        return missing

    def eliminate(adj, v):
        nb = adj[v]
        out = list(adj)
        rem = nb
        while rem:
            u = (rem & -rem).bit_length() - 1
            rem &= rem - 1
            out[u] = (out[u] | (nb & ~(1 << u))) & ~(1 << v)
        out[v] = 0
        return out

    def solve(done, adj):
        if done == full:
            return 0
        hit = memo.get(done)
        if hit is not None:
            return hit[0]
        best_cost, best_v = None, -1
        rem = full & ~done
        while rem:
            v = (rem & -rem).bit_length() - 1
            rem &= rem - 1
            cost = deficiency(adj, v) + solve(done | (1 << v), eliminate(adj, v))
            if best_cost is None or cost < best_cost:
                best_cost, best_v = cost, v
        memo[done] = (best_cost, best_v)
        return best_cost

    if n == 0:
        return set()
    optimum = solve(0, base)
    order = []
    done, adj = 0, base
    while done != full:
        v = memo[done][1]
        order.append(v)
        adj = eliminate(adj, v)
        done |= 1 << v
    fill = elimination_fill_brute(n, edges, order)
    assert len(fill) == optimum
    return fill


def all_labeled_graphs(n):
    """Yield the edge set of every labeled graph on n vertices."""
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield {pairs[i] for i in range(len(pairs)) if mask >> i & 1}


def iso_classes_4():
    """One labeled representative per isomorphism class of 4-vertex graphs."""
    reps = []
    seen = set()
    for edges in all_labeled_graphs(4):
        canon = min(
            tuple(
                sorted((min(p[u], p[v]), max(p[u], p[v])) for u, v in edges)
            )
            for p in permutations(range(4))
        )
        if canon not in seen:
            seen.add(canon)
            reps.append(edges)
    return reps


def brooks_triple_missing(n, edges, d):
    """Some d-regular component on more than d vertices has no vertex u with
    nonadjacent neighbours a, b whose removal leaves the component connected:
    the start of Lovasz's proof of Brooks' theorem is unavailable there."""
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)

    def reach(start, allowed):
        seen, stack = {start}, [start]
        while stack:
            for w in adj[stack.pop()] & allowed:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return seen

    done = set()
    for s in range(n):
        if s in done:
            continue
        comp = reach(s, set(range(n)))
        done |= comp
        if len(comp) <= d or any(len(adj[v]) != d for v in comp):
            continue
        if not any(
            b not in adj[a] and len(reach(u, comp - {a, b})) == len(comp) - 2
            for u in comp
            for a, b in combinations(sorted(adj[u]), 2)
        ):
            return True
    return False


def load_matrix_market_lines(path):
    """``(n, positions)`` of a symmetric coordinate Matrix Market file, read one
    line and one entry at a time: the reference the package reader must match
    in positions, error messages and warnings."""
    with open(path) as fh:
        header = fh.readline().strip()
        parts = header.split()
        if len(parts) != 5 or parts[0] != "%%MatrixMarket":
            raise GraphInputError(f"{path}: missing %%MatrixMarket header")
        _, obj, fmt, field, symmetry = (p.lower() for p in parts)
        if obj != "matrix" or fmt != "coordinate":
            raise GraphInputError(f"{path}: only 'matrix coordinate' files are supported")
        if field not in ("real", "integer", "complex", "pattern"):
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
    positions = set()
    for (i, j), value in zip(entries, vals):
        if not (0 <= i < rows and 0 <= j < rows):
            raise GraphInputError(f"entry ({i},{j}) out of range for n = {rows}")
        if i == j:
            if value == 0:
                warnings.warn(
                    f"explicit zero diagonal at {i}; treated as structurally nonzero",
                    stacklevel=2,
                )
            continue
        positions.add((i, j) if i < j else (j, i))
    return rows, frozenset(positions)
