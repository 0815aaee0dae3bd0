"""Deterministic instance generators for corpora and experiments.

Every generator takes an explicit ``numpy.random.Generator`` (or a seed), so
identical seeds reproduce identical graphs byte for byte.
"""

from __future__ import annotations

import numpy as np

from .errors import GraphInputError
from .graph import Graph, _count_param, _int_param


def _rng(seed_or_rng) -> np.random.Generator:
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(seed_or_rng)


def gnp(n: int, p: float, seed) -> Graph:
    """Erdos-Renyi G(n, p)."""
    n = _count_param("n", n)
    if not (0 <= p <= 1):
        raise GraphInputError("edge probability must lie in [0, 1]")
    rng = _rng(seed)
    iu = np.triu_indices(n, 1)
    mask = rng.random(iu[0].size) < p
    edges = list(zip(iu[0][mask].tolist(), iu[1][mask].tolist()))
    return Graph.build(n, edges)


def random_regular(n: int, d: int, seed) -> Graph:
    """Random d-regular graph by the pairing model with rejection, up to
    1000 pairings.

    Infeasible parameter pairs (n*d odd, or d >= n) are rejected outright;
    the degree sequence of the output is verified before returning.
    """
    n, d = _count_param("n", n), _count_param("d", d)
    if (n * d) % 2 == 1:
        raise GraphInputError(f"no {d}-regular graph on {n} vertices: n*d is odd")
    if d >= n and n > 0:
        raise GraphInputError(f"degree {d} impossible on {n} vertices")
    rng = _rng(seed)
    stubs = np.repeat(np.arange(n), d)
    for _ in range(1000):
        perm = rng.permutation(stubs)
        pairs = perm.reshape(-1, 2)
        if (pairs[:, 0] == pairs[:, 1]).any():
            continue
        norm = {(min(a, b), max(a, b)) for a, b in pairs.tolist()}
        if len(norm) != pairs.shape[0]:
            continue  # multi-edge
        g = Graph.build(n, norm)
        if not (g.degrees() == d).all():
            raise GraphInputError("pairing model produced a non-regular graph")
        return g
    raise GraphInputError(
        f"could not sample a simple {d}-regular graph on {n} vertices "
        "in 1000 tries"
    )


def cycle(n: int) -> Graph:
    n = _int_param("n", n)
    if n < 3:
        raise GraphInputError("a cycle needs at least 3 vertices")
    return Graph.build(n, [(i, (i + 1) % n) for i in range(n)])


def grid(rows: int, cols: int) -> Graph:
    """rows x cols grid; vertex (r, c) is r*cols + c."""
    rows, cols = _int_param("rows", rows), _int_param("cols", cols)
    if rows < 1 or cols < 1:
        raise GraphInputError("grid dimensions must be positive")
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return Graph.build(rows * cols, edges)


def random_subcubic(n: int, seed) -> Graph:
    """Random graph with maximum degree 3 on at most n vertices.

    Shuffled pairs of 0..n-1 are added while both ends have degree below 3,
    up to max(n, floor(3n/2) - r) edges for a random r in 0..floor(n/3).  Then
    each isolated vertex, by id, is joined to a random vertex of degree below 3;
    once none is left, the isolated vertices stay isolated (always so when n = 1).  A K_4 in a subcubic graph is a whole
    component, and every sampled one is removed and the rest renumbered in
    order: the result has n - 4j vertices for j such components, so
    ``random_subcubic(4, 1)`` is the graph on 0 vertices.  Useful for
    transfer corpora, which need a subcubic graph without K_4.
    """
    n = _count_param("n", n)
    rng = _rng(seed)
    target_edges = max(n, (3 * n) // 2 - rng.integers(0, max(1, n // 3 + 1)))
    deg = np.zeros(n, dtype=np.int64)
    edges: set[tuple[int, int]] = set()
    candidates = [(i, j) for i in range(n) for j in range(i + 1, n)]
    rng.shuffle(candidates)
    for u, v in candidates:
        if len(edges) >= target_edges:
            break
        if deg[u] < 3 and deg[v] < 3:
            edges.add((u, v))
            deg[u] += 1
            deg[v] += 1
    # attach any isolated vertex to a low-degree partner
    for v in range(n):
        if deg[v] == 0:
            partners = [u for u in range(n) if u != v and deg[u] < 3]
            if not partners:
                break
            u = int(partners[int(rng.integers(0, len(partners)))])
            edges.add((min(u, v), max(u, v)))
            deg[u] += 1
            deg[v] += 1
    g = Graph.build(n, edges)
    # a K_4 in a subcubic graph is a component; rebuild without it if sampled
    from .reduction import find_forbidden_clique, strip_clique_components

    if find_forbidden_clique(g, 3) is not None:
        g, _, _ = strip_clique_components(g, 3)
    return g
