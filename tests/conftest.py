import tracemalloc

import numpy as np
import pytest

from fillinlab.graph import Graph
from fillinlab.matrix import SparsePattern


def named_graphs():
    return {
        "c4": Graph.build(4, [(0, 1), (1, 2), (2, 3), (3, 0)]),
        "c5": Graph.build(5, [(i, (i + 1) % 5) for i in range(5)]),
        "c6": Graph.build(6, [(i, (i + 1) % 6) for i in range(6)]),
        "k4": Graph.build(4, [(i, j) for i in range(4) for j in range(i + 1, 4)]),
        "k5": Graph.build(5, [(i, j) for i in range(5) for j in range(i + 1, 5)]),
        "p3": Graph.build(3, [(0, 1), (1, 2)]),
        "star5": Graph.build(6, [(0, i) for i in range(1, 6)]),
        "2k2": Graph.build(4, [(0, 1), (2, 3)]),
        "prism": Graph.build(
            6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)]
        ),
        "petersen": Graph.build(
            10,
            [
                (0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
                (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
                (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
            ],
        ),
    }


def bridged_cubic():
    """Two sides, each K4 minus the edge (a, b) plus a new vertex joined to a
    and b, with the two new vertices joined by a bridge: a cubic graph on 10
    vertices in which every way of giving two nonadjacent neighbours of one
    vertex the same colour disconnects the rest."""
    side = [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4), (1, 4)]
    return Graph.build(10, side + [(u + 5, v + 5) for u, v in side] + [(4, 9)])


def all_zero_colors(adj, vertices, colors):
    """A broken stand-in for ``reduction._greedy_colors``: color 0 for every vertex."""
    for v in vertices:
        colors[v] = 0


def bridge_chain_cubic():
    """Three K4s minus an edge in a row, joined by two bridges (the end ones
    through a new vertex each): a cubic graph on 14 vertices, labelled so that
    a plain greedy pass in vertex order needs 4 colors."""
    return Graph.build(14, [
        (0, 1), (0, 3), (0, 6), (1, 3), (1, 6), (2, 8), (2, 10), (2, 13), (3, 7),
        (4, 5), (4, 9), (4, 12), (5, 7), (5, 12), (6, 7), (8, 9), (8, 11), (9, 12),
        (10, 11), (10, 13), (11, 13),
    ])


@pytest.fixture(scope="session")
def graphs():
    return named_graphs()


@pytest.fixture
def rng():
    return np.random.default_rng(0xF111)


def random_graph(rng, n, p=None):
    if p is None:
        p = float(rng.uniform(0.15, 0.85))
    from fillinlab.generate import gnp

    return gnp(n, p, rng)


def grid3d_pattern(k):
    """The k x k x k grid, rows numbered x-fastest."""
    n = k**3
    idx = np.arange(n).reshape(k, k, k)
    lo = np.concatenate([np.take(idx, range(k - 1), axis=a).ravel() for a in range(3)])
    hi = np.concatenate([np.take(idx, range(1, k), axis=a).ravel() for a in range(3)])
    return SparsePattern(n, zip(lo.tolist(), hi.tolist()))


def traced_peak(fn, *args):
    """(result, tracemalloc peak in bytes) of one call."""
    tracemalloc.start()
    try:
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def count_degree_steps(monkeypatch, calls):
    """Count min-degree's steps that make no ``_eliminate_vertex`` call into ``calls``.

    ``calls["opening"]`` adds the steps ``solvers._degree_opening`` reports.
    ``calls["twins"]`` adds, for each ``_eliminate_vertex`` call of the packed
    phase short of the clique tail, the neighbours whose recounted alive degree
    is one below the eliminated vertex's: the twins that the game records with
    no call of their own.  They are recounted from the call's rows and alive
    mask by NumPy alone, so no ``_bits`` counter sees it.  Install it after any
    counter of ``_eliminate_vertex`` calls.
    """
    from fillinlab import solvers

    step, opening = solvers._eliminate_vertex, solvers._degree_opening

    def eliminate(rows, alive, v, n):
        idx, near = step(rows, alive, v, n)
        if idx.size < np.bitwise_count(alive).sum():
            recount = np.bitwise_count(near & alive).sum(axis=1) - 1
            calls["twins"] += int((recount == idx.size - 1).sum())
        return idx, near

    def opened(*args):
        played = opening(*args)
        calls["opening"] += played[0]
        return played

    monkeypatch.setattr(solvers, "_eliminate_vertex", eliminate)
    monkeypatch.setattr(solvers, "_degree_opening", opened)
