#!/usr/bin/env python3
"""The vertex-cover gadget and its size window.

Attaching a block of n^2 fresh vertices per original vertex (each block
non-adjacent to its own vertex only) and completing the new vertices into a
clique yields a graph whose minimum fill-in is pinned between tau*n^2 and
(tau+1)*n^2, where tau is the minimum vertex cover size of the input.  Both
directions are constructive:

* cover -> fill-in: complete cover + clique into one clique (a split graph);
* fill-in -> cover: collect the vertices whose missing block edges were all
  added ("full" vertices), which must cover every edge.
"""

import numpy as np

from fillinlab import (
    Graph,
    exact_fillin_ordering_oracle,
    exact_vertex_cover,
    full_vertices,
    greedy_game,
    reduce_primitive,
    split_completion,
    verify_sandwich,
)

print("=" * 64)
print("1. The smallest interesting case: a single edge")
print("=" * 64)
k2 = Graph.build(2, [(0, 1)])
inst = reduce_primitive(k2)
tau = exact_vertex_cover(k2).size
phi = len(exact_fillin_ordering_oracle(inst.graph))
print(f"  gadget: {inst.graph.n} vertices, {inst.graph.m} edges (n^3+n, blocks of n^2)")
print(f"  tau = {tau}; window is [{tau * 4}, {(tau + 1) * 4})")
print(f"  exact minimum fill of the gadget: {phi}")
assert tau * 4 <= phi < (tau + 1) * 4

print()
print("=" * 64)
print("2. Certificates map both ways")
print("=" * 64)
cover = exact_vertex_cover(k2).vertices
fill = split_completion(inst, cover)
print(f"  cover {sorted(cover)} -> fill-in of size {len(fill)} (split completion)")
back = full_vertices(inst, fill)
print(f"  fill-in -> full vertices {sorted(back)} (recovered the cover)")
assert back == cover

print()
print("=" * 64)
print("3. The window mechanism on a bigger input (n = 5)")
print("=" * 64)
rng = np.random.default_rng(2)
g = Graph.build(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])
inst5 = reduce_primitive(g)
tau5 = exact_vertex_cover(g).size
print(f"  gadget on {inst5.graph.n} vertices; tau = {tau5}, deficit = 25")
for strategy in ("min-degree", "min-fill"):
    fill = greedy_game(inst5.graph, strategy)[1]
    full = full_vertices(inst5, fill)
    print(
        f"  {strategy:>10}: |fill| = {len(fill):4d} >= "
        f"{len(full)} full vertices * 25 = {len(full) * 25:3d} >= tau*25 = {tau5 * 25}"
    )

print()
print("=" * 64)
print("4. The full audit in one call")
print("=" * 64)
report = verify_sandwich(g, rng=rng)
for line in report.summary_lines():
    print("  " + line)
assert report.passed
