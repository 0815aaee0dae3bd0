#!/usr/bin/env python3
"""From sparse symmetric matrices to graphs and back.

The off-diagonal pattern of a symmetric matrix is a graph (one vertex per
row); symbolic Gaussian elimination under a pivot ordering introduces
nonzeros exactly where the graph elimination game adds edges.  Orderings
matter: an arrow matrix factorized hub-first goes fully dense, while
leaves-first keeps it exactly sparse.
"""

import tempfile
from pathlib import Path

from fillinlab import (
    fill_equivalence_check,
    greedy_game,
    load_matrix_market,
    save_matrix_market,
    symbolic_fill_codes,
)
from fillinlab.generate import grid
from fillinlab.matrix import arrow_pattern, pattern_from_graph, tridiagonal_pattern

print("=" * 64)
print("1. Orderings decide the fill of an arrow pattern (n = 6)")
print("=" * 64)
arrow = arrow_pattern(6)
for name, order in [("hub first", [0, 1, 2, 3, 4, 5]), ("leaves first", [1, 2, 3, 4, 5, 0])]:
    fill, total = symbolic_fill_codes(arrow, order)
    print(f"  {name:>12}: fill = {fill.size:2d}, nonzeros after = {total}")

print()
print("=" * 64)
print("2. Matrix Market round trip")
print("=" * 64)
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "tri.mtx"
    save_matrix_market(tridiagonal_pattern(5), path)
    print("  " + path.read_text().replace("\n", "\n  ").rstrip())
    loaded = load_matrix_market(path)
    fill, total = symbolic_fill_codes(loaded, range(5))
    print(f"  natural ordering on the tridiagonal pattern: fill = {fill.size}")

print()
print("=" * 64)
print("3. Matrix-side and graph-side fill agree on a 4x4 grid")
print("=" * 64)
g = grid(4, 4)
pattern = pattern_from_graph(g)
rows = []
for name, order in [
    ("natural", list(range(16))),
    ("min-degree", greedy_game(g, "min-degree")[0].tolist()),
    ("min-fill", greedy_game(g, "min-fill")[0].tolist()),
]:
    fill, total = symbolic_fill_codes(pattern, order)
    assert fill_equivalence_check(pattern, order)
    rows.append((name, fill.size, total))
width = max(len(r[0]) for r in rows)
for name, nfill, total in rows:
    print(f"  {name:>{width}}: fill = {nfill:3d}, nonzeros after = {total}")
print("  (both elimination implementations produced identical fill sets)")
print()
print(f"  grid graph becomes chordal with the min-fill ordering's"
      f" {rows[-1][1]} added edges")
