"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  All tolerances are exact integer or exact rational comparisons;
nothing here is approximate.
"""

import math
from fractions import Fraction

import numpy as np

from fillinlab.chordal import (
    check_hole,
    check_peo,
    elimination_fill_codes,
    is_chordal,
    verify_fillin,
)
from fillinlab.generate import gnp, random_subcubic
from fillinlab.graph import Graph
from fillinlab.matrix import (
    arrow_pattern,
    fill_equivalence_check,
    pattern_from_graph,
    symbolic_fill_codes,
    tridiagonal_pattern,
)
from fillinlab.reduction import (
    brooks_coloring,
    decision_equivalence_check,
    full_vertices,
    reduce_colored,
    reduce_primitive,
    split_completion,
    verify_sandwich,
)
from fillinlab.solvers import (
    exact_fillin_branch,
    exact_fillin_ordering_oracle,
    exact_vertex_cover,
    greedy_game,
    is_vertex_cover,
)
from fillinlab.transfer import (
    TransferConfig,
    exact_backed_completion,
    exact_backed_fillin,
    heuristic_backed_fillin,
    vc_via_completion,
    vc_via_fillin,
)

from .oracles import (
    all_labeled_graphs,
    edge_set,
    is_chordal_brute,
    iso_classes_4,
    min_vertex_cover_brute,
)

from .conftest import bridged_cubic


def _random_cover(graph, rng):
    cover = {int(v) for v in range(graph.n) if rng.random() < 0.6}
    for u, v in graph.edge_list():
        if u not in cover and v not in cover:
            cover.add(u)
    return cover


def test_criterion_1_exact_sandwich_window():
    """Exact window tau*4 <= phi(H) < (tau+1)*4 on every labeled 2-vertex
    graph via the ordering oracle on the 10-vertex gadget, plus the window
    mechanism on one representative of each of the 11 isomorphism classes of
    4-vertex graphs (whose gadgets are beyond the oracle)."""
    oracle_checked = 0
    for n, edge_choices in ((1, [set()]), (2, [set(), {(0, 1)}])):
        for edges in edge_choices:
            g = Graph.build(n, edges)
            inst = reduce_primitive(g)
            tau = exact_vertex_cover(g).size
            assert tau == min_vertex_cover_brute(n, edges)
            phi = len(exact_fillin_ordering_oracle(inst.graph))
            assert tau * n * n <= phi < (tau + 1) * n * n
            oracle_checked += 1
    reps = iso_classes_4()
    assert len(reps) == 11
    rng = np.random.default_rng(11)
    for edges in reps:
        g = Graph.build(4, edges)
        inst = reduce_primitive(g)
        tau = exact_vertex_cover(g).size
        assert tau == min_vertex_cover_brute(4, edges)
        constructed = split_completion(inst, exact_vertex_cover(g).vertices)
        assert len(constructed) < (tau + 1) * 16
        fills = {
            "min-degree": greedy_game(inst.graph, "min-degree")[1],
            "min-fill": greedy_game(inst.graph, "min-fill")[1],
            "random": elimination_fill_codes(inst.graph, rng.permutation(inst.graph.n)),
            "constructed": constructed,
        }
        for fill in fills.values():
            full = full_vertices(inst, fill)
            assert len(fill) >= len(full) * 16 >= tau * 16
    print(
        f"\nACCEPTANCE 1 (exact sandwich window): PASS "
        f"[oracle windows: {oracle_checked}, 4-vertex classes: {len(reps)}]"
    )


def test_criterion_2_property_window():
    """On >= 200 random graphs with n in 3..8: the constructive bound stays
    below the window top, and every heuristic fill-in respects the
    accounting and window lower bounds, all in exact integers."""
    rng = np.random.default_rng(202)
    sizes = [3] * 40 + [4] * 40 + [5] * 35 + [6] * 35 + [7] * 30 + [8] * 20
    assert len(sizes) == 200
    for n in sizes:
        g = gnp(n, float(rng.uniform(0.2, 0.8)), rng)
        inst = reduce_primitive(g)
        deficit = n * n
        res = exact_vertex_cover(g)
        assert res.optimal
        tau = res.size
        constructed = split_completion(inst, res.vertices)
        assert len(constructed) < (tau + 1) * deficit
        for strategy in ("min-degree", "min-fill"):
            fill = greedy_game(inst.graph, strategy)[1]
            full = full_vertices(inst, fill)
            assert len(fill) >= len(full) * deficit
            assert len(full) * deficit >= tau * deficit
    print(f"\nACCEPTANCE 2 (property window): PASS [instances: {len(sizes)}]")


def test_criterion_3_propositions_soundness():
    """>= 10^4 (instance, fill-in) trials over both constructions: the
    full-vertex extraction always returns a verified vertex cover (the
    extraction itself re-verifies and raises on any failure)."""
    rng = np.random.default_rng(303)
    trials = 0
    kinds = {"primitive": 0, "colored": 0}
    instances = []
    for n in (2, 3, 4):
        for _ in range(16):
            g = gnp(n, float(rng.uniform(0.1, 0.9)), rng)
            instances.append(reduce_primitive(g))
    for n in range(3, 9):
        for b in (1, 2):
            for _ in range(16):
                g = random_subcubic(n, rng)
                if g.n < 1:
                    continue
                coloring = brooks_coloring(g, 3)
                instances.append(reduce_colored(g, b, coloring))
    per_instance = 50
    for inst in instances:
        H = inst.graph
        fills = [
            elimination_fill_codes(H, rng.permutation(H.n))
            for _ in range(per_instance - 2)
        ]
        fills.append(greedy_game(H, "min-degree")[1])
        fills.append(split_completion(inst, _random_cover(inst.original, rng)))
        for fill in fills:
            full = full_vertices(inst, fill)
            assert is_vertex_cover(inst.original, full)
            trials += 1
            kinds[inst.kind] += 1
    assert trials >= 10_000
    assert kinds["primitive"] > 0 and kinds["colored"] > 0
    print(
        f"\nACCEPTANCE 3 (propositions soundness): PASS "
        f"[trials: {trials}, primitive: {kinds['primitive']}, colored: {kinds['colored']}]"
    )


def test_criterion_4_decision_equivalence():
    """>= 200 random (G, c) pairs with n <= 8: when tau <= c the constructed
    fill-in meets the (c+1)n^2-1 bound; when tau > c no produced fill-in
    comes under the bound, and the extraction check would falsify any that
    did."""
    rng = np.random.default_rng(404)
    sizes = [2] * 30 + [3] * 35 + [4] * 35 + [5] * 30 + [6] * 30 + [7] * 25 + [8] * 15
    assert len(sizes) == 200
    small_side = big_side = 0
    for n in sizes:
        g = gnp(n, float(rng.uniform(0.15, 0.85)), rng)
        c = int(rng.integers(0, n + 1))
        inst = reduce_primitive(g)
        bound = (c + 1) * n * n - 1
        res = exact_vertex_cover(g)
        assert res.optimal
        tau = res.size
        if tau <= c:
            constructed = split_completion(inst, res.vertices)
            assert len(constructed) <= bound
            assert decision_equivalence_check(g, c, constructed, inst).passed
            small_side += 1
        else:
            fills = {
                "min-degree": greedy_game(inst.graph, "min-degree")[1],
                "min-fill": greedy_game(inst.graph, "min-fill")[1],
                "random": elimination_fill_codes(inst.graph, rng.permutation(inst.graph.n)),
            }
            for fill in fills.values():
                assert len(fill) > bound
                assert decision_equivalence_check(g, c, fill, inst).passed
            big_side += 1
    assert small_side and big_side
    print(
        f"\nACCEPTANCE 4 (decision equivalence): PASS "
        f"[pairs: {len(sizes)}, tau<=c: {small_side}, tau>c: {big_side}]"
    )


def test_criterion_5_cover_bound_and_edge_bound():
    """Every colored instance in the corpus, bridged cubic inputs included,
    is colored with at most d colors and satisfies the cover-based upper
    bound |split_completion| <= b n tau + C(tau,2) and the edge bound
    |E(H)| < b^2 d^2 n^2 exactly."""
    rng = np.random.default_rng(505)
    d = 3
    corpus = []
    prism = Graph.build(
        6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)]
    )
    for b in (1, 2):
        corpus.append((prism, b))
    for n in range(3, 9):
        for b in (1, 2):
            for _ in range(6):
                g = random_subcubic(n, rng)
                if g.n >= 1:
                    corpus.append((g, b))
    bridged = bridged_cubic()
    perm = np.random.default_rng(5050).permutation(bridged.n)
    relabelled = Graph.build(
        bridged.n, [(int(perm[u]), int(perm[v])) for u, v in bridged.edge_list()]
    )
    for g in (bridged, relabelled):
        for b in (1, 2):
            corpus.append((g, b))
    checked = 0
    for g, b in corpus:
        coloring = brooks_coloring(g, d)
        assert coloring.q <= d
        inst = reduce_colored(g, b, coloring)
        res = exact_vertex_cover(g)
        assert res.optimal
        tau = res.size
        fill = split_completion(inst, res.vertices)
        n = g.n
        assert len(fill) <= b * n * tau + math.comb(tau, 2)
        assert inst.graph.m < b**2 * d**2 * n**2
        checked += 1
    assert checked >= 60
    print(f"\nACCEPTANCE 5 (cover bound and edge bound): PASS [instances: {checked}]")


def test_criterion_6_transfer_audits():
    """Exact-backed transfer achieves |C| = tau on >= 100 bounded-degree
    instances for d = 3 and eps in {1/2, 1/4}, with every chain line true;
    heuristic-backed runs never violate the unconditional accounting
    inequality."""
    rng = np.random.default_rng(606)
    graphs = []
    while len(graphs) < 100:
        n = int(rng.choice([6, 8, 10, 12]))
        g = random_subcubic(n, rng)
        if g.n >= 4 and g.m >= 2 and int(g.degrees().min()) >= 1:
            graphs.append(g)
    exact_runs = heuristic_runs = 0
    for eps in (Fraction(1, 2), Fraction(1, 4)):
        fill_cfg = TransferConfig(epsilon=eps, d=3, mode="fillin")
        comp_cfg = TransferConfig(epsilon=eps, d=3, mode="completion")
        for g in graphs:
            cover, audit = vc_via_fillin(g, exact_backed_fillin, fill_cfg)
            assert audit.passed and audit.gate
            assert len(cover) == audit.tau
            assert any(r.name == "final_ratio" for r in audit.records)
            cover, audit = vc_via_completion(g, exact_backed_completion, comp_cfg)
            assert audit.passed and audit.gate
            assert len(cover) == audit.tau
            assert any(r.name == "final_ratio" for r in audit.records)
            exact_runs += 2
            cover, audit = vc_via_fillin(
                g, heuristic_backed_fillin("min-fill"), fill_cfg
            )
            acc = next(r for r in audit.records if r.name == "cover_accounting")
            assert acc.passed and audit.passed
            heuristic_runs += 1
    assert exact_runs >= 2 * 2 * 100 and heuristic_runs >= 200
    print(
        f"\nACCEPTANCE 6 (transfer audits): PASS "
        f"[graphs: {len(graphs)}, exact runs: {exact_runs}, heuristic runs: {heuristic_runs}]"
    )


def test_criterion_7_oracle_cross_agreement():
    """Branch solver equals the ordering oracle wherever the optimum is at
    most 6 (n <= 8); chordality recognition agrees with brute-force hole
    enumeration on every labeled graph with n <= 5 plus 10^4 random graphs
    with n in {6, 7}, certificates included."""
    rng = np.random.default_rng(707)
    agreements = 0
    for _ in range(150):
        n = int(rng.integers(4, 9))
        g = gnp(n, float(rng.uniform(0.2, 0.6)), rng)
        phi = len(exact_fillin_ordering_oracle(g))
        if phi <= 6:
            res = exact_fillin_branch(g, 6, node_budget=2_000_000)
            assert res.status == "found" and len(res.fillin) == phi
            assert verify_fillin(g, res.fillin)
            agreements += 1
    assert agreements >= 100

    labeled = 0
    for n in range(0, 6):
        for edges in all_labeled_graphs(n):
            g = Graph.build(n, edges)
            ok, cert = is_chordal(g)
            assert ok == is_chordal_brute(n, edges)
            if ok:
                assert check_peo(g, cert.order)
            else:
                assert check_hole(g, cert.cycle)
            labeled += 1
    assert labeled == 1100  # covers all 2^C(n,2) labeled graphs up to n = 5

    random_checked = 0
    for _ in range(10_000):
        n = int(rng.integers(6, 8))
        g = gnp(n, float(rng.uniform(0.1, 0.9)), rng)
        ok, cert = is_chordal(g)
        assert ok == is_chordal_brute(n, edge_set(g))
        if ok:
            assert check_peo(g, cert.order)
        else:
            assert check_hole(g, cert.cycle)
        random_checked += 1
    print(
        f"\nACCEPTANCE 7 (oracle cross-agreement): PASS "
        f"[branch agreements: {agreements}, labeled: {labeled}, random: {random_checked}]"
    )


def test_criterion_8_matrix_correspondence():
    """Symbolic factorization and the graph elimination game produce
    identical fill sets on 100 random patterns (n <= 10) x 100 random
    orderings each; tridiagonal and arrow patterns reproduce their forced
    zero-fill orderings."""
    rng = np.random.default_rng(808)
    checks = 0
    for _ in range(100):
        n = int(rng.integers(2, 11))
        pattern = pattern_from_graph(gnp(n, float(rng.uniform(0.1, 0.9)), rng))
        for _ in range(100):
            order = rng.permutation(n).tolist()
            assert fill_equivalence_check(pattern, order)
            checks += 1
    assert checks == 10_000

    for n in (3, 5, 8):
        tri = tridiagonal_pattern(n)
        fill, total = symbolic_fill_codes(tri, range(n))
        assert fill.size == 0 and total == 2 * (n - 1) + n
        arrow = arrow_pattern(n)
        leaves_first = list(range(1, n)) + [0]
        assert symbolic_fill_codes(arrow, leaves_first)[0].size == 0
        center_first = list(range(n))
        assert symbolic_fill_codes(arrow, center_first)[0].size == math.comb(n - 1, 2)
    print(f"\nACCEPTANCE 8 (matrix correspondence): PASS [equivalence checks: {checks}]")
