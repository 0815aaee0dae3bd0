"""Turn fill-in or chordal-completion procedures into vertex cover procedures,
auditing every inequality of the supporting argument on the run's own numbers.

The pipeline colors a d-degree-bounded clique-free input with at most d
colors (Brooks' theorem), builds the colored gadget with block scale
b = ceil(1/eps), runs the plugged procedure on the gadget, and extracts the
full vertices, which are always a vertex cover.
The quality transfer is conditional: when the procedure's objective is
within the target factor alpha of the optimum (measured against the
constructive upper bound, a sound one-sided surrogate), the cover is within
1 + eps of optimal.  Audits are computed in exact rational arithmetic, so a
recorded inequality is true or false with no tolerance.

Both modes share one pipeline and differ only in the objective and the
ratio chain: fill-in mode measures the fill-in size k against
alpha = 1 + eps/3 (Natanzon, Shamir and Sharan), completion mode measures
the completed graph's edge count m + k against alpha = 1 + eps^2/(10 d^3)
(Agrawal, Klein and Ravi).  The gate is objective <= alpha*(base + ub), with
base 0 or m(H) and ub the constructive fill-in bound.

A "procedure" is any callable taking a ReducedInstance; fill-in mode expects
a valid fill-in of the gadget, as codes, an (m, 2) array or pairs
(``graph.normalize_edges`` reads all three), completion mode a chordal supergraph of the gadget.  Either is
checked once into a filled gadget (a fill-in by ``reduction._filled``), the
constructive bound is the gadget ``reduction._completed`` fills from an exact
cover, and every size is the edges a filled gadget adds.  Exact-backed and
heuristic-backed instantiations ship below.

The facts about G are computed and certified once per graph, not once per
run: G keeps its Brooks coloring, the checked parts of its colored gadget and
its exact cover, and the gadget graph H keeps its completion of that cover
(``Graph._kept``).  So the runs of both modes on one G share
one coloring check, one gadget check, one cover search and one split check,
and an exact-backed procedure's cover and completion are the ones the
pipeline reads for its bound.  The procedure's output is checked on every run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .chordal import find_hole
from .errors import CounterexampleError, GraphInputError
from .graph import Graph, _int_param, pairs_from_codes
from .reduction import ReducedInstance, _completed, _filled, _full_set, brooks_coloring
from .reduction import reduce_colored, split_completion
from .report import IneqRecord, check
from .solvers import exact_vertex_cover, greedy_game


@dataclass(frozen=True)
class TransferConfig:
    """Parameters of one transfer run; b defaults to ceil(1/eps)."""

    epsilon: Fraction
    d: int = 3
    b: int | None = None
    mode: str = "fillin"  # 'fillin' | 'completion'

    def __post_init__(self):
        eps = Fraction(self.epsilon)
        object.__setattr__(self, "epsilon", eps)
        if not (0 < eps < 1):
            raise GraphInputError("epsilon must lie strictly between 0 and 1")
        object.__setattr__(self, "d", _int_param("d", self.d))
        if self.d < 3:
            raise GraphInputError("d must be at least 3")
        if self.mode not in ("fillin", "completion"):
            raise GraphInputError(f"unknown mode {self.mode!r}")
        object.__setattr__(self, "b", math.ceil(1 / eps) if self.b is None else _int_param("b", self.b))
        if self.b < 1 / eps:
            raise GraphInputError("b must be at least 1/epsilon")

    @property
    def alpha(self) -> Fraction:
        if self.mode == "fillin":
            return 1 + self.epsilon / 3
        return 1 + self.epsilon**2 / (10 * self.d**3)

    @property
    def size_constant(self) -> Fraction:
        """c with |V(gadget)| <= c*n: the palette has at most d colors."""
        return (1 / self.epsilon + 1) * self.d + 1


@dataclass
class RatioAudit:
    """Per-inequality trace of one transfer run."""

    mode: str
    epsilon: Fraction
    b: int
    d: int
    q: int
    alpha: Fraction
    cover_size: int
    tau: int | None
    ratio: Fraction | None
    gate: bool  # procedure objective within alpha of the constructive bound
    fill_size: int = 0
    gadget_n: int = 0
    records: list[IneqRecord] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add(self, rec: IneqRecord) -> IneqRecord:
        self.records.append(rec)
        return rec

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)


def audit_report(audit: RatioAudit) -> str:
    """Stable text form: the parameters, one line per inequality with its exact sides and
    slack, and the outcome."""
    head = (
        f"transfer {audit.mode} eps={audit.epsilon} b={audit.b} d={audit.d} "
        f"q={audit.q} alpha={audit.alpha} gate={'yes' if audit.gate else 'no'}"
    )
    lines = [head]
    lines.extend(r.line() for r in audit.records)
    lines.append(
        f"cover={audit.cover_size} tau={audit.tau} ratio={audit.ratio} "
        f"=> {'PASS' if audit.passed else 'FAIL'}"
    )
    return "\n".join(lines)


def _checked_completion(inst: ReducedInstance, completed) -> Graph:
    """Completion mode's check: a chordal supergraph of the gadget."""
    if not isinstance(completed, Graph) or completed.n != inst.graph.n:
        raise GraphInputError("completion procedure must return a graph on the gadget's vertices")
    if (inst.graph.packed_rows() & ~completed.packed_rows()).any():
        raise GraphInputError("completion procedure dropped gadget edges (not a supergraph)")
    hole = find_hole(completed)
    if hole is not None:
        raise GraphInputError(f"completion procedure output is not chordal: hole {hole}")
    return completed


def _fillin_chain(audit: RatioAudit, n, ub, base, objective, isolated) -> None:
    """|C|/tau < (1+eps/3)(1+eps/2) <= 1+eps once the gate holds."""
    eps, alpha, tau, ratio = audit.epsilon, audit.alpha, audit.tau, audit.ratio
    if not (audit.gate and tau):
        return
    bn = audit.b * n
    half = Fraction(1, 2)
    audit.add(check("chain_cover_vs_alpha_opt", audit.cover_size, alpha * ub / bn, "<="))
    audit.add(
        check(
            "chain_opt_vs_split_bound",
            alpha * ub / bn,
            alpha * (bn * tau + math.comb(tau, 2)) / bn,
            "<=",
        )
    )
    audit.add(
        check(
            "chain_binomial_strict",
            bn * tau + math.comb(tau, 2),
            bn * tau + half * tau**2,
            "<",
        )
    )
    audit.add(
        check(
            "chain_identity",
            alpha * (bn * tau + half * tau**2) / bn,
            alpha * tau * (1 + Fraction(tau, 2 * bn)),
            "==",
        )
    )
    audit.add(check("chain_ratio_raw", ratio, alpha * (1 + Fraction(tau, 2 * bn)), "<"))
    audit.add(check("chain_tau_term", Fraction(tau, 2 * bn), eps / 2, "<="))
    audit.add(
        check(
            "chain_after_eps_half",
            alpha * (1 + Fraction(tau, 2 * bn)),
            alpha * (1 + eps / 2),
            "<=",
        )
    )
    target = (1 + eps / 3) * (1 + eps / 2)
    audit.add(check("final_ratio", ratio, target, "<"))
    audit.add(check("target_below_one_plus_eps", target, 1 + eps, "<="))


def _completion_chain(audit: RatioAudit, n, ub, m_h, m_completed, isolated) -> None:
    """Gadget edge bound, then |C|/tau < 1+eps for alpha = 1 + eps^2/(10 d^3)."""
    eps, alpha, tau, ratio = audit.epsilon, audit.alpha, audit.tau, audit.ratio
    b, d3 = audit.b, audit.d
    audit.add(check("gadget_edge_bound", m_h, b**2 * d3**2 * n**2, "<"))
    audit.add(check("fill_is_edge_difference", audit.fill_size, m_completed - m_h, "=="))
    if not (audit.gate and tau):
        return
    if isolated:
        audit.notes.append("isolated vertices present: side condition unavailable, chain skipped")
        return
    bn = b * n
    half = Fraction(1, 2)
    am1 = alpha - 1
    bound1 = am1 * m_h + alpha * ub
    audit.add(check("chain_fill_vs_alpha", audit.fill_size, bound1, "<="))
    bound2 = am1 * b**2 * d3**2 * n**2 + alpha * (bn * tau + half * tau**2)
    audit.add(check("chain_edge_substitution", bound1, bound2, "<"))
    rhs3 = am1 * b * d3**2 * n + alpha * tau + alpha * tau**2 / (2 * bn)
    audit.add(check("chain_identity", bound2 / bn, rhs3, "=="))
    audit.add(
        check(
            "chain_tau_le_n",
            alpha * tau**2 / (2 * bn),
            alpha * Fraction(tau, 2 * b),
            "<=",
        )
    )
    assembled = am1 * b * d3**2 * n + alpha * tau + alpha * Fraction(tau, 2 * b)
    audit.add(check("chain_cover_assembled", audit.cover_size, assembled, "<"))
    audit.add(
        check("chain_ratio_division", ratio, assembled / tau, "<")
    )
    audit.add(check("side_tau_above_n_over_2d", Fraction(n, 2 * d3), tau, "<"))
    after_side = 2 * am1 * b * d3**3 + alpha + alpha / (2 * b)
    audit.add(check("chain_after_side_condition", ratio, after_side, "<"))
    audit.add(check("chain_b_lower", alpha / (2 * b), alpha * eps / 2, "<="))
    after_b = 2 * am1 * b * d3**3 + alpha + alpha * eps / 2
    audit.add(check("chain_after_b_lower", ratio, after_b, "<"))
    grouped = am1 * (2 * b * d3**3 + 1 + eps / 2) + 1 + eps / 2
    audit.add(check("chain_regroup_identity", after_b, grouped, "=="))
    loose = am1 * (4 * d3**3 / eps + 1 + eps / 2) + 1 + eps / 2
    audit.add(check("chain_b_upper", grouped, loose, "<"))
    loosest = am1 * 5 * d3**3 / eps + 1 + eps / 2
    audit.add(check("chain_absorb_constants", loose, loosest, "<"))
    audit.add(check("chain_final_identity", loosest, 1 + eps, "=="))
    audit.add(check("final_ratio", ratio, 1 + eps, "<"))


def _transfer(graph: Graph, procedure, config: TransferConfig, mode, checked, chain):
    """The pipeline of both modes.  ``checked`` turns the procedure's output
    into a verified filled gadget with k edges more than H; the objective is
    k, or m(H) + k in completion mode, and ``chain`` adds the mode's ratio chain."""
    if config.mode != mode:
        raise GraphInputError(f"config mode must be {mode!r}")
    if graph.n < 1:
        raise GraphInputError("transfer needs a nonempty input graph")
    coloring = brooks_coloring(graph, config.d)  # checks the degree bound and clique-freeness
    inst = reduce_colored(graph, config.b, coloring)
    filled = checked(inst, procedure(inst))
    base = inst.graph.m if mode == "completion" else 0
    k = filled.m - inst.graph.m
    objective = base + k
    tau_result = exact_vertex_cover(graph)
    c_set = _full_set(inst, filled)
    tau = tau_result.size if tau_result.optimal else None
    ub = None if tau is None else _completed(inst, tau_result.vertices).m - inst.graph.m
    n, bn, alpha = graph.n, config.b * graph.n, config.alpha
    audit = RatioAudit(
        mode=mode,
        epsilon=config.epsilon,
        b=config.b,
        d=config.d,
        q=coloring.q,
        alpha=alpha,
        cover_size=len(c_set),
        tau=tau,
        ratio=Fraction(len(c_set), tau) if tau else None,
        gate=tau is not None and objective <= alpha * (base + ub),
        fill_size=k,
        gadget_n=inst.graph.n,
    )
    audit.add(check("cover_accounting", len(c_set), Fraction(k, bn), "<="))
    isolated = int((graph.degrees() == 0).sum())
    if tau is not None:
        audit.add(check("split_upper_bound", ub, bn * tau + math.comb(tau, 2), "<="))
        audit.add(check("tau_below_n", tau, n, "<"))
        if isolated == 0:
            audit.add(check("tau_degree_lower", Fraction(n, config.d + 1), tau, "<="))
        else:
            audit.notes.append(
                f"{isolated} isolated vertices: degree-counting lower bound skipped"
            )
        audit.add(check("gadget_size", inst.graph.n, config.size_constant * n, "<="))
        if audit.gate and tau == 0:
            audit.notes.append("degenerate: optimum cover is empty, ratio chain skipped")
    chain(audit, n, ub, base, objective, isolated)
    if not audit.passed:
        bad = next(r for r in audit.records if not r.passed)
        raise CounterexampleError(f"audit line failed: {bad.line()}")
    return c_set, audit


def vc_via_fillin(graph: Graph, procedure, config: TransferConfig):
    """Vertex cover from any fill-in procedure; returns (cover, RatioAudit).

    The audit records the unconditional accounting inequality, the optimum
    bounds, and, when the procedure lands within alpha = 1 + eps/3 of the
    constructive bound, the full conditional chain ending in
    |C|/tau < (1+eps/3)(1+eps/2) <= 1+eps.
    """
    return _transfer(graph, procedure, config, "fillin", _filled, _fillin_chain)


def vc_via_completion(graph: Graph, procedure, config: TransferConfig):
    """Vertex cover from any chordal-completion procedure.

    The procedure must return a chordal supergraph of the gadget; the
    objective is its edge count.  The audit additionally bounds the gadget's
    edge count by (b*d*n)^2-style counting and follows the full conditional
    chain for alpha = 1 + eps^2/(10 d^3) down to |C|/tau < 1 + eps.
    """
    return _transfer(
        graph, procedure, config, "completion", _checked_completion, _completion_chain
    )


# -- shipped procedure instantiations ---------------------------------------------


def exact_backed_fillin(inst: ReducedInstance) -> np.ndarray:
    """Fill-in codes from an exact cover of the original graph (the constructive optimum bound)."""
    return split_completion(inst, exact_vertex_cover(inst.original).vertices)


def heuristic_backed_fillin(strategy: str = "min-fill"):
    """Fill-in procedure running the named greedy heuristic on the gadget; its
    fill-in is a set of Python-int pairs, for callers that read it pair by pair."""

    def run(inst: ReducedInstance) -> frozenset:
        return pairs_from_codes(greedy_game(inst.graph, strategy)[1], inst.graph.n)

    return run


def exact_backed_completion(inst: ReducedInstance) -> Graph:
    """The split completion from an exact cover of the original graph."""
    return _completed(inst, exact_vertex_cover(inst.original).vertices)


def heuristic_backed_completion(strategy: str = "min-fill"):
    """Completion procedure: the gadget plus the named greedy heuristic's fill codes."""

    def run(inst: ReducedInstance) -> Graph:
        return inst.graph.add_edges(greedy_game(inst.graph, strategy)[1])

    return run
