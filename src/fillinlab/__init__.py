"""Laboratory for the minimum fill-in / chordal completion problem.

Ships a graph core stored as packed bit rows, chordality recognition with
checkable certificates, desk-scale exact oracles, the vertex-cover
gadget reductions with certificate maps in both directions, exact rational
audits of the approximation-transfer pipelines, and a bridge to symbolic
factorization of sparse symmetric matrix patterns.
"""

from .chordal import (
    HoleCertificate,
    PeoCertificate,
    check_hole,
    check_peo,
    elimination_fill_codes,
    find_hole,
    is_chordal,
    is_split,
    mcs_ordering,
    verify_fillin,
)
from .errors import CounterexampleError, GraphInputError, ResourceLimitError
from .graph import Graph, load_dimacs, save_dimacs
from .matrix import (
    SparsePattern,
    fill_equivalence_check,
    graph_from_pattern,
    load_matrix_market,
    save_matrix_market,
    symbolic_fill_codes,
)
from .reduction import (
    Coloring,
    ReducedInstance,
    brooks_coloring,
    decision_equivalence_check,
    full_vertices,
    load_instance,
    reduce_colored,
    reduce_primitive,
    save_instance,
    split_completion,
    strip_clique_components,
    verify_sandwich,
)
from .solvers import (
    BranchFillinResult,
    CoverResult,
    exact_fillin_branch,
    exact_fillin_ordering_oracle,
    exact_vertex_cover,
    greedy_game,
    is_vertex_cover,
)
from .transfer import (
    RatioAudit,
    TransferConfig,
    audit_report,
    exact_backed_completion,
    exact_backed_fillin,
    heuristic_backed_completion,
    heuristic_backed_fillin,
    vc_via_completion,
    vc_via_fillin,
)

__version__ = "0.1.0"
