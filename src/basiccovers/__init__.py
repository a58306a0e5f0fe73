"""Exact combinatorics of basic vertex covers of finite simple graphs:
cover enumeration and Hilbert counts, the bipartite cover poset with its
straightening laws, the graphical dimension, and the right-edge
projection with its Cohen-Macaulay and regularity reports."""

from .budget import SearchBudget, default_budget
from .covers import (
    Cover,
    HilbertData,
    enumerate_basic_covers,
    hilbert_function,
    is_basic,
    is_k_cover,
    krull_dimension_estimate,
    reconstruct_from_low_half,
)
from .gdim import (
    FreeParameterCertificate,
    GdimBounds,
    GdimResult,
    gdim_bounds,
    graphical_dimension,
    is_free_parameter_set,
    tree_gdim,
)
from .graph import (
    Graph,
    bipartition,
    enumerate_perfect_matchings,
    induced_matching_number,
    is_connected,
    matching_number,
    paired_domination_number,
    parse_graph,
)
from .poset import CoverPoset, build_poset, cohen_macaulay_report
from .projection import (
    ProjectionReport,
    cm_equivalence_report,
    project,
    regularity_report,
    right_edges,
    satisfies_wsc,
)

__version__ = "0.1.0"

__all__ = [
    "Cover",
    "CoverPoset",
    "FreeParameterCertificate",
    "GdimBounds",
    "GdimResult",
    "Graph",
    "HilbertData",
    "ProjectionReport",
    "SearchBudget",
    "bipartition",
    "build_poset",
    "cm_equivalence_report",
    "cohen_macaulay_report",
    "default_budget",
    "enumerate_basic_covers",
    "enumerate_perfect_matchings",
    "gdim_bounds",
    "graphical_dimension",
    "hilbert_function",
    "induced_matching_number",
    "is_basic",
    "is_connected",
    "is_free_parameter_set",
    "is_k_cover",
    "krull_dimension_estimate",
    "matching_number",
    "paired_domination_number",
    "parse_graph",
    "project",
    "reconstruct_from_low_half",
    "regularity_report",
    "right_edges",
    "satisfies_wsc",
    "tree_gdim",
]
