"""Right edges, the weak square condition, and the projection that collapses
complete-bipartite blocks of right edges to single vertices.

An edge {i,j} is right when every neighbour of i is adjacent to every
neighbour of j; equivalently every basic k-cover sums to exactly k across
it.  The right-edge subgraph decomposes into complete bipartite blocks
plus isolated vertices, the projection contracts each block side to one
vertex, and basic covers transport bijectively across the contraction.
On top of the projection sit the two summary reports: the equivalence of
the combinatorial Cohen-Macaulay certificates for WSC graphs, and the
regularity bounds for the edge ideal.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .budget import SearchBudget, default_budget
from .complexes import independence_complex, is_shellable, is_strongly_connected
from .covers import Cover
from .errors import (
    NotAnEdge,
    NotConstantOnBlock,
    NotWsc,
    SearchBudgetExceeded,
    StructureViolation,
)
from .gdim import graphical_dimension
from .graph import (
    Edge,
    Graph,
    _bits,
    _neighbour_masks,
    _perfect_matchings,
    _two_colourings,
    _vertex_mask,
    induced_matching_number,
    is_bipartite,
)


def is_right_edge(g: Graph, e: Edge) -> bool:
    """True iff for all neighbours i' of i and j' of j the pair {i',j'} is an
    edge: every neighbour of j other than i lies in N(i') for each
    neighbour i' of i other than j.  A common neighbour i' = j' refutes
    rightness, since i' is not its own neighbour."""
    i, j = e
    if not g.has_edge(i, j):
        raise NotAnEdge(f"{{{i},{j}}} is not an edge")
    nbr = g.neighbour_masks
    rj = nbr[j] ^ 1 << i
    return all(not rj & ~nbr[ip] for ip in _bits(nbr[i] ^ 1 << j))


def right_edges(g: Graph) -> tuple[Edge, ...]:
    return tuple(e for e in g.edges if is_right_edge(g, e))


def _right_masks(g: Graph) -> tuple[int, ...]:
    """The neighbour masks of the right-edge subgraph."""
    return _neighbour_masks(g.vertex_count, right_edges(g))


def satisfies_wsc(g: Graph) -> bool:
    """Weak square condition: every vertex lies on a right edge."""
    return all(_right_masks(g)[1:])


@dataclass(frozen=True)
class ZeroOneGraph:
    """The block decomposition of the right-edge subgraph: complete
    bipartite pieces (A_i, B_i) with |A_i| <= |B_i|, ordered by their
    lowest vertex, and the vertices on no right edge as singletons."""

    pairs: tuple[tuple[frozenset[int], frozenset[int]], ...]
    singletons: tuple[int, ...]


def zero_one_graph(g: Graph) -> ZeroOneGraph:
    right = _right_masks(g)
    on_right = _vertex_mask(v for v in g.vertices if right[v])
    pairs: list[tuple[frozenset[int], frozenset[int]]] = []
    # side0 holds each piece's lowest vertex, so on a tie A_i is that side.
    for side0, side1, proper in _two_colourings(right, on_right):
        if not proper:
            raise StructureViolation("right-edge component is not bipartite")
        if any(right[u] != side1 for u in _bits(side0)):
            raise StructureViolation(
                "right-edge component is not complete bipartite"
            )
        if side0.bit_count() > side1.bit_count():
            side0, side1 = side1, side0
        pairs.append((frozenset(_bits(side0)), frozenset(_bits(side1))))
    singletons = tuple(v for v in g.vertices if not right[v])
    return ZeroOneGraph(tuple(pairs), singletons)


@dataclass(frozen=True)
class ProjectionReport:
    """The projected graph with the block-to-vertex correspondence.

    Blocks are numbered by the smallest original vertex they contain.
    """

    host: Graph
    pi_graph: Graph
    blocks: tuple[frozenset[int], ...]
    is_fixed_point: bool


def project(g: Graph) -> ProjectionReport:
    decomposition = zero_one_graph(g)
    raw_blocks: list[frozenset[int]] = []
    for side_a, side_b in decomposition.pairs:
        raw_blocks.append(side_a)
        raw_blocks.append(side_b)
    raw_blocks.extend(frozenset({v}) for v in decomposition.singletons)
    blocks = tuple(sorted(raw_blocks, key=min))

    block_of = [0] * g.vertex_count
    for label, members in enumerate(blocks, start=1):
        for v in members:
            block_of[v - 1] = label

    pi_edges: set[Edge] = set()
    for u, v in g.edges:
        bu, bv = block_of[u - 1], block_of[v - 1]
        if bu == bv:
            # Block sides are independent in g; an internal edge would
            # project to a loop, so it can only mean a broken decomposition.
            raise StructureViolation(
                f"edge {{{u},{v}}} joins two vertices of one block"
            )
        pi_edges.add((min(bu, bv), max(bu, bv)))
    names = tuple(
        "+".join(str(v) for v in sorted(members)) for members in blocks
    )
    pi_graph = Graph.from_edges(pi_edges, vertex_count=len(blocks), names=names)
    fixed = all(len(members) == 1 for members in blocks) and pi_graph.edges == g.edges
    return ProjectionReport(g, pi_graph, blocks, fixed)


# --- cover transport -----------------------------------------------------------


def project_cover(report: ProjectionReport, cover: Cover) -> Cover:
    """The corresponding cover of the projected graph (basic covers are
    constant on blocks; a non-constant input is rejected)."""
    values = []
    for members in report.blocks:
        vals = {cover.values[v - 1] for v in members}
        if len(vals) != 1:
            raise NotConstantOnBlock(
                f"cover takes several values on block {sorted(members)}"
            )
        values.append(vals.pop())
    return Cover(tuple(values), cover.level)


def lift_cover(report: ProjectionReport, cover: Cover) -> Cover:
    """The host-graph cover obtained by repeating each block value."""
    values = [0] * report.host.vertex_count
    for label, members in enumerate(report.blocks, start=1):
        for v in members:
            values[v - 1] = cover.values[label - 1]
    return Cover(tuple(values), cover.level)


# --- reports ---------------------------------------------------------------------


@dataclass(frozen=True)
class CmEquivalenceReport:
    """Verdicts for the equivalent characterisations of Cohen-Macaulayness of
    a WSC graph.  Each computed condition is True/False, or None when its
    search budget was exhausted; ``cohen_macaulay`` is never computed from
    the ring, it repeats the common verdict the equivalence implies, and
    is None when no condition was computed or the computed ones disagree
    (the ``cm-conditions-agree`` row of the analysis then fails)."""

    unique_perfect_matching: bool | None
    unique_right_edge_perfect_matching: bool | None
    projection_fixed_point: bool | None
    independence_complex_shellable: bool | None
    connected_in_codimension_one: bool | None
    cohen_macaulay: bool | None
    skip_reasons: tuple[str, ...]

    def computed(self) -> dict[str, bool]:
        out = {
            "unique_perfect_matching": self.unique_perfect_matching,
            "unique_right_edge_perfect_matching": self.unique_right_edge_perfect_matching,
            "projection_fixed_point": self.projection_fixed_point,
            "independence_complex_shellable": self.independence_complex_shellable,
            "connected_in_codimension_one": self.connected_in_codimension_one,
        }
        return {k: v for k, v in out.items() if v is not None}


def cm_equivalence_report(
    g: Graph, budget: SearchBudget | None = None
) -> CmEquivalenceReport:
    if not satisfies_wsc(g):
        raise NotWsc("the equivalence report applies to WSC graphs")
    budget = budget or default_budget()
    skips: list[str] = []

    def guarded(name, thunk):
        try:
            return thunk()
        except SearchBudgetExceeded as exc:
            skips.append(f"{name}: {exc}")
            return None

    def has_unique_pm(nbr: tuple[int, ...]) -> bool:
        # Skip reasons name enumerate_perfect_matchings, the public search
        # over the same matchings.
        budget.check_graph(g.vertex_count, g.edge_count, "enumerate_perfect_matchings")
        return _perfect_matchings(nbr, _vertex_mask(g.vertices), 2) == 1

    unique_pm = guarded(
        "unique_perfect_matching", lambda: has_unique_pm(g.neighbour_masks)
    )
    # Perfect matchings drawn from right edges only; under the WSC every
    # vertex lies on a right edge, so they span a valid graph.
    right_nbr = _right_masks(g)
    unique_right_pm = guarded(
        "unique_right_edge_perfect_matching", lambda: has_unique_pm(right_nbr)
    )
    fixed_point = project(g).is_fixed_point

    complex_ = guarded("independence_complex", lambda: independence_complex(g, budget))
    if complex_ is None:
        shellable = None
        connected = None
    else:
        if complex_.is_pure:
            shellable = guarded(
                "independence_complex_shellable", lambda: is_shellable(complex_, budget)
            )
            connected = is_strongly_connected(complex_)
        else:
            # Facets of several dimensions rule out both certificates.
            shellable = False
            connected = False

    report = CmEquivalenceReport(
        unique_perfect_matching=unique_pm,
        unique_right_edge_perfect_matching=unique_right_pm,
        projection_fixed_point=fixed_point,
        independence_complex_shellable=shellable,
        connected_in_codimension_one=connected,
        cohen_macaulay=None,
        skip_reasons=tuple(skips),
    )
    verdicts = set(report.computed().values())
    common = verdicts.pop() if len(verdicts) == 1 else None
    return replace(report, cohen_macaulay=common)


@dataclass(frozen=True)
class RegularityReport:
    """Bounds for the Castelnuovo-Mumford regularity of the edge ideal:
    the induced matching number from below, the graphical dimension minus
    one from above, and the exact value (equal to the induced matching
    number) when the graph is bipartite and satisfies the WSC."""

    induced_matching: int
    projection_induced_matching: int
    upper_bound: int
    exact: int | None


def regularity_report(g: Graph, budget: SearchBudget | None = None) -> RegularityReport:
    budget = budget or default_budget()
    induced = induced_matching_number(g, budget)
    pi = project(g).pi_graph
    induced_pi = induced_matching_number(pi, budget)
    upper = graphical_dimension(g, budget).gdim - 1
    exact = induced if (is_bipartite(g) and satisfies_wsc(g)) else None
    return RegularityReport(induced, induced_pi, upper, exact)


__all__ = [
    "CmEquivalenceReport",
    "ProjectionReport",
    "RegularityReport",
    "ZeroOneGraph",
    "cm_equivalence_report",
    "is_right_edge",
    "lift_cover",
    "project",
    "project_cover",
    "regularity_report",
    "right_edges",
    "satisfies_wsc",
    "zero_one_graph",
]
