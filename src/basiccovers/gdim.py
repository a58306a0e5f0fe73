"""Free parameter sets and the graphical dimension.

An ordered independent set a_1..a_r with partners b_1..b_r is a free
parameter set when every {a_i, b_i} is an edge and {a_i, b_j} being an
edge forces i <= j; the graphical dimension is the maximum r plus one.
The search appends pairs, which preserves the triangular condition
incrementally: a new a may touch no earlier a (independence) and no
earlier b.  Validity depends on the ordering, so the search ranges over
ordered sequences.

It runs on int bitsets.  Only the used set U = A | B constrains what may
follow: a new a avoids U and its neighbourhood N(U), and a new b avoids U.
So every sequence with the same U has the same extensions, and the search
skips a U it has already searched, since that U cannot beat the incumbent.
It also cuts a branch that the matching number of the unused vertices
cannot lift past the incumbent, and stops at the matching-number ceiling.
That residual matching number comes from the graph module's mask kernel,
run on the unused-vertex mask itself, so no subgraph is ever built.
"""

from __future__ import annotations

from dataclasses import dataclass

from .budget import SearchBudget, default_budget
from .errors import MalformedInput, NotATree
from .graph import (
    Graph,
    _is_int,
    _matching_size,
    _vertex_mask,
    bipartition,
    is_tree,
    matching_number,
)


@dataclass(frozen=True)
class FreeParameterCertificate:
    """An ordered free parameter set with its partner set."""

    a_seq: tuple[int, ...]
    b_seq: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.a_seq) != len(self.b_seq):
            raise MalformedInput("a and b sequences must have equal length")

    def __len__(self) -> int:
        return len(self.a_seq)

    def to_lines(self) -> list[str]:
        return [
            "A: " + " ".join(str(v) for v in self.a_seq),
            "B: " + " ".join(str(v) for v in self.b_seq),
        ]


def is_free_parameter_set(g: Graph, cert: FreeParameterCertificate) -> bool:
    """Check all four conditions: a-side independent, disjoint from the
    b-side, paired along edges, and triangular ({a_i,b_j} in E forces i <= j)."""
    a, b = cert.a_seq, cert.b_seq
    vertices = set(g.vertices)
    if not a or len(set(a)) != len(a) or len(set(b)) != len(b):
        return False
    if not all(map(_is_int, (*a, *b))) or not (set(a) <= vertices and set(b) <= vertices):
        return False
    if set(a) & set(b):
        return False
    nbr = g.neighbour_masks
    a_mask = _vertex_mask(a)
    earlier_b = 0
    for ai, bi in zip(a, b):
        # a_i touches no a, meets its partner b_i, and touches no b_j, j < i.
        if nbr[ai] & (a_mask | earlier_b) or not nbr[ai] >> bi & 1:
            return False
        earlier_b |= 1 << bi
    return True


@dataclass(frozen=True)
class GdimResult:
    gdim: int
    certificate: FreeParameterCertificate


def graphical_dimension(g: Graph, budget: SearchBudget | None = None) -> GdimResult:
    """Exact maximum free parameter set size plus one, with a witness.

    Backtracking over ordered (a, b) extensions, with vertices ascending
    and each a's partners ascending, so the witness is the
    lexicographically least maximum-length (a1, b1, a2, b2, ...) sequence.
    Three prunes drop only branches that cannot strictly beat the
    incumbent: the search stops at the matching-number ceiling; a branch
    is cut when its length plus the matching number of the unused vertices
    cannot beat the incumbent; and a used set U = A | B that was already
    searched is skipped, because the extensions of a sequence depend on U
    alone (a new a avoids U and N(U), a new b avoids U).
    """
    if g.edge_count == 0:
        raise MalformedInput("graphical dimension needs at least one edge")
    budget = budget or default_budget()
    budget.check_graph(g.vertex_count, g.edge_count, "graphical_dimension")
    ceiling = matching_number(g)

    # Vertex v is bit v of every mask; nbr[v] is its neighbour mask.
    nbr = g.neighbour_masks
    every = _vertex_mask(g.vertices)
    sides = bipartition(g)
    # A colour class of g stays one in every induced subgraph.
    left = None if sides is None else _vertex_mask(sides[0])

    best_len = 0
    u, v = g.edges[0]
    best_cert = FreeParameterCertificate((u,), (v,))
    a_seq: list[int] = []
    b_seq: list[int] = []
    seen: set[int] = set()

    def extend(used: int, blocked: int) -> None:
        """Extend the current sequence; ``blocked`` is U | N(U)."""
        nonlocal best_len, best_cert
        r = len(a_seq)
        if r > best_len:
            best_len = r
            best_cert = FreeParameterCertificate(tuple(a_seq), tuple(b_seq))
        if best_len == ceiling:
            return
        # Every further (a, b) pair consumes an edge among the unused
        # vertices.  Each used set is searched once, so no cache.
        if r + _matching_size(nbr, every & ~used, left) <= best_len:
            return
        # The new a may be adjacent to no chosen a (independence) and no
        # chosen b (the triangular condition with i > j).
        free = every & ~blocked
        while free:
            a_bit = free & -free
            free ^= a_bit
            a = a_bit.bit_length() - 1
            partners = nbr[a] & ~used
            while partners:
                b_bit = partners & -partners
                partners ^= b_bit
                grown = used | a_bit | b_bit
                if grown in seen:
                    continue
                seen.add(grown)
                b = b_bit.bit_length() - 1
                a_seq.append(a)
                b_seq.append(b)
                extend(grown, blocked | nbr[a] | nbr[b])
                a_seq.pop()
                b_seq.pop()

    extend(0, 0)
    # extend refers to itself through its closure; clearing the name frees
    # the search state on return rather than at the next cyclic collection.
    del extend
    return GdimResult(best_len + 1, best_cert)


@dataclass(frozen=True)
class GdimBounds:
    lower: int  # half the paired domination number, plus one
    upper: int  # the matching number plus one


def gdim_bounds(g: Graph, budget: SearchBudget | None = None) -> GdimBounds:
    from .graph import paired_domination_number

    gamma_p = paired_domination_number(g, budget)
    nu = matching_number(g)
    return GdimBounds(gamma_p // 2 + 1, nu + 1)


def tree_gdim(g: Graph) -> int:
    """For trees the dimension collapses to the matching number plus one.

    The formula is checked against the full search in the tests, not here.
    """
    if not is_tree(g):
        raise NotATree("tree_gdim requires a connected graph with n-1 edges")
    return matching_number(g) + 1
