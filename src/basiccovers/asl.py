"""The straightening-law layer over the cover poset.

Products of incomparable basic 1-covers rewrite either to the product of
the min/max crossed covers (when both stay basic) or to zero; together
with the multichain-to-cover correspondence this pins the whole
multiplicative structure combinatorially.  The standard-monomial side is
checked through two finite consequences: the rewriting rules are quadratic
by construction, and d-multichains biject with basic d-covers, so the two
counts must agree at every degree.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from itertools import combinations

from .budget import SearchBudget
from .covers import Cover, enumerate_basic_covers, is_basic
from .errors import (
    DimensionMismatch,
    EquivalenceViolation,
    MalformedInput,
    NotAMultichain,
    SumNotBasic,
)
from .graph import Graph
from .poset import (
    CoverPoset,
    build_poset,
    is_lattice,
    join_values,
    meet_values,
)
from .projection import satisfies_wsc


@dataclass(frozen=True)
class StraighteningRelation:
    """One rewriting rule: the product of the incomparable pair ``left``
    equals the product of ``right`` when present, and zero otherwise."""

    left: tuple[Cover, Cover]
    right: tuple[Cover, Cover] | None

    @property
    def is_zero(self) -> bool:
        return self.right is None

    def to_line(self, poset: CoverPoset) -> str:
        a, b = self.left
        head = f"{poset.label_of(a)}*{poset.label_of(b)}"
        if self.right is None:
            return f"{head} = 0"
        m, j = self.right
        return f"{head} = {poset.label_of(m)}*{poset.label_of(j)}"


def straightening_relations(poset: CoverPoset) -> list[StraighteningRelation]:
    """One relation per unordered incomparable pair, in element order.

    Nonzero right sides are validated against the rewriting shape (the
    meet side strictly below both factors and at most the join side).
    """
    relations: list[StraighteningRelation] = []
    for x, y in combinations(poset.elements, 2):
        if poset.leq(x, y) or poset.leq(y, x):
            continue
        meet = meet_values(poset, x, y)
        join = join_values(poset, x, y)
        if is_basic(poset.graph, meet) and is_basic(poset.graph, join):
            if not (
                poset.leq(meet, join)
                and poset.leq(meet, x)
                and meet != x
                and poset.leq(meet, y)
                and meet != y
            ):  # pragma: no cover
                raise EquivalenceViolation(
                    "straightening right side violates the rewriting shape"
                )
            relations.append(StraighteningRelation((x, y), (meet, join)))
        else:
            relations.append(StraighteningRelation((x, y), None))
    return relations


def verify_sum_identity(poset: CoverPoset, x: Cover, y: Cover) -> bool:
    """The raw value identity x + y = (x meet y) + (x join y), checked
    componentwise whether or not the mixed covers are basic."""
    if len(x.values) != len(y.values) or len(x.values) != poset.graph.vertex_count:
        raise DimensionMismatch("covers must live on the poset's graph")
    meet = meet_values(poset, x, y)
    join = join_values(poset, x, y)
    return all(
        xv + yv == mv + jv
        for xv, yv, mv, jv in zip(x.values, y.values, meet.values, join.values)
    )


def multichain_to_cover(poset: CoverPoset, chain) -> Cover:
    """Sum a weakly increasing sequence of poset elements into a basic
    cover of level d; a non-basic sum contradicts the correspondence and
    raises as a bug."""
    chain = list(chain)
    if not chain:
        raise NotAMultichain("a multichain needs at least one element")
    try:
        indices = [poset.index_of(c) for c in chain]
    except MalformedInput:
        raise NotAMultichain("multichain entries must be poset elements") from None
    for a, b, i, j in zip(chain, chain[1:], indices, indices[1:]):
        if not poset.leq_by_index(i, j):
            raise NotAMultichain(
                f"{poset.label_of(a)} is not below {poset.label_of(b)}"
            )
    total = chain[0]
    for c in chain[1:]:
        total = total + c
    if not is_basic(poset.graph, total):
        raise SumNotBasic("a multichain summed to a non-basic cover")
    return total


def _multichains(poset: CoverPoset, d: int) -> Iterator[tuple[Cover, ...]]:
    """Every weakly increasing d-element sequence, grown as index tuples
    along the up-lists."""
    ups = poset.up_lists
    chains = [(i,) for i in range(len(poset.elements))]
    for _ in range(d - 1):
        chains = [chain + (j,) for chain in chains for j in ups[chain[-1]]]
    return (tuple(poset.elements[i] for i in chain) for chain in chains)


def verify_asl1(
    poset: CoverPoset, d: int, budget: SearchBudget | None = None
) -> bool:
    """Is the multichain-to-cover map a bijection onto the basic d-covers?

    Both sides are produced independently: multichains by direct
    enumeration over the poset, covers by the exact cover search.
    """
    if d < 1:
        raise NotAMultichain("degree must be >= 1")
    images = [multichain_to_cover(poset, chain) for chain in _multichains(poset, d)]
    if len(set(images)) != len(images):
        return False
    covers = set(enumerate_basic_covers(poset.graph, d, budget))
    return set(images) == covers


@dataclass(frozen=True)
class DomainReport:
    """The domain criterion for the cover algebra of a bipartite graph.

    ``wsc`` and ``all_straightenings_nonzero`` are equivalent and their
    common value is the verdict.  ``lattice`` records bare order-theoretic
    latticehood of the cover poset, which is weaker: when it disagrees
    with the straightening test the divergence is flagged for study, not
    asserted away.
    """

    wsc: bool
    lattice: bool
    all_straightenings_nonzero: bool
    lattice_divergence: bool
    verdict: bool


def is_domain_report(g: Graph, budget: SearchBudget | None = None) -> DomainReport:
    poset = build_poset(g, budget)
    wsc = satisfies_wsc(g)
    nonzero = all(not rel.is_zero for rel in straightening_relations(poset))
    lattice = is_lattice(poset)
    if wsc != nonzero:
        raise EquivalenceViolation(
            f"WSC ({wsc}) and nonzero straightenings ({nonzero}) must agree"
        )
    return DomainReport(
        wsc=wsc,
        lattice=lattice,
        all_straightenings_nonzero=nonzero,
        lattice_divergence=lattice != nonzero,
        verdict=wsc,
    )
