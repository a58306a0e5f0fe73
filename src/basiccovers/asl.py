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
from operator import add

from .budget import SearchBudget
from .covers import Cover, _is_basic_k_cover, enumerate_basic_covers, is_basic
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


@dataclass(frozen=True, slots=True)
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


# Key of the relation memo in a poset's instance dict, where cached
# properties keep their values too.
_RELATIONS_MEMO = "_straightening_relations"


def straightening_relations(poset: CoverPoset) -> list[StraighteningRelation]:
    """One relation per unordered incomparable pair, in element order.

    Nonzero right sides are validated against the rewriting shape (the
    meet side strictly below both factors and at most the join side).
    The relations are computed once per poset; every call returns a new
    list of them.
    """
    relations = poset.__dict__.get(_RELATIONS_MEMO)
    if relations is None:
        relations = poset.__dict__[_RELATIONS_MEMO] = tuple(_straighten(poset))
    return list(relations)


def _straighten(poset: CoverPoset) -> Iterator[StraighteningRelation]:
    g, elements = poset.graph, poset.elements
    up, down = poset.up_sets, poset.down_sets
    for i, x in enumerate(elements):
        related = up[i] | down[i]
        for j in range(i + 1, len(elements)):
            if related >> j & 1:
                continue
            y = elements[j]
            meet = meet_values(poset, x, y)
            join = join_values(poset, x, y)
            if not (
                _is_basic_k_cover(g, meet.values, 1)
                and _is_basic_k_cover(g, join.values, 1)
            ):
                yield StraighteningRelation((x, y), None)
                continue
            # Both are basic 1-covers, hence elements of the poset.
            m, t = poset.index_of(meet), poset.index_of(join)
            if not (
                down[t] >> m & 1
                and down[i] >> m & 1
                and m != i
                and down[j] >> m & 1
                and m != j
            ):  # pragma: no cover
                raise EquivalenceViolation(
                    "straightening right side violates the rewriting shape"
                )
            yield StraighteningRelation((x, y), (elements[m], elements[t]))


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


def verify_asl1(
    poset: CoverPoset, d: int, budget: SearchBudget | None = None
) -> bool:
    """Is the multichain-to-cover map a bijection onto the basic d-covers?

    Both sides are produced independently: multichains by direct
    enumeration over the poset, covers by the exact cover search.  The
    multichains grow one element at a time along the up-lists, each
    carrying its value sum; every d-element sum must be a basic d-cover,
    as :func:`multichain_to_cover` requires.
    """
    if d < 1:
        raise NotAMultichain("degree must be >= 1")
    g, ups = poset.graph, poset.up_lists
    values = [c.values for c in poset.elements]
    # (last element, value sum) of every multichain, one element longer per
    # level.  The levels are chained generators, so none is held in full.
    chains = enumerate(values)
    for _ in range(d - 1):
        chains = (
            (j, tuple(map(add, total, values[j])))
            for i, total in chains
            for j in ups[i]
        )
    images: set[tuple[int, ...]] = set()
    count = 0
    for _, total in chains:
        if not _is_basic_k_cover(g, total, d):
            raise SumNotBasic("a multichain summed to a non-basic cover")
        images.add(total)
        count += 1
    if len(images) != count:
        return False
    return images == {c.values for c in enumerate_basic_covers(g, d, budget)}


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
