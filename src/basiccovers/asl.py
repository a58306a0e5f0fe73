"""The straightening-law layer over the cover poset.

Products of incomparable basic 1-covers rewrite either to the product of
the min/max crossed covers (when both stay basic) or to zero; together
with the multichain-to-cover correspondence this pins the whole
multiplicative structure combinatorially.  The standard-monomial side is
checked through two finite consequences: the rewriting rules are quadratic
by construction, and d-multichains biject with basic d-covers, so their
number must equal the frontier count of the covers at every degree.

Both checks run on the poset's element masks (:attr:`CoverPoset.masks`,
bit v set when vertex v has value 1).  The crossed covers of a pair are
two bit operations and their basicness a test on neighbour masks; a
multichain sum is basic exactly when its support lies inside the
endpoints of the edges tight in every summand.  A multichain's value sum
is carried as one packed int, each vertex's value in a field of its own,
so extending a multichain by one element is one integer addition.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from .budget import SearchBudget
from .covers import Cover, count_basic_covers
from .errors import (
    DimensionMismatch,
    EquivalenceViolation,
    MalformedInput,
    NotACover,
    NotAMultichain,
    SumNotBasic,
)
from .graph import Graph, _bits, _is_int
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
    """The relations on the element masks.

    The meet takes the min on A and the max on B, the join the dual, and
    either is an element exactly when it is a basic 1-cover.
    """
    g, elements, bits = poset.graph, poset.elements, poset.masks
    up, down = poset.up_sets, poset.down_sets
    by_bits = {m: i for i, m in enumerate(bits)}
    side_a = sum(1 << v for v in poset.side_a)
    side_b = sum(1 << v for v in poset.side_b)
    nbr = g.neighbour_masks
    for i, x in enumerate(bits):
        related = up[i] | down[i]
        for j in range(i + 1, len(bits)):
            if related >> j & 1:
                continue
            y = bits[j]
            both, either = x & y, x | y
            meet = both & side_a | either & side_b
            join = either & side_a | both & side_b
            if not (
                _is_basic_one_cover(nbr, meet) and _is_basic_one_cover(nbr, join)
            ):
                yield StraighteningRelation((elements[i], elements[j]), None)
                continue
            # Both are basic 1-covers, hence elements of the poset.
            m, t = by_bits.get(meet), by_bits.get(join)
            if m is None or t is None:
                raise MalformedInput("a basic 1-cover is missing from the poset")
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
            yield StraighteningRelation(
                (elements[i], elements[j]), (elements[m], elements[t])
            )


def _is_basic_one_cover(nbr: tuple[int, ...], ones: int) -> bool:
    """Is the 0/1 assignment with value 1 on ``ones`` a basic 1-cover?

    It is a 1-cover iff its zeros are independent and it is not all zero,
    and then basic iff every one has a zero neighbour (a tight edge).
    ``nbr`` holds the neighbour masks of the graph.
    """
    zeros = rest = ((1 << len(nbr)) - 2) & ~ones
    reach = 0
    while rest:
        low = rest & -rest
        reach |= nbr[low.bit_length() - 1]
        rest ^= low
    if not ones or reach & zeros:
        raise NotACover("values are not a 1-cover")
    return not ones & ~reach


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


def verify_asl1(
    poset: CoverPoset, d: int, budget: SearchBudget | None = None
) -> bool:
    """Is the multichain-to-cover map a bijection onto the basic d-covers?

    The multichains grow one element at a time along the up-lists, each
    carrying its value sum packed into one int: vertex v's value sits in
    bits [w*v, w*(v + 1)) with w = d.bit_length().  Each summand puts 0 or
    1 on a vertex, so a field holds at most d < 2**w and the additions
    never carry; two sums are equal as ints exactly when they are equal
    vertex by vertex.  Every d-element sum must be a basic d-cover
    (a non-basic sum contradicts the correspondence and raises
    :class:`SumNotBasic` as a bug), and distinct multichains must have
    distinct sums.  The sums are then a set of basic d-covers, so they are
    all of them iff their number equals :func:`count_basic_covers`.  That
    frontier count is the independent side: it shares no code with the
    poset or this module, and it lists no cover.

    Basicness of the sums is decided on the element masks.  Every element
    is first checked to be a basic 1-cover; the poset holds only 0/1
    elements.  A sum S of d of them is then a d-cover, and an edge is tight
    in S (sums to exactly d) iff it is tight (sums to exactly 1) in every
    summand, since each summand puts at least 1 on it.  So the tight edges
    of S are the AND of the summands' tight-edge masks, and the positive
    vertices of S the OR of their element masks.  S is basic iff every
    positive vertex lies on a tight edge, that is, iff its support lies
    inside the endpoints of the AND mask.  The endpoints are computed once
    per mask.
    """
    if not _is_int(d):
        raise NotAMultichain(f"degree must be an integer, got {d!r}")
    if d < 1:
        raise NotAMultichain("degree must be >= 1")
    g = poset.graph
    nbr = g.neighbour_masks
    for m in poset.masks:
        if not _is_basic_one_cover(nbr, m):
            raise SumNotBasic("a multichain summed to a non-basic cover")
    ends: dict[int, int] = {}
    images: set[int] = set()
    count = 0
    for total, tight, support in _multichain_sums(poset, d):
        covered = ends.get(tight)
        if covered is None:
            covered = ends[tight] = _tight_ends(g, tight)
        if support & ~covered:
            raise SumNotBasic("a multichain summed to a non-basic cover")
        images.add(total)
        count += 1
    return len(images) == count == count_basic_covers(g, d, budget)


def _multichain_sums(poset: CoverPoset, d: int) -> Iterator[tuple[int, int, int]]:
    """(packed value sum, AND of tight-edge masks, OR of element masks) of
    every d-element multichain; the OR is the support of the sum.  The
    packing is the one :func:`verify_asl1` describes."""
    g, ups, support = poset.graph, poset.up_lists, poset.masks
    width = d.bit_length()
    values = [sum(1 << width * v for v in _bits(m)) for m in support]
    tight = [_tight_edges(g, m) for m in support]
    # (last element, value sum, tight AND, support OR) of every multichain,
    # one element longer per level.  The levels are chained generators, so
    # none is held in full.
    chains = zip(range(len(values)), values, tight, support)
    for _ in range(d - 1):
        chains = (
            (j, total + values[j], t & tight[j], s | support[j])
            for i, total, t, s in chains
            for j in ups[i]
        )
    return ((total, t, s) for _, total, t, s in chains)


def _tight_edges(g: Graph, ones: int) -> int:
    """Bit e set for each edge ``g.edges[e]`` with exactly one end in the
    0/1 assignment's ``ones``: the edges whose ends sum to 1."""
    return sum(
        1 << e for e, (u, v) in enumerate(g.edges) if (ones >> u ^ ones >> v) & 1
    )


def _tight_ends(g: Graph, tight: int) -> int:
    """The vertex mask of the endpoints of the edges in ``tight``."""
    edges = g.edges
    ends = 0
    while tight:
        low = tight & -tight
        u, v = edges[low.bit_length() - 1]
        ends |= 1 << u | 1 << v
        tight ^= low
    return ends


@dataclass(frozen=True)
class DomainReport:
    """The domain criterion for the cover algebra of a bipartite graph.

    ``wsc`` and ``all_straightenings_nonzero`` are equivalent and their
    common value is the verdict; the verdict is None when the two sides
    disagree (the ``wsc-vs-nonzero-straightenings`` row of the analysis
    then fails).  ``lattice`` records bare order-theoretic latticehood of
    the cover poset, which is weaker: when it disagrees with the
    straightening test the divergence is flagged for study, not asserted
    away.
    """

    wsc: bool
    lattice: bool
    all_straightenings_nonzero: bool
    lattice_divergence: bool
    verdict: bool | None


def is_domain_report(g: Graph, budget: SearchBudget | None = None) -> DomainReport:
    poset = build_poset(g, budget)
    wsc = satisfies_wsc(g)
    nonzero = all(not rel.is_zero for rel in straightening_relations(poset))
    lattice = is_lattice(poset)
    return DomainReport(
        wsc=wsc,
        lattice=lattice,
        all_straightenings_nonzero=nonzero,
        lattice_divergence=lattice != nonzero,
        verdict=wsc if wsc == nonzero else None,
    )
