"""The poset of basic 1-covers of a bipartite graph.

Each element is a 0/1 vector, held as one int mask of its vertices with
value 1 (:attr:`CoverPoset.masks`).  A basic 1-cover is fixed by its zeros
T on the smaller bipartition side A, its ones on B being the neighbours
N(T), and the sets T that occur are the closed sets of a closure system
on A; :func:`build_poset` lists them without searching for covers.
Covers are compared componentwise on A, so x <= y exactly when the A-side
ones of x lie inside those of y; the poset is always bounded (all-zero and
all-one A-patterns are basic).  ``Cover`` values are built only at the API
boundary.  On top of the raw order this module provides the crossed
min/max values of two covers (which may fail to be basic), lattice and
distributivity tests, the join-irreducible poset of a distributive
lattice, order complexes, multichain counting, and the combined
purity/shellability report that decides Cohen-Macaulayness
combinatorially.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import combinations
from operator import or_

from .budget import SearchBudget, default_budget
from .complexes import SimplicialComplex, is_shellable, is_strongly_connected
from .covers import Cover
from .errors import (
    EquivalenceViolation,
    MalformedInput,
    NotALattice,
    NotDistributive,
)
from .graph import Graph, _bits, _is_int, require_bipartite


@dataclass(frozen=True)
class CoverPoset:
    """Basic 1-covers of a bipartite graph under the A-side componentwise order."""

    graph: Graph
    # Each element as the mask of its vertices with value 1 (bit v is
    # vertex v).  The order, the labels and the ASL checks all read it.
    masks: tuple[int, ...]
    side_a: tuple[int, ...]
    side_b: tuple[int, ...]

    def __post_init__(self) -> None:
        # A basic 1-cover is determined by its A-side ones, so two equal
        # down-sets mean a repeated A-side pattern: the construction is
        # broken.
        if len(set(self.down_sets)) != len(self.masks):
            raise MalformedInput("duplicate A-side patterns in poset elements")
        # Bounded: some element lies below (above) every element.
        everything = (1 << len(self.masks)) - 1
        if everything not in self._by_up_set or everything not in self._by_down_set:
            raise MalformedInput("cover poset must be bounded")

    @cached_property
    def elements(self) -> tuple[Cover, ...]:
        """The elements as ``Cover`` values, in mask order."""
        vertices = range(1, self.graph.vertex_count + 1)
        return tuple(Cover(tuple(m >> v & 1 for v in vertices), 1) for m in self.masks)

    def pattern_of(self, cover: Cover) -> tuple[int, ...]:
        return tuple(cover.values[a - 1] for a in self.side_a)

    @cached_property
    def labels(self) -> tuple[str, ...]:
        """The A-side pattern of each element as a digit string."""
        return tuple(
            "".join("1" if m >> a & 1 else "0" for a in self.side_a)
            for m in self.masks
        )

    def label_of(self, cover: Cover) -> str:
        """The A-side pattern of ``cover`` as a digit string; read from
        :attr:`labels` when the cover is an element."""
        i = self._index.get(cover)
        if i is not None:
            return self.labels[i]
        return "".join(map(str, self.pattern_of(cover)))

    def __len__(self) -> int:
        return len(self.masks)

    @cached_property
    def _index(self) -> dict[Cover, int]:
        return {c: i for i, c in enumerate(self.elements)}

    def index_of(self, cover: Cover) -> int:
        try:
            return self._index[cover]
        except (KeyError, TypeError):
            raise MalformedInput(f"{cover!r} is not an element of the poset") from None

    def leq(self, x: Cover, y: Cover) -> bool:
        return self.leq_by_index(self.index_of(x), self.index_of(y))

    def leq_by_index(self, i: int, j: int) -> bool:
        return bool(self.down_sets[j] >> i & 1)

    @cached_property
    def down_sets(self) -> tuple[int, ...]:
        """Bitmask of the elements at or below each element: those whose
        A-side ones lie inside its own."""
        side_a = sum(1 << a for a in self.side_a)
        ones = [m & side_a for m in self.masks]
        return tuple(
            sum(1 << i for i, s in enumerate(ones) if not s & ~t) for t in ones
        )

    @cached_property
    def up_sets(self) -> tuple[int, ...]:
        """Bitmask of the elements at or above each element."""
        return tuple(sum(1 << j for j in ups) for ups in self.up_lists)

    @cached_property
    def up_lists(self) -> tuple[tuple[int, ...], ...]:
        """Indices of the elements at or above each element, ascending."""
        down = self.down_sets
        return tuple(
            tuple(j for j, d in enumerate(down) if d >> i & 1)
            for i in range(len(down))
        )

    @cached_property
    def down_lists(self) -> tuple[tuple[int, ...], ...]:
        """Indices of the elements at or below each element, ascending."""
        return tuple(tuple(_bits(down)) for down in self.down_sets)

    @cached_property
    def _by_down_set(self) -> dict[int, int]:
        return {d: i for i, d in enumerate(self.down_sets)}

    @cached_property
    def _by_up_set(self) -> dict[int, int]:
        return {u: i for i, u in enumerate(self.up_sets)}

    def meet_index(self, i: int, j: int) -> int | None:
        """The infimum of elements i and j, or None when it does not exist.

        The common lower bounds form the set down(i) & down(j); it has a
        greatest element m exactly when down(m) equals that set.
        """
        return self._by_down_set.get(self.down_sets[i] & self.down_sets[j])

    def join_index(self, i: int, j: int) -> int | None:
        """The supremum of elements i and j (dual of :meth:`meet_index`)."""
        return self._by_up_set.get(self.up_sets[i] & self.up_sets[j])

    @cached_property
    def lattice_tables(
        self,
    ) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]] | None:
        """Meet and join index tables, or None when some pair lacks an
        infimum or a supremum.  Built from the order alone.

        Both tables are symmetric, so each pair i <= j is looked up once
        and mirrored.
        """
        n = len(self.masks)
        meet_index, join_index = self.meet_index, self.join_index
        meet = [[0] * n for _ in range(n)]
        join = [[0] * n for _ in range(n)]
        for i in range(n):
            meet_i, join_i = meet[i], join[i]
            for j in range(i, n):
                m, t = meet_index(i, j), join_index(i, j)
                if m is None or t is None:
                    return None
                meet_i[j] = meet[j][i] = m
                join_i[j] = join[j][i] = t
        return tuple(map(tuple, meet)), tuple(map(tuple, join))

    @cached_property
    def cover_relations(self) -> tuple[tuple[int, int], ...]:
        """Hasse edges (i, j) with element i covered by element j: nothing
        lies strictly between them."""
        up, down = self.up_sets, self.down_sets
        return tuple(
            (i, j)
            for i in range(len(self.masks))
            for j in self.up_lists[i]
            if j != i and up[i] & down[j] == (1 << i) | (1 << j)
        )

    @cached_property
    def height_range(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Shortest and longest Hasse-path height of each element above the
        minimal elements."""
        n = len(self.masks)
        lower: list[list[int]] = [[] for _ in range(n)]
        for i, j in self.cover_relations:
            lower[j].append(i)
        shortest = [0] * n
        longest = [0] * n
        # Fewer elements below comes first: a linear extension.
        for j in sorted(range(n), key=lambda i: self.down_sets[i].bit_count()):
            if lower[j]:
                shortest[j] = 1 + min(shortest[i] for i in lower[j])
                longest[j] = 1 + max(longest[i] for i in lower[j])
        return tuple(shortest), tuple(longest)

    def _index_chains(self) -> list[tuple[int, ...]]:
        """Maximal chains as index tuples, from each minimal element up the
        Hasse diagram, lowest index first at every step."""
        n = len(self.masks)
        # cover_relations lists (i, j) by ascending i, then ascending j.
        ups: list[list[int]] = [[] for _ in range(n)]
        for i, j in self.cover_relations:
            ups[i].append(j)
        chains: list[tuple[int, ...]] = []
        # Depth first; pushing in descending order pops the lowest first.
        stack = [(i,) for i in reversed(range(n)) if self.down_sets[i] == 1 << i]
        while stack:
            chain = stack.pop()
            above = ups[chain[-1]]
            if above:
                stack.extend(chain + (j,) for j in reversed(above))
            else:
                chains.append(chain)
        return chains

    @cached_property
    def _order_complex(self) -> SimplicialComplex:
        # The poset is bounded, so every maximal chain is a Hasse path from
        # the bottom to the top.  Distinct such paths are distinct sets and
        # none contains another (an extra element would lie strictly
        # between two consecutive ones), so the chains are already the
        # facets and need no containment scan.
        labels = self.labels
        return SimplicialComplex._from_maximal(
            frozenset(labels[i] for i in chain) for chain in self._index_chains()
        )

    def hasse_lines(self) -> list[str]:
        labels = self.labels
        return sorted(f"{labels[i]} < {labels[j]}" for i, j in self.cover_relations)


# The graph's instance dict holds a weak reference to its poset, so the
# poset (which holds the graph) and the graph form no cycle, and the
# memo lasts exactly as long as some caller keeps the poset.
_POSET_MEMO = "_cover_poset"


def build_poset(g: Graph, budget: SearchBudget | None = None) -> CoverPoset:
    """The poset of basic 1-covers ordered on the smaller bipartition side
    A (|A| <= |B|), its elements sorted by A-side pattern.

    The poset is memoised per graph instance for as long as a caller holds
    it, so the reports that take a graph reuse the poset the caller built.
    A memo hit checks the graph against ``budget`` exactly as a build does.
    """
    side_a, side_b = require_bipartite(g)
    (budget or default_budget()).check_graph(
        g.vertex_count, g.edge_count, "build_poset"
    )
    ref = g.__dict__.get(_POSET_MEMO)
    poset = ref() if ref is not None else None
    if poset is None:
        a, b = tuple(sorted(side_a)), tuple(sorted(side_b))
        masks = sorted(_closure_masks(g, a, b), key=lambda m: [m >> v & 1 for v in a])
        poset = CoverPoset(g, tuple(masks), a, b)
        g.__dict__[_POSET_MEMO] = weakref.ref(poset)
    return poset


def _closure_masks(g: Graph, a: tuple[int, ...], b: tuple[int, ...]) -> list[int]:
    """The mask of every basic 1-cover, one per closed set of A-zeros.

    A basic 1-cover with zeros T on A has ones N(T) on B, and T occurs
    exactly when it is closed: every vertex of A whose neighbours all lie
    in N(T) belongs to T.  The closed sets are the intersections of the
    sets A \\ N(b) over the subsets of B, the empty one giving A itself
    (Ganter and Wille, *Formal Concept Analysis*, 1999).
    """
    nbr = g.neighbour_masks
    side_a = sum(1 << v for v in a)
    closed = {side_a}
    for v in b:
        outside = side_a & ~nbr[v]
        closed |= {t & outside for t in closed}
    return [
        side_a & ~t | reduce(or_, (nbr[v] for v in a if t >> v & 1), 0)
        for t in closed
    ]


# --- crossed min/max values ----------------------------------------------------


def _mix(poset: CoverPoset, x: Cover, y: Cover, min_on_a: bool) -> Cover:
    values = list(x.values)
    for v in poset.side_a:
        p, q = x.values[v - 1], y.values[v - 1]
        values[v - 1] = min(p, q) if min_on_a else max(p, q)
    for v in poset.side_b:
        p, q = x.values[v - 1], y.values[v - 1]
        values[v - 1] = max(p, q) if min_on_a else min(p, q)
    return Cover(tuple(values), 1)


def meet_values(poset: CoverPoset, x: Cover, y: Cover) -> Cover:
    """Componentwise min on A and max on B; always a 1-cover, maybe non-basic."""
    return _mix(poset, x, y, min_on_a=True)


def join_values(poset: CoverPoset, x: Cover, y: Cover) -> Cover:
    """Componentwise max on A and min on B; always a 1-cover, maybe non-basic."""
    return _mix(poset, x, y, min_on_a=False)


# --- order-theoretic structure -------------------------------------------------


def rank(poset: CoverPoset) -> int:
    """Length (in edges) of a longest chain: the greatest longest height."""
    return max(poset.height_range[1])


def is_pure(poset: CoverPoset) -> bool:
    """All maximal chains of the same length.

    A maximal chain is a Hasse path from a minimal to a maximal element, so
    every chain length lies between the shortest and the longest height of
    some maximal element, and both of those are attained.  The poset is
    therefore pure exactly when the least shortest height of a maximal
    element equals the greatest longest height.
    """
    shortest, longest = poset.height_range
    maximal = [i for i, up in enumerate(poset.up_sets) if up == 1 << i]
    return min(shortest[i] for i in maximal) == max(longest[i] for i in maximal)


def is_lattice(poset: CoverPoset) -> bool:
    """Order-theoretic latticehood: every pair has an infimum and a supremum.

    Independent of whether the min/max cover formulas stay basic; the two
    notions diverge exactly on the graphs whose straightening relations
    contain a zero product.
    """
    return poset.lattice_tables is not None


def is_distributive(poset: CoverPoset) -> bool:
    """a v (b ^ c) == (a v b) ^ (a v c) for all a, b, c."""
    if not is_lattice(poset):
        raise NotALattice("distributivity is defined for lattices")
    meet, join = poset.lattice_tables
    n = len(poset)
    for a in range(n):
        join_a = join[a]
        for b in range(n):
            meet_b = meet[b]
            meet_ab = meet[join_a[b]]
            # Both sides are symmetric in b and c.
            for c in range(b + 1, n):
                if join_a[meet_b[c]] != meet_ab[join_a[c]]:
                    return False
    return True


def is_locally_upper_semimodular(poset: CoverPoset) -> bool:
    """Whenever two elements cover u and lie below a common v, some t <= v
    covers both of them."""
    n = len(poset)
    up = poset.up_sets
    covers_of: list[set[int]] = [set() for _ in range(n)]
    for i, j in poset.cover_relations:
        covers_of[i].add(j)
    for u in range(n):
        for v1, v2 in combinations(covers_of[u], 2):
            # Every common upper bound of v1 and v2 must lie above some t
            # that covers both.
            reached = 0
            for t in covers_of[v1] & covers_of[v2]:
                reached |= up[t]
            if up[v1] & up[v2] & ~reached:
                return False
    return True


# --- Birkhoff decomposition -----------------------------------------------------


@dataclass(frozen=True)
class BirkhoffPoset:
    """The join-irreducibles of a distributive lattice with the induced order.

    The lattice of its order ideals (ordered by inclusion) recovers the
    source lattice; its purity decides the Gorenstein property when the
    source is the cover poset of a WSC graph.
    """

    elements: tuple[str, ...]
    relation: frozenset[tuple[str, str]]  # (x, y) meaning x <= y

    def leq(self, x: str, y: str) -> bool:
        return x == y or (x, y) in self.relation

    def maximal_chain_lengths(self) -> set[int]:
        downs = {
            y: [x for x in self.elements if x != y and self.leq(x, y)]
            for y in self.elements
        }
        height: dict[str, int] = {}
        # The relation is transitive, so fewer elements below comes first
        # in a linear extension and every lower height is ready in time.
        for y in sorted(self.elements, key=lambda y: len(downs[y])):
            height[y] = 1 + max((height[x] for x in downs[y]), default=-1)
        maximal = [
            y
            for y in self.elements
            if not any(x != y and self.leq(y, x) for x in self.elements)
        ]
        return {height[y] for y in maximal}


def birkhoff_poset(poset: CoverPoset) -> BirkhoffPoset:
    """Join-irreducibles (elements with exactly one lower cover) of a
    distributive cover poset, under the induced order."""
    if not is_distributive(poset):
        raise NotDistributive("the Birkhoff decomposition needs a distributive lattice")
    lower_covers: dict[int, list[int]] = {i: [] for i in range(len(poset))}
    for i, j in poset.cover_relations:
        lower_covers[j].append(i)
    irreducible = [j for j, lows in lower_covers.items() if len(lows) == 1]
    labels = {j: poset.labels[j] for j in irreducible}
    relation = frozenset(
        (labels[i], labels[j])
        for i in irreducible
        for j in irreducible
        if i != j and poset.leq_by_index(i, j)
    )
    return BirkhoffPoset(tuple(sorted(labels.values())), relation)


def is_pure_poset(p: BirkhoffPoset) -> bool:
    """All maximal chains of the same length (the Gorenstein certificate)."""
    return len(p.maximal_chain_lengths()) <= 1


# --- chains, complexes, counting -------------------------------------------------


def order_complex(poset: CoverPoset) -> SimplicialComplex:
    """Faces are the chains of the poset; facets are its maximal chains,
    labelled by A-side pattern.  Built once per poset."""
    return poset._order_complex


def count_multichains(poset: CoverPoset, d: int) -> int:
    """Number of weakly increasing d-element sequences, by dynamic programming:
    the sequences ending at j extend those ending at any element below j."""
    if not _is_int(d):
        raise MalformedInput(f"multichain length must be an integer, got {d!r}")
    if d < 0:
        raise MalformedInput("multichain length must be >= 0")
    if d == 0:
        return 1
    below = poset.down_lists
    counts = [1] * len(below)
    for _ in range(d - 1):
        counts = [sum(map(counts.__getitem__, lows)) for lows in below]
    return sum(counts)


# --- the combinatorial Cohen-Macaulay report --------------------------------------


@dataclass(frozen=True)
class CohenMacaulayReport:
    """Purity/shellability evidence for the cover poset of a bipartite graph.

    When the poset rank equals |A| the conditions (purity of the poset,
    shellability of its order complex, Cohen-Macaulayness) are mutually
    equivalent and ``verdict`` carries the common value; otherwise a
    non-strongly-connected order complex still certifies a negative, and
    the remaining cases are reported as inconclusive.
    """

    hypothesis_holds: bool
    pure: bool
    shellable: bool
    strongly_connected: bool | None
    verdict: str  # "cohen_macaulay" | "not_cohen_macaulay" | "inconclusive"


def cohen_macaulay_report(
    g: Graph, budget: SearchBudget | None = None
) -> CohenMacaulayReport:
    poset = build_poset(g, budget)
    complex_ = order_complex(poset)
    pure = is_pure(poset)
    hypothesis = rank(poset) == len(poset.side_a)
    if pure:
        shellable = is_shellable(complex_, budget)
        connected = is_strongly_connected(complex_)
    else:
        # A non-pure complex admits no (pure) shelling; strong connectivity
        # is left undefined.
        shellable = False
        connected = None
    if not pure:
        verdict = "not_cohen_macaulay"
    elif hypothesis:
        if not shellable or not connected:
            raise EquivalenceViolation(
                "pure poset with rank equal to |A| must be shellable"
            )
        verdict = "cohen_macaulay"
    elif connected is False:
        verdict = "not_cohen_macaulay"
    else:
        verdict = "inconclusive"
    return CohenMacaulayReport(
        hypothesis_holds=hypothesis,
        pure=pure,
        shellable=shellable,
        strongly_connected=connected,
        verdict=verdict,
    )
