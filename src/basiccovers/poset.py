"""The poset of basic 1-covers of a bipartite graph.

Covers are compared componentwise on the smaller bipartition side A; the
poset is always bounded (all-zero and all-one A-patterns are basic).  On
top of the raw order this module provides the meet/join candidate covers
(componentwise min/max crossed over the two sides, which may fail to be
basic), lattice and distributivity tests, the join-irreducible poset of a
distributive lattice, order complexes, multichain counting, and the
combined purity/shellability report that decides Cohen-Macaulayness
combinatorially.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from .budget import SearchBudget
from .complexes import SimplicialComplex, is_shellable, is_strongly_connected
from .covers import Cover, enumerate_basic_covers, is_basic
from .errors import (
    EquivalenceViolation,
    MalformedInput,
    NotALattice,
    NotDistributive,
)
from .graph import Graph, require_bipartite


@dataclass(frozen=True)
class CoverPoset:
    """Basic 1-covers of a bipartite graph under the A-side componentwise order."""

    graph: Graph
    elements: tuple[Cover, ...]
    side_a: tuple[int, ...]
    side_b: tuple[int, ...]

    def __post_init__(self) -> None:
        patterns = [self.pattern_of(c) for c in self.elements]
        if len(set(patterns)) != len(patterns):
            # A basic 1-cover is determined by its A-side values, so a
            # repeat means the construction is broken.
            raise MalformedInput("duplicate A-side patterns in poset elements")
        if self.bottom is None or self.top is None:
            raise MalformedInput("cover poset must be bounded")

    def pattern_of(self, cover: Cover) -> tuple[int, ...]:
        return tuple(cover.values[a - 1] for a in self.side_a)

    def label_of(self, cover: Cover) -> str:
        return "".join(str(x) for x in self.pattern_of(cover))

    def __len__(self) -> int:
        return len(self.elements)

    def index_of(self, cover: Cover) -> int:
        return self.elements.index(cover)

    def leq(self, x: Cover, y: Cover) -> bool:
        return all(p <= q for p, q in zip(self.pattern_of(x), self.pattern_of(y)))

    @cached_property
    def _leq_matrix(self) -> tuple[tuple[bool, ...], ...]:
        pats = [self.pattern_of(c) for c in self.elements]
        return tuple(
            tuple(all(p <= q for p, q in zip(pi, pj)) for pj in pats) for pi in pats
        )

    def leq_by_index(self, i: int, j: int) -> bool:
        return self._leq_matrix[i][j]

    @cached_property
    def bottom(self) -> Cover | None:
        for c in self.elements:
            if all(self.leq(c, d) for d in self.elements):
                return c
        return None

    @cached_property
    def top(self) -> Cover | None:
        for c in self.elements:
            if all(self.leq(d, c) for d in self.elements):
                return c
        return None

    @cached_property
    def cover_relations(self) -> tuple[tuple[int, int], ...]:
        """Hasse edges (i, j) with element i covered by element j."""
        n = len(self.elements)
        leq = self._leq_matrix
        out = []
        for i in range(n):
            for j in range(n):
                if i == j or not leq[i][j]:
                    continue
                if any(
                    k != i and k != j and leq[i][k] and leq[k][j] for k in range(n)
                ):
                    continue
                out.append((i, j))
        return tuple(out)

    @cached_property
    def height_range(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Shortest and longest Hasse-path height of each element above the
        minimal elements."""
        n = len(self.elements)
        leq = self._leq_matrix
        lower: list[list[int]] = [[] for _ in range(n)]
        for i, j in self.cover_relations:
            lower[j].append(i)
        shortest = [0] * n
        longest = [0] * n
        # Fewer elements below comes first: a linear extension.
        for j in sorted(range(n), key=lambda i: sum(leq[j][i] for j in range(n))):
            if lower[j]:
                shortest[j] = 1 + min(shortest[i] for i in lower[j])
                longest[j] = 1 + max(longest[i] for i in lower[j])
        return tuple(shortest), tuple(longest)

    @cached_property
    def element_ranks(self) -> tuple[int, ...]:
        """Longest-chain height of each element above the minimal elements."""
        return self.height_range[1]

    def maximal_chains(self) -> list[tuple[Cover, ...]]:
        n = len(self.elements)
        ups: list[list[int]] = [[] for _ in range(n)]
        for i, j in self.cover_relations:
            ups[i].append(j)
        minimal = [
            i
            for i in range(n)
            if not any(jj == i for _, jj in self.cover_relations)
        ]
        chains: list[tuple[Cover, ...]] = []

        def walk(i: int, acc: list[int]) -> None:
            if not ups[i]:
                chains.append(tuple(self.elements[j] for j in acc))
                return
            for j in sorted(ups[i]):
                walk(j, acc + [j])

        for i in sorted(minimal):
            walk(i, [i])
        return chains

    def hasse_lines(self) -> list[str]:
        return sorted(
            f"{self.label_of(self.elements[i])} < {self.label_of(self.elements[j])}"
            for i, j in self.cover_relations
        )


def build_poset(
    g: Graph, budget: SearchBudget | None = None, side: str = "smaller"
) -> CoverPoset:
    """The poset of basic 1-covers ordered on the chosen bipartition side.

    ``side`` is ``"smaller"`` (the default, |A| <= |B|) or ``"larger"``,
    which yields the order-dual poset and exists for the duality tests.
    """
    side_a, side_b = require_bipartite(g)
    if side == "larger":
        side_a, side_b = side_b, side_a
    elif side != "smaller":
        raise MalformedInput(f"side must be 'smaller' or 'larger', got {side!r}")
    elements = enumerate_basic_covers(g, 1, budget)
    a = tuple(sorted(side_a))
    b = tuple(sorted(side_b))
    elements = tuple(
        sorted(elements, key=lambda c: tuple(c.values[v - 1] for v in a))
    )
    return CoverPoset(g, elements, a, b)


# --- meet / join candidates ---------------------------------------------------


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


def meet_candidate(poset: CoverPoset, x: Cover, y: Cover) -> Cover | None:
    """The min/max cover when basic, else None (it then cannot be the infimum
    realised inside the poset by this formula)."""
    cand = meet_values(poset, x, y)
    return cand if is_basic(poset.graph, cand) else None


def join_candidate(poset: CoverPoset, x: Cover, y: Cover) -> Cover | None:
    cand = join_values(poset, x, y)
    return cand if is_basic(poset.graph, cand) else None


# --- order-theoretic structure -------------------------------------------------


def rank(poset: CoverPoset) -> int:
    """Length (in edges) of a longest chain."""
    return max(poset.element_ranks)


def is_pure(poset: CoverPoset) -> bool:
    """All maximal chains of the same length.

    A maximal chain is a Hasse path from a minimal to a maximal element, so
    every chain length lies between the shortest and the longest height of
    some maximal element, and both of those are attained.  The poset is
    therefore pure exactly when the least shortest height of a maximal
    element equals the greatest longest height.
    """
    shortest, longest = poset.height_range
    has_upper = {i for i, _ in poset.cover_relations}
    maximal = [i for i in range(len(poset.elements)) if i not in has_upper]
    return min(shortest[i] for i in maximal) == max(longest[i] for i in maximal)


def _unique_extremum(poset: CoverPoset, candidates: list[int], want_min: bool) -> int | None:
    """Index of the unique minimal (or maximal) element among candidates."""
    extremal = [
        i
        for i in candidates
        if not any(
            j != i
            and (poset.leq_by_index(j, i) if want_min else poset.leq_by_index(i, j))
            for j in candidates
        )
    ]
    return extremal[0] if len(extremal) == 1 else None


def infimum(poset: CoverPoset, x: Cover, y: Cover) -> Cover | None:
    n = len(poset.elements)
    xi, yi = poset.index_of(x), poset.index_of(y)
    lowers = [i for i in range(n) if poset.leq_by_index(i, xi) and poset.leq_by_index(i, yi)]
    idx = _unique_extremum(poset, lowers, want_min=False)
    return poset.elements[idx] if idx is not None else None


def supremum(poset: CoverPoset, x: Cover, y: Cover) -> Cover | None:
    n = len(poset.elements)
    xi, yi = poset.index_of(x), poset.index_of(y)
    uppers = [i for i in range(n) if poset.leq_by_index(xi, i) and poset.leq_by_index(yi, i)]
    idx = _unique_extremum(poset, uppers, want_min=True)
    return poset.elements[idx] if idx is not None else None


def is_lattice(poset: CoverPoset) -> bool:
    """Order-theoretic latticehood: every pair has an infimum and a supremum.

    Independent of whether the min/max cover formulas stay basic; the two
    notions diverge exactly on the graphs whose straightening relations
    contain a zero product.
    """
    for x, y in combinations(poset.elements, 2):
        if infimum(poset, x, y) is None or supremum(poset, x, y) is None:
            return False
    return True


def is_distributive(poset: CoverPoset) -> bool:
    if not is_lattice(poset):
        raise NotALattice("distributivity is defined for lattices")
    elems = poset.elements
    inf = {(x, y): infimum(poset, x, y) for x in elems for y in elems}
    sup = {(x, y): supremum(poset, x, y) for x in elems for y in elems}
    for a in elems:
        for b in elems:
            for c in elems:
                if sup[(a, inf[(b, c)])] != inf[(sup[(a, b)], sup[(a, c)])]:
                    return False
    return True


def is_locally_upper_semimodular(poset: CoverPoset) -> bool:
    """Whenever two elements cover u and lie below a common v, some t <= v
    covers both of them."""
    n = len(poset.elements)
    covers_of: list[list[int]] = [[] for _ in range(n)]
    for i, j in poset.cover_relations:
        covers_of[i].append(j)
    cover_pairs = set(poset.cover_relations)
    for u in range(n):
        for v1, v2 in combinations(covers_of[u], 2):
            for v in range(n):
                if not (poset.leq_by_index(v1, v) and poset.leq_by_index(v2, v)):
                    continue
                ok = any(
                    poset.leq_by_index(t, v)
                    and (v1, t) in cover_pairs
                    and (v2, t) in cover_pairs
                    for t in range(n)
                )
                if not ok:
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

    def order_ideals(self) -> list[frozenset[str]]:
        ideals: list[frozenset[str]] = []
        elems = self.elements
        for r in range(len(elems) + 1):
            for subset in combinations(elems, r):
                s = frozenset(subset)
                if all(x in s for y in s for x in elems if self.leq(x, y)):
                    ideals.append(s)
        return ideals

    def maximal_chain_lengths(self) -> set[int]:
        downs = {
            y: [x for x in self.elements if x != y and self.leq(x, y)]
            for y in self.elements
        }

        def height(y: str) -> int:
            below = downs[y]
            return 0 if not below else 1 + max(height(x) for x in below)

        maximal = [
            y
            for y in self.elements
            if not any(x != y and self.leq(y, x) for x in self.elements)
        ]
        return {height(y) for y in maximal}


def birkhoff_poset(poset: CoverPoset) -> BirkhoffPoset:
    """Join-irreducibles (elements with exactly one lower cover) of a
    distributive cover poset, under the induced order."""
    if not is_distributive(poset):
        raise NotDistributive("the Birkhoff decomposition needs a distributive lattice")
    lower_covers: dict[int, list[int]] = {i: [] for i in range(len(poset.elements))}
    for i, j in poset.cover_relations:
        lower_covers[j].append(i)
    irreducible = [j for j, lows in lower_covers.items() if len(lows) == 1]
    labels = {j: poset.label_of(poset.elements[j]) for j in irreducible}
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
    """Faces are the chains of the poset; facets are its maximal chains."""
    facets = [
        frozenset(poset.label_of(c) for c in chain)
        for chain in poset.maximal_chains()
    ]
    return SimplicialComplex.from_facets(facets)


def count_multichains(poset: CoverPoset, d: int) -> int:
    """Number of weakly increasing d-element sequences, by dynamic programming
    over a linear extension (sorted by rank, then A-side pattern)."""
    if d < 0:
        raise MalformedInput("multichain length must be >= 0")
    if d == 0:
        return 1
    n = len(poset.elements)
    ranks = poset.element_ranks
    order = sorted(range(n), key=lambda i: (ranks[i], poset.pattern_of(poset.elements[i])))
    counts = {i: 1 for i in range(n)}
    for _ in range(d - 1):
        counts = {
            j: sum(counts[i] for i in order if poset.leq_by_index(i, j))
            for j in order
        }
    return sum(counts.values())


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

    rank: int
    side_a_size: int
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
    poset_rank = rank(poset)
    hypothesis = poset_rank == len(poset.side_a)
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
        rank=poset_rank,
        side_a_size=len(poset.side_a),
        hypothesis_holds=hypothesis,
        pure=pure,
        shellable=shellable,
        strongly_connected=connected,
        verdict=verdict,
    )
