"""Simplicial complexes given by their facets: order complexes of cover
posets and independence complexes of graphs, with the two combinatorial
certificates used throughout the package, strong connectivity and
shellability.

Shellability is decided exactly by a subset dynamic program over facet
sets (a prefix's usability does not depend on its internal order).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby

from .budget import SearchBudget, default_budget
from .errors import MalformedInput, NotPure
from .graph import Graph, _bits, _vertex_mask


@dataclass(frozen=True)
class SimplicialComplex:
    """A complex described by its facets over hashable vertex labels."""

    facets: tuple[frozenset, ...]

    def __post_init__(self) -> None:
        if not self.facets:
            raise MalformedInput("a complex needs at least one facet")
        for i, f in enumerate(self.facets):
            for j, h in enumerate(self.facets):
                if i != j and f <= h:
                    raise MalformedInput("no facet may contain another")

    @classmethod
    def from_facets(cls, facets) -> "SimplicialComplex":
        """The complex generated by ``facets``: faces contained in others are
        dropped, repeats merged, and the rest sorted deterministically.

        That scan already guarantees what the constructor checks, so the
        result is built by :meth:`_from_maximal` without repeating it.
        """
        sets = {frozenset(f) for f in facets}
        if not sets:
            raise MalformedInput("a complex needs at least one facet")
        # Largest first: a face lies in some larger set exactly when it lies
        # in a larger maximal one, and same-size sets never contain another.
        maximal: list[frozenset] = []
        for _, group in groupby(sorted(sets, key=len, reverse=True), key=len):
            larger = tuple(maximal)
            maximal += [f for f in group if not any(f < h for h in larger)]
        return cls._from_maximal(maximal)

    @classmethod
    def _from_maximal(cls, facets) -> "SimplicialComplex":
        """The complex on ``facets``, distinct sets none of which contains
        another, sorted as :meth:`from_facets` sorts them.  The caller
        vouches for both conditions; nothing here checks them."""
        complex_ = object.__new__(cls)
        object.__setattr__(
            complex_,
            "facets",
            tuple(sorted(facets, key=lambda f: (len(f), sorted(map(str, f))))),
        )
        return complex_

    @property
    def is_pure(self) -> bool:
        sizes = {len(f) for f in self.facets}
        return len(sizes) == 1

    @property
    def dimension(self) -> int:
        return max(len(f) for f in self.facets) - 1

    def facet_lines(self) -> list[str]:
        return [
            "{" + " ".join(sorted(map(str, f))) + "}" for f in self.facets
        ]


def independence_complex(g: Graph, budget: SearchBudget | None = None) -> SimplicialComplex:
    """The complex whose faces are the independent sets of g (facets are the
    maximal independent sets)."""
    budget = budget or default_budget()
    budget.check_graph(g.vertex_count, g.edge_count, "independence_complex")
    nbr = g.neighbour_masks
    facets: list[int] = []

    def extend(candidates: int, chosen: int, excluded: int) -> None:
        """Branch on the lowest candidate; all three arguments are vertex
        masks."""
        if not candidates:
            # Maximal iff every excluded vertex has a neighbour chosen.
            if all(nbr[v] & chosen for v in _bits(excluded)):
                facets.append(chosen)
            return
        low = candidates & -candidates
        rest = candidates ^ low
        extend(rest & ~nbr[low.bit_length() - 1], chosen | low, excluded)
        extend(rest, chosen, excluded | low)

    extend(_vertex_mask(g.vertices), 0, 0)
    # extend refers to itself through its closure; clearing the name frees
    # the search on return rather than at the next cyclic collection.
    del extend
    return SimplicialComplex.from_facets(frozenset(_bits(f)) for f in facets)


def _facet_adjacent(f: frozenset, h: frozenset) -> bool:
    return len(f & h) == len(f) - 1


def is_strongly_connected(c: SimplicialComplex) -> bool:
    """Can one walk between any two facets through codimension-one overlaps?"""
    if not c.is_pure:
        raise NotPure("strong connectivity is defined for pure complexes")
    facets = c.facets
    if len(facets) == 1:
        return True
    seen = {0}
    stack = [0]
    while stack:
        i = stack.pop()
        for j in range(len(facets)):
            if j not in seen and _facet_adjacent(facets[i], facets[j]):
                seen.add(j)
                stack.append(j)
    return len(seen) == len(facets)


def _can_append(facets: tuple[frozenset, ...], used: tuple[int, ...], j: int) -> bool:
    """Shelling step: every old intersection with facet j must sit inside a
    codimension-one old intersection."""
    fj = facets[j]
    big = [facets[i] & fj for i in used if len(facets[i] & fj) == len(fj) - 1]
    for i in used:
        inter = facets[i] & fj
        if not any(inter <= b for b in big):
            return False
    return True


def is_shellable(c: SimplicialComplex, budget: SearchBudget | None = None) -> bool:
    """Exhaustive shellability decision for pure complexes.

    A set of already-shelled facets determines which facets may come next,
    so the search memoises dead facet sets.
    """
    if not c.is_pure:
        raise NotPure("shellability is decided for pure complexes only")
    budget = budget or default_budget()
    budget.check_facets(len(c.facets), "is_shellable")
    facets = c.facets
    count = len(facets)
    if count == 1:
        return True
    dead: set[frozenset[int]] = set()
    return any(_shelling_search(facets, dead, (first,)) for first in range(count))


def _shelling_search(facets, dead, used: tuple[int, ...]) -> bool:
    """Can the shelling prefix ``used`` be completed to a full order of
    ``facets``?  ``dead`` collects the prefix sets (as frozensets of facet
    indices) known to admit no completion."""
    if len(used) == len(facets):
        return True
    key = frozenset(used)
    if key in dead:
        return False
    for j in range(len(facets)):
        if j in used:
            continue
        if _can_append(facets, used, j) and _shelling_search(facets, dead, used + (j,)):
            return True
    dead.add(key)
    return False
