"""Finite simple graphs and the classical invariants the rest of the package
builds on: matchings, perfect matchings, paired domination, induced
matchings, bipartitions and connectivity.

Vertices are the integers 1..n.  Loops, multiple edges and isolated
vertices are rejected at construction time; every operation here is a pure
function of an immutable :class:`Graph`.  The matching and domination
searches are exact: branch-and-bound or subset search guarded by a
:class:`~basiccovers.budget.SearchBudget`, never a heuristic.

A graph has one adjacency, :attr:`Graph.neighbour_masks`: one int per
vertex with bit w set for each neighbour w.  Every search in the package
reads it, and vertex sets travel as masks of the same shape.  Components
and the bipartition come from one breadth-first search over layers of
such masks (``_two_colourings``).  Every matching question goes through
one pair of kernels, each restricted to a vertex mask: ``_matching_size``
for the maximum matching and ``_perfect_matchings`` for counting perfect
matchings up to a limit.  ``enumerate_perfect_matchings`` lists the
matchings themselves and is the tests' oracle for that counter.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from functools import cached_property, reduce
from itertools import combinations
from operator import or_

from .budget import SearchBudget, default_budget
from .errors import (
    DimensionMismatch,
    IsolatedVertex,
    LoopEdge,
    MalformedInput,
    NotBipartite,
)

Edge = tuple[int, int]


def _is_int(x) -> bool:
    # bool is a subclass of int, and JSON true/false load as bool.
    return isinstance(x, int) and not isinstance(x, bool)


def _canonical_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """A simple undirected graph on vertex set {1, ..., vertex_count}.

    Edges are stored canonically (smaller label first, sorted tuple), and
    :attr:`neighbour_masks`, built from them on first use, is the only
    adjacency.  ``names`` optionally maps labels to display strings, e.g.
    after a projection collapsed several original vertices into one.
    """

    vertex_count: int
    edges: tuple[Edge, ...]
    names: tuple[str, ...] | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        n = self.vertex_count
        if n < 1:
            raise MalformedInput(f"vertex count must be positive, got {n}")
        seen: set[Edge] = set()
        covered = [False] * (n + 1)
        for u, v in self.edges:
            if u == v:
                raise LoopEdge(f"loop edge {{{u},{v}}} is not allowed")
            if not (1 <= u < v <= n):
                raise MalformedInput(
                    f"edge {{{u},{v}}} is not canonical for vertex count {n}"
                )
            if (u, v) in seen:
                raise MalformedInput(f"duplicate edge {{{u},{v}}}")
            seen.add((u, v))
            covered[u] = covered[v] = True
        for v in range(1, n + 1):
            if not covered[v]:
                raise IsolatedVertex(
                    f"vertex {v} lies on no edge; isolated vertices are rejected"
                )
        if self.names is not None and len(self.names) != n:
            raise MalformedInput("names table must have one entry per vertex")

    @classmethod
    def from_edges(
        cls,
        edges,
        vertex_count: int | None = None,
        names: tuple[str, ...] | None = None,
    ) -> "Graph":
        """Build a graph from an iterable of 2-element edge pairs.

        Labels must be ints; bools, floats and strings are rejected rather
        than coerced.  The vertex count defaults to the largest label that
        occurs.
        """
        edges = list(edges)
        for u, v in edges:
            if not (_is_int(u) and _is_int(v)):
                raise MalformedInput(
                    f"vertex labels must be integers, got [{u!r}, {v!r}]"
                )
        canon = sorted({_canonical_edge(u, v) for u, v in edges})
        for u, v in canon:
            if u == v:
                raise LoopEdge(f"loop edge {{{u},{v}}} is not allowed")
            if u < 1:
                raise MalformedInput(f"vertex labels must be >= 1, got {u}")
        if not canon:
            raise MalformedInput("a graph needs at least one edge")
        n = vertex_count if vertex_count is not None else max(v for _, v in canon)
        return cls(n, tuple(canon), names)

    def __getstate__(self) -> dict:
        # Only the fields: cached values are rebuilt on demand, and the
        # cover-poset memo is a weak reference, which cannot be pickled.
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @cached_property
    def neighbour_masks(self) -> tuple[int, ...]:
        """``neighbour_masks[v]`` has bit w set for each neighbour w of v;
        entry 0 is unused.  The graph's only adjacency: every search reads
        it."""
        return _neighbour_masks(self.vertex_count, self.edges)

    @property
    def vertices(self) -> range:
        return range(1, self.vertex_count + 1)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        """Is {u, v} an edge?  False for any label that is not an int in
        1..n."""
        return (
            _is_int(u)
            and _is_int(v)
            and 1 <= u <= self.vertex_count
            and v >= 1
            and bool(self.neighbour_masks[u] >> v & 1)
        )

    def display(self, v: int) -> str:
        if self.names is not None:
            return self.names[v - 1]
        return str(v)


# --- parsing --------------------------------------------------------------


def parse_graph(text: str) -> Graph:
    """Parse edge-list text or a structured JSON document into a Graph.

    Edge-list format: one edge per line as two 1-based labels separated by
    whitespace, ``#`` starts a comment, and an optional header line
    ``n <count>`` declares the vertex count.  A document starting with
    ``{`` is treated as JSON with fields ``n`` and ``edges`` (and an
    optional ``names`` list of strings, one per vertex).
    """
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return _parse_structured(stripped)

    declared_n: int | None = None
    edges: list[Edge] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "n":
            if declared_n is not None or edges:
                raise MalformedInput(
                    f"line {lineno}: header 'n <count>' must come first and only once"
                )
            if len(parts) != 2:
                raise MalformedInput(f"line {lineno}: malformed header {line!r}")
            try:
                declared_n = int(parts[1])
            except ValueError:
                raise MalformedInput(
                    f"line {lineno}: vertex count {parts[1]!r} is not an integer"
                ) from None
            continue
        if len(parts) != 2:
            raise MalformedInput(
                f"line {lineno}: expected two vertex labels, got {line!r}"
            )
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise MalformedInput(
                f"line {lineno}: labels must be integers, got {line!r}"
            ) from None
        if u == v:
            raise LoopEdge(f"line {lineno}: loop edge {{{u},{v}}}")
        if u < 1 or v < 1:
            raise MalformedInput(f"line {lineno}: labels must be >= 1")
        edges.append(_canonical_edge(u, v))
    if not edges:
        raise MalformedInput("no edges found in input")
    return Graph.from_edges(edges, vertex_count=declared_n)


def _parse_structured(text: str) -> Graph:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedInput(f"invalid JSON document: {exc}") from None
    if not isinstance(doc, dict) or "edges" not in doc:
        raise MalformedInput("structured document needs an 'edges' field")
    edges = doc["edges"]
    if not isinstance(edges, list) or not all(
        isinstance(e, list) and len(e) == 2 for e in edges
    ):
        raise MalformedInput("'edges' must be a list of 2-element lists")
    n = doc.get("n")
    if n is not None and not _is_int(n):
        raise MalformedInput(f"'n' must be an integer, got {n!r}")
    names = doc.get("names")
    if names is not None:
        if not isinstance(names, list) or not all(isinstance(s, str) for s in names):
            raise MalformedInput(f"'names' must be a list of strings, got {names!r}")
        names = tuple(names)
    return Graph.from_edges(edges, vertex_count=n, names=names)


def graph_to_text(g: Graph) -> str:
    lines = [f"n {g.vertex_count}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


# --- small constructors (used by fixtures and tests) -----------------------


def path_graph(n: int) -> Graph:
    return Graph.from_edges([(i, i + 1) for i in range(1, n)])


def cycle_graph(n: int) -> Graph:
    return Graph.from_edges([(i, i + 1) for i in range(1, n)] + [(n, 1)])


def star_graph(leaves: int) -> Graph:
    return Graph.from_edges([(1, i) for i in range(2, leaves + 2)])


def complete_bipartite(a: int, b: int) -> Graph:
    return Graph.from_edges([(i, a + j) for i in range(1, a + 1) for j in range(1, b + 1)])


# --- neighbour masks ---------------------------------------------------------


def _neighbour_masks(n: int, edges) -> tuple[int, ...]:
    """Entry v has bit w set for each edge {v, w}; entry 0 is unused."""
    nbr = [0] * (n + 1)
    for u, v in edges:
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u
    return tuple(nbr)


def _vertex_mask(vertices) -> int:
    return sum(1 << v for v in vertices)


def _bits(mask: int):
    """The vertices of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _two_colourings(nbr: tuple[int, ...], mask: int):
    """Breadth-first search over the components of the vertices in
    ``mask``, whose neighbours ``nbr`` must stay inside it, lowest vertex
    first.  Yields, per component, the masks of its vertices at even and at
    odd distance from its lowest vertex, and whether no edge joins two
    vertices at one distance.  Edges join equal or consecutive distances,
    so that holds exactly when the two masks are a proper 2-colouring."""
    while mask:
        layer = seen = mask & -mask
        sides = [0, 0]
        parity = 0
        proper = True
        while layer:
            sides[parity] |= layer
            reach = 0
            for v in _bits(layer):
                reach |= nbr[v]
            proper = proper and not reach & layer
            layer = reach & ~seen
            seen |= layer
            parity ^= 1
        mask &= ~seen
        yield sides[0], sides[1], proper


# --- connectivity and bipartition ------------------------------------------


def connected_components(g: Graph) -> list[frozenset[int]]:
    """The vertex sets of the components, by ascending lowest vertex."""
    return [
        frozenset(_bits(even | odd))
        for even, odd, _ in _two_colourings(g.neighbour_masks, _vertex_mask(g.vertices))
    ]


def is_connected(g: Graph) -> bool:
    return len(connected_components(g)) == 1


def bipartition(g: Graph) -> tuple[frozenset[int], frozenset[int]] | None:
    """The two colour classes (A, B) with |A| <= |B|, or None if not bipartite.

    Per connected component the class containing the component's smallest
    vertex goes to A first; if the assembled A ends up larger the sides are
    swapped.  Vertex 1 starts in A, so on a tie A is the side containing
    vertex 1.  This makes downstream poset constructions deterministic.
    """
    side_a = side_b = 0
    for even, odd, proper in _two_colourings(g.neighbour_masks, _vertex_mask(g.vertices)):
        if not proper:
            return None
        side_a |= even
        side_b |= odd
    if side_a.bit_count() > side_b.bit_count():
        side_a, side_b = side_b, side_a
    return frozenset(_bits(side_a)), frozenset(_bits(side_b))


def is_bipartite(g: Graph) -> bool:
    return bipartition(g) is not None


def is_tree(g: Graph) -> bool:
    return is_connected(g) and g.edge_count == g.vertex_count - 1


# --- matchings --------------------------------------------------------------


def _matching_size(nbr: tuple[int, ...], mask: int, left: int | None) -> int:
    """Maximum matching of the subgraph induced on ``mask``.

    ``left`` is a colour class of a bipartite host, whose restriction to
    ``mask`` is a colour class of the subgraph; then one augmenting-path
    search per left vertex decides the size (Berge).  With ``left`` None
    the subgraph may hold odd cycles, and an exact branch and bound
    decides it.
    """
    if left is None:
        return _branch_matching(nbr, mask, 0, 0)
    mate: dict[int, int] = {}  # right vertex -> its left partner
    return sum(_augment(nbr, mask, mate, set(), x) for x in _bits(mask & left))


def _augment(nbr, mask: int, mate: dict[int, int], visited: set[int], x: int) -> bool:
    """Find an augmenting path from left vertex x and flip it."""
    for y in _bits(nbr[x] & mask):
        if y not in visited:
            visited.add(y)
            if y not in mate or _augment(nbr, mask, mate, visited, mate[y]):
                mate[y] = x
                return True
    return False


def _branch_matching(nbr, active: int, best: int, size: int) -> int:
    """Match a degree-1 vertex to its neighbour, which some maximum matching
    does; failing that, leave a max-degree vertex unmatched or match it to
    each neighbour in turn.  The result is at least ``best``."""
    degree = {x: (nbr[x] & active).bit_count() for x in _bits(active)}
    live = [x for x, d in degree.items() if d]
    if not live:
        return max(best, size)
    # Cheap upper bound: at most half of the live vertices can be matched.
    if size + len(live) // 2 <= best:
        return best
    v = min(live, key=degree.__getitem__)
    if degree[v] == 1:
        return _branch_matching(nbr, active & ~(1 << v | nbr[v]), best, size + 1)
    v = max(live, key=degree.__getitem__)  # the lowest label on ties
    active &= ~(1 << v)
    best = _branch_matching(nbr, active, best, size)
    for w in _bits(nbr[v] & active):
        best = _branch_matching(nbr, active & ~(1 << w), best, size + 1)
    return best


def _perfect_matchings(nbr: tuple[int, ...], mask: int, limit: int) -> int:
    """Number of perfect matchings of the subgraph induced on ``mask``,
    counted up to ``limit`` (at least 1): the lowest vertex is matched to
    each neighbour in turn."""
    if mask.bit_count() % 2:
        return 0
    if not mask:
        return 1
    low = mask & -mask
    rest = mask ^ low
    count = 0
    for w in _bits(nbr[low.bit_length() - 1] & rest):
        count += _perfect_matchings(nbr, rest & ~(1 << w), limit - count)
        if count == limit:
            break
    return count


def matching_number(g: Graph) -> int:
    """The exact maximum matching size.

    Bipartite graphs use augmenting paths; general graphs fall back to an
    exact branch and bound.  Both routes are cross-checked against a subset
    oracle in the tests.
    """
    sides = bipartition(g)
    left = None if sides is None else _vertex_mask(sides[0])
    return _matching_size(g.neighbour_masks, _vertex_mask(g.vertices), left)


def enumerate_perfect_matchings(
    g: Graph, budget: SearchBudget | None = None
) -> list[tuple[Edge, ...]]:
    """All perfect matchings as sorted edge tuples, in sorted order; empty
    list if none exist."""
    budget = budget or default_budget()
    budget.check_graph(g.vertex_count, g.edge_count, "enumerate_perfect_matchings")
    if g.vertex_count % 2 == 1:
        return []
    found: list[tuple[Edge, ...]] = []
    _extend_perfect(g.neighbour_masks, _vertex_mask(g.vertices), [], found)
    return sorted(found)


def _extend_perfect(
    nbr: tuple[int, ...], uncovered: int, chosen: list[Edge], found: list
) -> None:
    """Append to ``found`` every perfect matching of the vertices in the
    mask ``uncovered`` that extends ``chosen``, matching the least
    uncovered vertex first."""
    if not uncovered:
        found.append(tuple(sorted(chosen)))
        return
    low = uncovered & -uncovered
    v = low.bit_length() - 1
    rest = uncovered ^ low
    for w in _bits(nbr[v] & rest):
        chosen.append((v, w))
        _extend_perfect(nbr, rest ^ 1 << w, chosen, found)
        chosen.pop()


# --- domination and induced matchings --------------------------------------


def paired_domination_number(g: Graph, budget: SearchBudget | None = None) -> int:
    """Minimum size of a dominating set whose induced subgraph has a
    perfect matching, found by exact subset search over even sizes.

    A maximal matching's vertex set always qualifies, so the search
    terminates for every graph without isolated vertices.
    """
    budget = budget or default_budget()
    budget.check_graph(g.vertex_count, g.edge_count, "paired_domination_number")
    nbr = g.neighbour_masks
    closed = [reach | 1 << v for v, reach in enumerate(nbr)]
    every = _vertex_mask(g.vertices)
    for size in range(2, g.vertex_count + 1, 2):
        for subset in combinations(g.vertices, size):
            # Dominating: every vertex is in the set or next to it.
            if reduce(or_, map(closed.__getitem__, subset)) != every:
                continue
            if _perfect_matchings(nbr, _vertex_mask(subset), 1):
                return size
    raise AssertionError("a paired-dominating set always exists")  # pragma: no cover


def induced_matching_number(g: Graph, budget: SearchBudget | None = None) -> int:
    """Maximum number of pairwise disconnected edges: disjoint edges with no
    edge of g connecting any two of them.

    Equivalent to a maximum independent set in the edge-conflict graph,
    solved by branch and bound.
    """
    budget = budget or default_budget()
    budget.check_graph(g.vertex_count, g.edge_count, "induced_matching_number")
    edges = g.edges
    nbr = g.neighbour_masks
    m = len(edges)
    conflict: list[set[int]] = [set() for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            if _edges_connected(nbr, edges[i], edges[j]):
                conflict[i].add(j)
                conflict[j].add(i)

    best = 0

    def recurse(candidates: list[int], size: int) -> None:
        nonlocal best
        if size > best:
            best = size
        if size + len(candidates) <= best:
            return
        for idx, e in enumerate(candidates):
            rest = [f for f in candidates[idx + 1 :] if f not in conflict[e]]
            recurse(rest, size + 1)

    recurse(list(range(m)), 0)
    # recurse refers to itself through its closure; clearing the name frees
    # the search on return rather than at the next cyclic collection.
    del recurse
    return best


def _edges_connected(nbr: tuple[int, ...], e: Edge, f: Edge) -> bool:
    """True if e and f share a vertex or some edge joins them."""
    (x, y), (u, v) = e, f
    return bool((1 << x | 1 << y | nbr[x] | nbr[y]) & (1 << u | 1 << v))


# --- misc helpers -----------------------------------------------------------


def check_values(g: Graph, values) -> tuple[int, ...]:
    """Validate that ``values`` is one natural number per vertex.

    Values must be ints; bools, floats and strings are rejected rather than
    coerced.
    """
    vals = tuple(values)
    for x in vals:
        if not _is_int(x):
            raise MalformedInput(f"cover values must be integers, got {x!r}")
    if len(vals) != g.vertex_count:
        raise DimensionMismatch(
            f"expected {g.vertex_count} values, got {len(vals)}"
        )
    if any(x < 0 for x in vals):
        raise MalformedInput("cover values must be non-negative")
    return vals


def require_bipartite(g: Graph) -> tuple[frozenset[int], frozenset[int]]:
    sides = bipartition(g)
    if sides is None:
        raise NotBipartite("operation requires a bipartite graph")
    return sides
