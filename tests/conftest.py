"""Shared graph generators and independent brute-force oracles.

The oracles deliberately avoid the production code paths they check:
basic covers come from a full product scan with single-step descent,
matchings from exhaustive enumeration, and free parameter sets from
permutation search with their own validity check.  The graph-structure
oracles (adjacency, components, bipartiteness, right edges, maximal
independent sets and basicness) read only ``g.edges``, never the
neighbour masks the package searches run on.
"""

from __future__ import annotations

import random
from itertools import combinations, permutations, product

import pytest

from basiccovers.covers import is_k_cover
from basiccovers.fixtures import FIXTURE_NAMES, corpus, verify_corpus
from basiccovers.graph import Graph
from basiccovers.poset import CoverPoset


@pytest.fixture(scope="session", autouse=True)
def _corpus_integrity():
    verify_corpus()


@pytest.fixture(scope="session")
def fixtures() -> dict[str, Graph]:
    return dict(corpus())


def fixture_items():
    return [(name, corpus()[name]) for name in FIXTURE_NAMES]


# --- random generators (all deterministic via explicit seeds) ---------------


def random_connected_graph(rng: random.Random, n: int) -> Graph:
    """Random spanning tree plus a few extra edges."""
    order = list(range(1, n + 1))
    rng.shuffle(order)
    edges = set()
    for i in range(1, n):
        j = rng.randrange(i)
        u, v = order[i], order[j]
        edges.add((min(u, v), max(u, v)))
    for _ in range(rng.randrange(0, n)):
        u, v = rng.sample(range(1, n + 1), 2)
        edges.add((min(u, v), max(u, v)))
    return Graph.from_edges(edges, vertex_count=n)


def random_tree(rng: random.Random, n: int) -> Graph:
    """Uniform random tree from a Pruefer sequence."""
    if n == 2:
        return Graph.from_edges([(1, 2)])
    seq = [rng.randint(1, n) for _ in range(n - 2)]
    degree = [1] * (n + 1)
    for v in seq:
        degree[v] += 1
    edges = []
    leaves = sorted(v for v in range(1, n + 1) if degree[v] == 1)
    for v in seq:
        leaf = leaves.pop(0)
        edges.append((min(leaf, v), max(leaf, v)))
        degree[v] -= 1
        if degree[v] == 1:
            import bisect

            bisect.insort(leaves, v)
    u, v = leaves
    edges.append((min(u, v), max(u, v)))
    return Graph.from_edges(edges, vertex_count=n)


def random_bipartite_graph(rng: random.Random, n: int) -> Graph:
    """Random bipartite graph without isolated vertices (not always connected)."""
    a = rng.randint(1, max(1, n // 2))
    b = n - a
    while True:
        edges = set()
        for i in range(1, a + 1):
            for j in range(a + 1, n + 1):
                if rng.random() < 0.5:
                    edges.add((i, j))
        covered = {v for e in edges for v in e}
        if len(covered) == n and edges:
            return Graph.from_edges(edges, vertex_count=n)
        # Resample rather than patching, to keep the distribution simple.
        if b == 0:
            raise AssertionError("unreachable")


def relabelled_bipartite_graph(rng: random.Random, n: int) -> Graph:
    """:func:`random_bipartite_graph` under a random permutation of the
    labels, so side A is not always the labels 1..a."""
    g = random_bipartite_graph(rng, n)
    label = list(range(1, n + 1))
    rng.shuffle(label)
    return Graph.from_edges(
        [(label[u - 1], label[v - 1]) for u, v in g.edges], vertex_count=n
    )


def whiskered(core: Graph, doubled: tuple[int, ...] = ()) -> Graph:
    """Attach one pendant leaf to every core vertex (two to ``doubled``).

    Pendant edges always satisfy the square condition, so the result is a
    WSC graph regardless of the core.
    """
    edges = list(core.edges)
    next_label = core.vertex_count + 1
    for v in core.vertices:
        edges.append((v, next_label))
        next_label += 1
        if v in doubled:
            edges.append((v, next_label))
            next_label += 1
    return Graph.from_edges(edges, vertex_count=next_label - 1)


# --- oracles -----------------------------------------------------------------


def brute_force_basic_covers(g: Graph, k: int) -> list[tuple[int, ...]]:
    """Scan {0..k}^n; keep k-covers no single decrement of which stays one."""
    out = []
    n = g.vertex_count
    for vals in product(range(k + 1), repeat=n):
        if not is_k_cover(g, vals, k):
            continue
        minimal = True
        for i in range(n):
            if vals[i] == 0:
                continue
            dec = vals[:i] + (vals[i] - 1,) + vals[i + 1 :]
            if any(dec) and is_k_cover(g, dec, k):
                minimal = False
                break
        if minimal:
            out.append(vals)
    return sorted(out)


def brute_force_matching_number(g: Graph) -> int:
    """Largest matching over exhaustive edge-subset enumeration."""
    best = 0

    def extend(idx: int, used: set[int], size: int) -> None:
        nonlocal best
        best = max(best, size)
        for i in range(idx, len(g.edges)):
            u, v = g.edges[i]
            if u not in used and v not in used:
                extend(i + 1, used | {u, v}, size + 1)

    extend(0, set(), 0)
    return best


def enumerate_matchings(g: Graph) -> list[frozenset]:
    """All matchings of g as edge sets, the empty one included, by
    exhaustive search."""
    edges = g.edges
    out: list[frozenset] = []

    def extend(index: int, chosen: list, used: set[int]) -> None:
        out.append(frozenset(chosen))
        for i in range(index, len(edges)):
            u, v = edges[i]
            if u not in used and v not in used:
                extend(i + 1, chosen + [edges[i]], used | {u, v})

    extend(0, [], set())
    return out


def brute_force_paired_domination(g: Graph) -> int:
    """Fewest vertices of a matching whose vertex set dominates g.

    A vertex set whose induced subgraph has a perfect matching is exactly
    the vertex set of a matching, so this scans ``enumerate_matchings``
    and checks domination directly on the edge set.
    """
    edges = set(g.edges)

    def dominates(chosen: set[int]) -> bool:
        return all(
            v in chosen or any((min(v, w), max(v, w)) in edges for w in chosen)
            for v in g.vertices
        )

    return min(
        2 * len(m)
        for m in enumerate_matchings(g)
        if m and dominates({v for e in m for v in e})
    )


def brute_force_least_free_parameter_sequence(
    g: Graph,
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The lexicographically least maximum-length free parameter sequence.

    Sequences compare as (a1, b1, a2, b2, ...).  Scans every pair of
    ordered vertex sequences, longest first, and checks the definition
    directly on the edge set (tiny graphs only).
    """
    edges = set(g.edges)

    def adjacent(u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in edges

    def valid(a_seq: tuple[int, ...], b_seq: tuple[int, ...]) -> bool:
        for i, ai in enumerate(a_seq):
            if not adjacent(ai, b_seq[i]):
                return False
            for j in range(len(a_seq)):
                if j != i and adjacent(ai, a_seq[j]):
                    return False
                if j < i and adjacent(ai, b_seq[j]):
                    return False
        return True

    verts = list(g.vertices)
    for r in range(len(verts) // 2, 0, -1):
        found = [
            tuple(x for pair in zip(a_seq, b_seq) for x in pair)
            for a_seq in permutations(verts, r)
            for b_seq in permutations([v for v in verts if v not in a_seq], r)
            if valid(a_seq, b_seq)
        ]
        if found:
            least = min(found)
            return least[0::2], least[1::2]
    raise AssertionError("every edge is a free parameter sequence of length 1")


def brute_force_gdim(g: Graph) -> int:
    """Longest free parameter sequence plus one, from the scan above."""
    return len(brute_force_least_free_parameter_sequence(g)[0]) + 1


def brute_force_shellable(facets) -> bool:
    """Does some order of the facets of a pure complex shell it?  Tries
    every order (at most 6 facets) against the definition: each facet
    meets the union of the earlier ones in a pure complex one dimension
    lower, whose facets are the maximal intersections with earlier facets.
    """
    facets = [frozenset(f) for f in facets]
    assert len(facets) <= 6, "the order scan is for tiny complexes"

    def glued_in_codimension_one(earlier, f) -> bool:
        walls = {e & f for e in earlier}
        return all(
            len(w) == len(f) - 1 for w in walls if not any(w < x for x in walls)
        )

    return any(
        all(glued_in_codimension_one(order[:j], order[j]) for j in range(1, len(order)))
        for order in permutations(facets)
    )


def maximal_chains(poset: CoverPoset) -> list[tuple]:
    """The maximal chains of the poset's Hasse walk (the one its order
    complex is built from), as tuples of covers."""
    elements = poset.elements
    return [tuple(elements[i] for i in chain) for chain in poset._index_chains()]


# --- graph-structure oracles on the edge list ------------------------------


def adjacent_by_edges(g: Graph, u: int, v: int) -> bool:
    """Is {u, v} one of ``g.edges``?"""
    return (min(u, v), max(u, v)) in g.edges


def components_by_edges(g: Graph) -> list[frozenset[int]]:
    """Vertex sets of the components, by ascending lowest vertex: merge the
    two parts of every edge until no edge joins two parts."""
    parts = [{v} for v in g.vertices]
    for u, v in g.edges:
        pu = next(p for p in parts if u in p)
        pv = next(p for p in parts if v in p)
        if pu is not pv:
            pu |= pv
            parts.remove(pv)
    return sorted((frozenset(p) for p in parts), key=min)


def is_bipartite_by_edges(g: Graph) -> bool:
    """Does some 0/1 colouring of the vertices give every edge two colours?"""
    return any(
        all(colour[u - 1] != colour[v - 1] for u, v in g.edges)
        for colour in product((0, 1), repeat=g.vertex_count)
    )


def right_edges_by_edges(g: Graph) -> tuple[tuple[int, int], ...]:
    """Edges {i, j} such that every neighbour of i other than j and every
    neighbour of j other than i are two distinct, adjacent vertices."""

    def others(x: int, skip: int) -> list[int]:
        return [w for e in g.edges if x in e for w in e if w not in (x, skip)]

    return tuple(
        (i, j)
        for i, j in g.edges
        if all(
            ip != jp and adjacent_by_edges(g, ip, jp)
            for ip in others(i, j)
            for jp in others(j, i)
        )
    )


def maximal_independent_sets_by_edges(g: Graph) -> set[frozenset[int]]:
    """Every vertex subset with no edge inside to which no vertex can be
    added, by a scan of all subsets."""

    def independent(s) -> bool:
        return not any(u in s and v in s for u, v in g.edges)

    out = set()
    for size in range(1, g.vertex_count + 1):
        for subset in combinations(g.vertices, size):
            s = set(subset)
            if independent(s) and not any(
                independent(s | {v}) for v in g.vertices if v not in s
            ):
                out.add(frozenset(s))
    return out


def basic_verdict_by_edges(g: Graph, vals: tuple[int, ...], k: int) -> bool | None:
    """None when ``vals`` is no k-cover (all zero, or some edge sums below
    k); otherwise whether every positive vertex lies on an edge summing to
    exactly k."""
    if not any(vals) or any(vals[u - 1] + vals[v - 1] < k for u, v in g.edges):
        return None
    tight = {w for u, v in g.edges if vals[u - 1] + vals[v - 1] == k for w in (u, v)}
    return all(x == 0 or v in tight for v, x in enumerate(vals, start=1))
