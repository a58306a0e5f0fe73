"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with ``pytest tests/test_acceptance.py -v -s``).

Where a criterion checks a structural fact, it compares the package with an
oracle that shares none of its code: criterion 4 rebuilds the path cover
posets from the product-space scan and walks their chains itself.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from itertools import combinations, product

from basiccovers.asl import (
    is_domain_report,
    straightening_relations,
    verify_sum_identity,
)
from basiccovers.complexes import is_shellable, is_strongly_connected
from basiccovers.covers import (
    enumerate_basic_covers,
    hilbert_function,
    krull_dimension_estimate,
    low_half_vertices,
    reconstruct_from_low_half,
)
from basiccovers.errors import NotBipartite
from basiccovers.gdim import gdim_bounds, graphical_dimension
from basiccovers.graph import (
    Graph,
    complete_bipartite,
    matching_number,
    path_graph,
    star_graph,
)
from basiccovers.poset import (
    build_poset,
    cohen_macaulay_report,
    count_multichains,
    is_lattice,
    is_locally_upper_semimodular,
    is_pure,
    order_complex,
    rank,
)
from basiccovers.projection import (
    cm_equivalence_report,
    lift_cover,
    project,
    project_cover,
    right_edges,
    satisfies_wsc,
)

from conftest import (
    brute_force_basic_covers,
    fixture_items,
    maximal_chains,
    random_bipartite_graph,
    random_connected_graph,
    random_tree,
    whiskered,
)


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number:02d} FAIL: {title}")
        raise
    print(f"criterion {number:02d} PASS: {title}")


def _random_connected_corpus(count: int = 50, max_n: int = 8) -> list[Graph]:
    rng = random.Random(2024)
    return [random_connected_graph(rng, rng.randint(2, max_n)) for _ in range(count)]


def _random_bipartite_corpus(count: int = 20, max_n: int = 10) -> list[Graph]:
    rng = random.Random(2025)
    return [random_bipartite_graph(rng, rng.randint(2, max_n)) for _ in range(count)]


def _bipartite_tested_graphs() -> list[Graph]:
    graphs = []
    for _, g in fixture_items():
        try:
            build_poset(g)
            graphs.append(g)
        except NotBipartite:
            continue
    return graphs + _random_bipartite_corpus()


def test_criterion_01_dimension_estimate_equals_search():
    with criterion(1, "basic 2h-cover growth recovers the dimension exactly"):
        graphs = [g for _, g in fixture_items()] + _random_connected_corpus(50)
        for g in graphs:
            data = krull_dimension_estimate(g)
            assert data.stable, g.edges
            assert data.dimension == graphical_dimension(g).gdim, g.edges


def test_criterion_02_bounds_sandwich():
    with criterion(2, "paired domination and matching sandwich the dimension"):
        graphs = [g for _, g in fixture_items()] + _random_connected_corpus(50)
        for g in graphs:
            bounds = gdim_bounds(g)
            value = graphical_dimension(g).gdim
            assert bounds.lower <= value <= bounds.upper, g.edges


def test_criterion_03_trees():
    with criterion(3, "on trees the dimension is the matching number plus one"):
        rng = random.Random(2026)
        trees = [random_tree(rng, rng.randint(2, 10)) for _ in range(200)]
        trees += [path_graph(n) for n in range(2, 11)] + [star_graph(k) for k in range(2, 9)]
        for g in trees:
            assert graphical_dimension(g).gdim == matching_number(g) + 1, g.edges


def _oracle_path_chains(n: int) -> set[frozenset[tuple[int, ...]]]:
    """Maximal chains of the n-vertex path's cover poset, as sets of cover
    values, computed without ``basiccovers.poset``.

    The elements are the basic 1-covers from the product-space scan, ordered
    componentwise on the even vertices.  On the odd vertices the order is the
    dual one, which has the same chains as sets, so the answer does not
    depend on which side the package orders by.
    """
    covers = brute_force_basic_covers(path_graph(n), 1)
    even = range(1, n, 2)
    assert len({tuple(c[i] for i in even) for c in covers}) == len(covers)

    def below(x: tuple[int, ...], y: tuple[int, ...]) -> bool:
        return x != y and all(x[i] <= y[i] for i in even)

    ups = {
        x: [
            y
            for y in covers
            if below(x, y) and not any(below(x, z) and below(z, y) for z in covers)
        ]
        for x in covers
    }
    chains: set[frozenset[tuple[int, ...]]] = set()

    def walk(chain: tuple[tuple[int, ...], ...]) -> None:
        if not ups[chain[-1]]:
            chains.add(frozenset(chain))
        for y in ups[chain[-1]]:
            walk(chain + (y,))

    for x in covers:
        if not any(below(y, x) for y in covers):
            walk((x,))
    return chains


def test_criterion_04_path_posets():
    with criterion(
        4,
        "path cover posets are pure at 7 vertices and non-pure at 6, 8 and 9, "
        "witnessed by chains and matched by an independent oracle",
    ):
        posets = {n: build_poset(path_graph(n)) for n in (6, 7, 8, 9)}
        results = {n: is_pure(p) for n, p in posets.items()}
        assert results == {6: False, 7: True, 8: False, 9: False}
        for n, p in posets.items():
            oracle = _oracle_path_chains(n)
            got = {frozenset(c.values for c in chain) for chain in maximal_chains(p)}
            assert got == oracle, n
            assert results[n] == (len({len(chain) for chain in oracle}) == 1), n

        p6 = posets[6]
        chains = sorted(maximal_chains(p6), key=len, reverse=True)
        assert len(chains) == 2
        long_chain, short_chain = chains
        assert len(long_chain) - 1 == 3 and len(short_chain) - 1 == 2
        stepwise = {
            (0, 1, 1, 0, 1, 0),
            (0, 1, 0, 1, 1, 0),
            (0, 1, 0, 1, 0, 1),
        }
        assert stepwise <= {c.values for c in long_chain}
        assert (1, 0, 1, 1, 0, 1) in {c.values for c in short_chain}

        # P7 is the Boolean lattice on A = {2, 4, 6} without the atom 010:
        # with 2 and 6 out of the cover, 1, 3, 5 and 7 are in, so 4 has no
        # tight edge.
        p7 = posets[7]
        assert len(p7) == 7
        patterns = {p7.pattern_of(c) for c in p7.elements}
        assert patterns == set(product((0, 1), repeat=3)) - {(0, 1, 0)}
        assert all(len(chain) - 1 == 3 for chain in maximal_chains(p7))
        assert rank(p7) == len(p7.side_a) == 3

        # Non-purity witnesses in A-side labels (odd vertices for P8, even
        # vertices for P9): a chain of length 4 and one of length 3.
        witnesses = {
            8: ("0000 0001 0011 0111 1111", "0000 0110 0111 1111"),
            9: ("0000 1000 1100 1110 1111", "0000 0110 0111 1111"),
        }
        for n, (long_labels, short_labels) in witnesses.items():
            p = posets[n]
            labelled = {
                " ".join(p.label_of(c) for c in chain) for chain in maximal_chains(p)
            }
            assert long_labels in labelled and short_labels in labelled, n


def test_criterion_05_seven_vertex_example(fixtures):
    with criterion(5, "the seven-vertex example: poset, complex and verdict"):
        e7 = fixtures["E7"]
        assert right_edges(e7) == ((1, 4), (2, 5), (3, 6))
        assert not satisfies_wsc(e7)
        p = build_poset(e7)
        assert len(p) == 5
        assert p.hasse_lines() == [
            "000 < 100",
            "100 < 101",
            "100 < 110",
            "101 < 111",
            "110 < 111",
        ]
        assert is_pure(p) and rank(p) == 3 == len(p.side_a)
        assert is_locally_upper_semimodular(p)
        complex_ = order_complex(p)
        assert is_shellable(complex_)
        assert is_strongly_connected(complex_)
        assert cohen_macaulay_report(e7).verdict == "cohen_macaulay"


def test_criterion_06_eight_vertex_example(fixtures):
    with criterion(
        6,
        "the eight-vertex example: six covers, pure, disconnected complex, "
        "no lattice structure realised by the cover operations",
    ):
        e8 = fixtures["E8"]
        assert hilbert_function(e8, 1) == 6
        p = build_poset(e8)
        assert is_pure(p)
        complex_ = order_complex(p)
        assert complex_.is_pure and len(complex_.facets) == 2
        assert not is_strongly_connected(complex_)
        # The min/max cover operations fail to realise meets and joins
        # inside the poset: every incomparable pair rewrites to zero.
        relations = straightening_relations(p)
        assert relations and any(r.is_zero for r in relations)
        # Order-theoretically the six elements do form a lattice (a
        # stretched pentagon); the divergence is flagged, not hidden.
        assert is_lattice(p)
        assert is_domain_report(e8).lattice_divergence


def test_criterion_07_multichain_count_identity():
    with criterion(7, "d-multichains count exactly the basic d-covers, d <= 4"):
        for g in _bipartite_tested_graphs():
            p = build_poset(g)
            for d in (1, 2, 3, 4):
                assert count_multichains(p, d) == hilbert_function(g, d), g.edges


def test_criterion_08_sum_identity():
    with criterion(8, "pairs of basic 1-covers satisfy the meet/join sum identity"):
        for g in _bipartite_tested_graphs():
            p = build_poset(g)
            for x, y in combinations(p.elements, 2):
                assert verify_sum_identity(p, x, y), g.edges


def test_criterion_09_domain_criterion():
    with criterion(9, "square condition matches nonzero straightenings; divergence flagged"):
        for g in _bipartite_tested_graphs():
            report = is_domain_report(g)  # raises on any wsc/nonzero mismatch
            assert report.wsc == report.all_straightenings_nonzero == report.verdict
            assert report.lattice_divergence == (
                report.lattice != report.all_straightenings_nonzero
            )
        # the seven-vertex fixture is the documented divergent case
        from basiccovers.fixtures import fixture

        assert is_domain_report(fixture("E7")).lattice_divergence


def test_criterion_10_projection_preserves_counts():
    with criterion(10, "projection preserves cover counts and transports covers"):
        for name, g in fixture_items():
            report = project(g)
            for k in (1, 2, 3, 4):
                assert hilbert_function(g, k) == hilbert_function(report.pi_graph, k), (
                    name,
                    k,
                )
            for k in (1, 2, 3):
                for cover in enumerate_basic_covers(g, k):
                    assert lift_cover(report, project_cover(report, cover)) == cover


def test_criterion_11_cm_equivalence_corpus():
    with criterion(11, "all computable Cohen-Macaulay conditions agree on WSC graphs"):
        rng = random.Random(2027)
        corpus: list[Graph] = []
        for _ in range(12):
            core = random_bipartite_graph(rng, rng.randint(2, 6))
            corpus.append(whiskered(core))
        for _ in range(5):
            core = random_bipartite_graph(rng, rng.randint(2, 4))
            doubled = tuple(v for v in core.vertices if rng.random() < 0.5) or (1,)
            corpus.append(whiskered(core, doubled))
        corpus += [
            complete_bipartite(2, 2),
            complete_bipartite(2, 3),
            complete_bipartite(3, 3),
            star_graph(4),
            path_graph(4),
        ]
        assert len(corpus) >= 20
        for g in corpus:
            assert g.vertex_count <= 12
            assert satisfies_wsc(g)
            report = cm_equivalence_report(g)  # raises on disagreement
            values = set(report.computed().values())
            assert len(values) == 1, g.edges


def test_criterion_12_low_half_round_trip():
    with criterion(12, "basic covers reconstruct from their low-half values"):
        for name, g in fixture_items():
            for k in (1, 2, 3, 4):
                for cover in enumerate_basic_covers(g, k):
                    partial = low_half_vertices(cover)
                    assert reconstruct_from_low_half(g, k, partial) == cover, (name, k)


def test_criterion_13_enumeration_oracle():
    with criterion(13, "enumeration matches the full product-space oracle"):
        rng = random.Random(2028)
        graphs = [g for _, g in fixture_items() if g.vertex_count <= 7]
        graphs += [random_connected_graph(rng, rng.randint(2, 7)) for _ in range(25)]
        graphs += [random_bipartite_graph(rng, rng.randint(2, 7)) for _ in range(5)]
        for g in graphs:
            for k in (1, 2, 3):
                got = [c.values for c in enumerate_basic_covers(g, k)]
                assert got == brute_force_basic_covers(g, k), (g.edges, k)
