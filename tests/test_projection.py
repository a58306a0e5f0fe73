import random
from dataclasses import dataclass

import pytest

from basiccovers.covers import enumerate_basic_covers
from basiccovers.errors import (
    BasicCoversError,
    NotAnEdge,
    NotConstantOnBlock,
    NotWsc,
)
from basiccovers.covers import Cover
from basiccovers.graph import (
    Graph,
    complete_bipartite,
    cycle_graph,
    path_graph,
    star_graph,
)
from basiccovers.projection import (
    cm_equivalence_report,
    is_right_edge,
    lift_cover,
    project,
    project_cover,
    regularity_report,
    right_edges,
    satisfies_wsc,
    zero_one_graph,
)

from conftest import (
    adjacent_by_edges,
    fixture_items,
    random_bipartite_graph,
    whiskered,
)

K2 = Graph.from_edges([(1, 2)])


# --- right edges -------------------------------------------------------------


def test_right_edge_examples(fixtures):
    assert is_right_edge(K2, (1, 2))
    p6 = path_graph(6)
    assert is_right_edge(p6, (1, 2))
    assert not is_right_edge(p6, (2, 3))
    assert right_edges(fixtures["E7"]) == ((1, 4), (2, 5), (3, 6))
    with pytest.raises(NotAnEdge):
        is_right_edge(p6, (1, 3))


@pytest.mark.parametrize(
    "e", [(0, 99), (99, 0), (-1, 2), (2, -1), (0, 1), (6, 7), (1.5, 2), (2, 2.5)]
)
def test_a_pair_off_the_vertex_labels_is_not_an_edge(e):
    # Labels outside 1..n, 0, negatives and non-integers included, are on
    # no edge: NotAnEdge, never an IndexError, a TypeError or a negative
    # shift.
    with pytest.raises(NotAnEdge):
        is_right_edge(path_graph(6), e)


def test_wsc(fixtures):
    assert satisfies_wsc(cycle_graph(4))
    assert not satisfies_wsc(fixtures["E7"])  # vertex 7 is on no right edge
    assert not satisfies_wsc(cycle_graph(5))
    assert right_edges(cycle_graph(5)) == ()
    assert satisfies_wsc(complete_bipartite(2, 3))
    assert satisfies_wsc(star_graph(4))


# --- block decomposition --------------------------------------------------------


def test_zero_one_c4():
    z = zero_one_graph(cycle_graph(4))
    assert z.pairs == ((frozenset({1, 3}), frozenset({2, 4})),)
    assert z.singletons == ()


def test_zero_one_p6():
    z = zero_one_graph(path_graph(6))
    assert z.pairs == (
        (frozenset({1}), frozenset({2})),
        (frozenset({5}), frozenset({6})),
    )
    assert z.singletons == (3, 4)


def test_zero_one_e7(fixtures):
    z = zero_one_graph(fixtures["E7"])
    assert len(z.pairs) == 3
    assert all(len(a) == len(b) == 1 for a, b in z.pairs)
    assert z.singletons == (7,)


def test_decomposition_never_violates_structure():
    rng = random.Random(31)
    from conftest import random_connected_graph

    for _ in range(80):
        g = random_connected_graph(rng, rng.randint(2, 9))
        zero_one_graph(g)  # must not raise StructureViolation
        project(g)


# --- projection -------------------------------------------------------------------


def test_project_c4_to_k2():
    report = project(cycle_graph(4))
    assert report.pi_graph.vertex_count == 2
    assert report.pi_graph.edges == ((1, 2),)
    assert not report.is_fixed_point
    assert report.blocks == (frozenset({1, 3}), frozenset({2, 4}))


def test_project_p6_fixed_point():
    report = project(path_graph(6))
    assert report.is_fixed_point
    assert report.pi_graph.edges == path_graph(6).edges


def test_projection_idempotent():
    for _, g in fixture_items():
        once = project(g).pi_graph
        again = project(once)
        assert again.is_fixed_point
        assert again.pi_graph.edges == once.edges


def test_cover_transport_bijection():
    for name, g in fixture_items():
        report = project(g)
        for k in (1, 2, 3):
            originals = enumerate_basic_covers(g, k)
            projected = [project_cover(report, c) for c in originals]
            assert sorted(projected) == [
                c for c in enumerate_basic_covers(report.pi_graph, k)
            ], (name, k)
            for c in originals:
                assert lift_cover(report, project_cover(report, c)) == c


def test_project_cover_rejects_nonconstant():
    report = project(cycle_graph(4))
    with pytest.raises(NotConstantOnBlock):
        project_cover(report, Cover((1, 0, 0, 1), 1))


def test_block_constancy_of_basic_covers():
    # every basic cover takes one value per block
    for _, g in fixture_items():
        report = project(g)
        for k in (1, 2, 3):
            for c in enumerate_basic_covers(g, k):
                project_cover(report, c)  # raises if non-constant


def test_right_edges_always_tight():
    for name, g in fixture_items():
        rights = right_edges(g)
        for k in (1, 2, 3):
            for c in enumerate_basic_covers(g, k):
                for u, v in rights:
                    assert c.values[u - 1] + c.values[v - 1] == k, (name, k)


# --- unique perfect matching labelling ----------------------------------------------


class NotWscFixedPoint(BasicCoversError):
    """The graph is not a projection fixed point of a WSC graph."""


class OrderViolation(BasicCoversError):
    """The induced relation on matched vertices failed antisymmetry.

    This contradicts a proved fact and signals a bug.
    """


@dataclass(frozen=True)
class UniquePmLabeling:
    """The unique right-edge perfect matching of a projection fixed point,
    oriented and ordered: pair i is (u_i, v_i), the v-side is independent,
    and v_i precedes v_j exactly when {u_i, v_j} is an edge.  Pairs are
    listed in a linear extension of that order."""

    pairs: tuple[tuple[int, int], ...]
    precedes: frozenset[tuple[int, int]]  # (v_i, v_j) pairs, i != j


def unique_pm_labeling(g: Graph) -> UniquePmLabeling:
    report = project(g)
    if not satisfies_wsc(g) or not report.is_fixed_point:
        raise NotWscFixedPoint(
            "operation requires a WSC graph fixed by the projection"
        )
    rights = right_edges(g)
    partner: dict[int, int] = {}
    for u, v in rights:
        if u in partner or v in partner:
            raise NotWscFixedPoint("right edges do not form a perfect matching")
        partner[u] = v
        partner[v] = u
    if len(partner) != g.vertex_count:
        raise NotWscFixedPoint("right edges do not form a perfect matching")

    # Orient each pair, then repair v-side adjacencies: whenever the least j
    # has an edge {v_i, v_j} with i < j, u_j can safely swap with v_j.
    pairs = [(u, v) for u, v in sorted(rights)]
    for _ in range(len(pairs) ** 2 + 1):
        violation = None
        for j in range(len(pairs)):
            if any(
                adjacent_by_edges(g, pairs[i][1], pairs[j][1]) for i in range(j)
            ):
                violation = j
                break
        if violation is None:
            break
        u, v = pairs[violation]
        pairs[violation] = (v, u)
    else:  # pragma: no cover
        raise OrderViolation("could not make the v-side independent")

    vs = [v for _, v in pairs]
    if any(adjacent_by_edges(g, vs[i], vs[j]) for i in range(len(vs)) for j in range(i + 1, len(vs))):
        raise OrderViolation("v-side failed to become independent")  # pragma: no cover

    relation: set[tuple[int, int]] = set()
    for i, (ui, vi) in enumerate(pairs):
        for j, (uj, vj) in enumerate(pairs):
            if i != j and adjacent_by_edges(g, ui, vj):
                relation.add((vi, vj))
    for vi, vj in relation:
        if (vj, vi) in relation:
            raise OrderViolation(
                f"precedence between {vi} and {vj} runs both ways"
            )

    # Relabel pairs along a linear extension of the precedence order.
    remaining = list(pairs)
    ordered: list[tuple[int, int]] = []
    while remaining:
        free = [
            p
            for p in remaining
            if not any(
                (q[1], p[1]) in relation for q in remaining if q is not p
            )
        ]
        if not free:  # pragma: no cover
            raise OrderViolation("precedence relation contains a cycle")
        nxt = min(free)
        ordered.append(nxt)
        remaining.remove(nxt)
    return UniquePmLabeling(tuple(ordered), frozenset(relation))


# --- reports ---------------------------------------------------------------------


def test_unique_pm_k2():
    labelling = unique_pm_labeling(K2)
    assert labelling.pairs == ((1, 2),)
    assert labelling.precedes == frozenset()


def test_unique_pm_p4():
    labelling = unique_pm_labeling(path_graph(4))
    assert len(labelling.pairs) == 2
    vs = [v for _, v in labelling.pairs]
    assert not adjacent_by_edges(path_graph(4), vs[0], vs[1])
    # the two pairs are comparable in the induced order
    assert len(labelling.precedes) == 1


def test_unique_pm_requires_fixed_point():
    with pytest.raises(NotWscFixedPoint):
        unique_pm_labeling(cycle_graph(4))  # WSC but collapses under projection
    with pytest.raises(NotWscFixedPoint):
        unique_pm_labeling(path_graph(6))  # fixed point but not WSC


def test_unique_pm_order_is_linear_extension():
    rng = random.Random(41)
    for _ in range(15):
        core = random_bipartite_graph(rng, rng.randint(2, 5))
        g = whiskered(core)
        labelling = unique_pm_labeling(g)
        vs = [v for _, v in labelling.pairs]
        for i, vi in enumerate(vs):
            for j, vj in enumerate(vs):
                if (vi, vj) in labelling.precedes:
                    assert i <= j


# --- the equivalence report -----------------------------------------------------------


def test_cm_equivalence_k2_all_true():
    report = cm_equivalence_report(K2)
    assert report.computed() == {
        "unique_perfect_matching": True,
        "unique_right_edge_perfect_matching": True,
        "projection_fixed_point": True,
        "independence_complex_shellable": True,
        "connected_in_codimension_one": True,
    }
    assert report.cohen_macaulay is True


def test_cm_equivalence_c4_all_false():
    report = cm_equivalence_report(cycle_graph(4))
    assert set(report.computed().values()) == {False}
    assert report.cohen_macaulay is False


def test_cm_equivalence_p4_all_true():
    report = cm_equivalence_report(path_graph(4))
    assert set(report.computed().values()) == {True}


def test_cm_equivalence_requires_wsc(fixtures):
    with pytest.raises(NotWsc):
        cm_equivalence_report(fixtures["E7"])


def test_cm_equivalence_on_constructed_corpus():
    # whiskered cores are Cohen-Macaulay; complete bipartite graphs with a
    # side of size two or more, stars, and double whiskers are not
    rng = random.Random(59)
    graphs = []
    for _ in range(8):
        core = random_bipartite_graph(rng, rng.randint(2, 5))
        graphs.append((whiskered(core), True))
    for _ in range(4):
        core = random_bipartite_graph(rng, rng.randint(2, 4))
        doubled = tuple(
            v for v in core.vertices if rng.random() < 0.5
        ) or (1,)
        graphs.append((whiskered(core, doubled), False))
    graphs += [
        (complete_bipartite(2, 2), False),
        (complete_bipartite(2, 3), False),
        (complete_bipartite(3, 3), False),
        (star_graph(3), False),
        (star_graph(5), False),
    ]
    for g, expected in graphs:
        assert satisfies_wsc(g)
        report = cm_equivalence_report(g)
        values = set(report.computed().values())
        assert len(values) == 1
        assert values == {expected}, g.edges


def test_unmixedness_of_wsc_projections():
    # all basic 1-covers of the projection of a WSC graph have equal weight
    rng = random.Random(61)
    graphs = [cycle_graph(4), complete_bipartite(2, 3), star_graph(4)] + [
        whiskered(random_bipartite_graph(rng, rng.randint(2, 4))) for _ in range(5)
    ]
    for g in graphs:
        pi = project(g).pi_graph
        weights = {sum(c.values) for c in enumerate_basic_covers(pi, 1)}
        assert len(weights) == 1
        assert weights == {pi.vertex_count // 2}


# --- regularity -------------------------------------------------------------------------


def test_regularity_report_values(fixtures):
    assert regularity_report(K2) == regularity_report(K2)
    r = regularity_report(K2)
    assert (r.induced_matching, r.upper_bound, r.exact) == (1, 1, 1)
    r = regularity_report(cycle_graph(4))
    assert (r.induced_matching, r.upper_bound, r.exact) == (1, 1, 1)
    r = regularity_report(path_graph(6))
    assert (r.induced_matching, r.upper_bound, r.exact) == (2, 3, None)
    assert r.induced_matching <= r.upper_bound


def test_regularity_projection_preserves_induced_matching():
    for _, g in fixture_items():
        r = regularity_report(g)
        assert r.induced_matching == r.projection_induced_matching
