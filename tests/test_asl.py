import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from basiccovers.asl import (
    is_domain_report,
    multichain_to_cover,
    straightening_relations,
    verify_asl1,
    verify_sum_identity,
)
from basiccovers.covers import Cover, is_basic
from basiccovers.errors import NotAMultichain, NotBipartite, SumNotBasic
from basiccovers.graph import Graph, complete_bipartite, cycle_graph, path_graph
from basiccovers.poset import build_poset

from conftest import fixture_items, random_bipartite_graph

K2 = Graph.from_edges([(1, 2)])


def element(poset, label):
    return next(c for c in poset.elements if poset.label_of(c) == label)


def bipartite_fixture_posets():
    out = []
    for name, g in fixture_items():
        try:
            out.append((name, g, build_poset(g)))
        except NotBipartite:
            continue
    return out


# --- straightening relations -----------------------------------------------------


def test_chain_poset_has_no_relations():
    assert straightening_relations(build_poset(K2)) == []
    assert straightening_relations(build_poset(cycle_graph(4))) == []


def test_e7_single_zero_relation(fixtures):
    p = build_poset(fixtures["E7"])
    relations = straightening_relations(p)
    assert len(relations) == 1
    # Both crossed covers keep value one at the apex vertex 7, so the join
    # side fails to be basic and the product rewrites to zero.
    assert relations[0].is_zero
    assert {p.label_of(c) for c in relations[0].left} == {"110", "101"}


def test_e8_relations_all_zero(fixtures):
    p = build_poset(fixtures["E8"])
    relations = straightening_relations(p)
    assert len(relations) == 4
    assert all(r.is_zero for r in relations)


def test_relation_shape_when_nonzero():
    # decorate a graph whose poset has a genuinely nonzero relation: two
    # disjoint edges give the Boolean square, and the crossed covers of the
    # two middle elements are the bottom and top
    g = Graph.from_edges([(1, 2), (3, 4)])
    p = build_poset(g)
    relations = straightening_relations(p)
    assert len(relations) == 1
    rel = relations[0]
    assert not rel.is_zero
    meet, join = rel.right
    assert p.leq(meet, join)
    for factor in rel.left:
        assert p.leq(meet, factor) and meet != factor
        assert p.leq(factor, join)


def test_relation_lines(fixtures):
    p = build_poset(fixtures["E7"])
    (rel,) = straightening_relations(p)
    assert rel.to_line(p) == "101*110 = 0"


# --- the sum identity ---------------------------------------------------------------


def test_sum_identity_fixtures():
    for name, g, p in bipartite_fixture_posets():
        for x, y in combinations(p.elements, 2):
            assert verify_sum_identity(p, x, y), name


@given(st.integers(min_value=0, max_value=100_000))
@settings(max_examples=100, deadline=None)
def test_sum_identity_random_bipartite(seed):
    rng = random.Random(seed)
    g = random_bipartite_graph(rng, rng.randint(2, 10))
    p = build_poset(g)
    for x, y in combinations(p.elements, 2):
        assert verify_sum_identity(p, x, y)


# --- multichains to covers ------------------------------------------------------------


def test_constant_multichain_scales(fixtures):
    p = build_poset(fixtures["E7"])
    for c in p.elements:
        for d in (1, 2, 3):
            total = multichain_to_cover(p, [c] * d)
            assert total.level == d
            assert total.values == tuple(x * d for x in c.values)
            assert is_basic(p.graph, total)


def test_multichain_sum_example(fixtures):
    p = build_poset(fixtures["E7"])
    total = multichain_to_cover(p, (element(p, "100"), element(p, "110")))
    assert tuple(total.values[a - 1] for a in p.side_a) == (2, 1, 0)
    assert total.level == 2


def test_multichain_rejects_disorder():
    p = build_poset(K2)
    lo, hi = p.elements[0], p.elements[-1]
    assert p.leq(lo, hi)
    with pytest.raises(NotAMultichain):
        multichain_to_cover(p, (hi, hi, lo))
    with pytest.raises(NotAMultichain):
        multichain_to_cover(p, ())
    with pytest.raises(NotAMultichain):
        multichain_to_cover(p, (Cover((5, 5), 1),))


# --- the count identity (standard monomials) --------------------------------------------


def test_asl1_k2_all_degrees():
    p = build_poset(K2)
    for d in (1, 2, 3, 4, 5):
        assert verify_asl1(p, d)


def test_asl1_fixtures():
    for name, g, p in bipartite_fixture_posets():
        for d in (1, 2, 3, 4):
            assert verify_asl1(p, d), (name, d)


def test_asl1_random_bipartite():
    rng = random.Random(71)
    for _ in range(20):
        g = random_bipartite_graph(rng, rng.randint(2, 10))
        p = build_poset(g)
        for d in (1, 2, 3):
            assert verify_asl1(p, d)


def test_asl1_fails_when_the_cover_search_drops_a_cover(monkeypatch, fixtures):
    # The cover search is the independent side of verify_asl1: if it loses
    # one cover, the multichain images no longer match it.
    from basiccovers import asl

    p = build_poset(fixtures["E7"])
    enumerate_all = asl.enumerate_basic_covers
    assert verify_asl1(p, 2)
    monkeypatch.setattr(
        asl, "enumerate_basic_covers", lambda *args: enumerate_all(*args)[1:]
    )
    assert not verify_asl1(p, 2)


def test_asl1_raises_when_a_multichain_sum_is_not_basic(monkeypatch, fixtures):
    # Every d-element sum is checked; a failed basicness check is a broken
    # correspondence, not a False answer.
    from basiccovers import covers

    p = build_poset(fixtures["E7"])
    monkeypatch.setattr(covers, "_is_basic_values", lambda g, vals, k: False)
    with pytest.raises(SumNotBasic):
        verify_asl1(p, 2)


# --- the domain report -------------------------------------------------------------------


def test_domain_report_reuses_the_held_poset_and_relations(monkeypatch, fixtures):
    from basiccovers import asl

    g = fixtures["E8"]
    p = build_poset(g)
    first = straightening_relations(p)
    second = straightening_relations(p)
    assert first == second and first is not second
    second.clear()
    assert straightening_relations(p) == first

    def no_recompute(poset):
        raise AssertionError("the relations were recomputed")

    monkeypatch.setattr(asl, "_straighten", no_recompute)
    report = is_domain_report(g)
    assert not report.verdict and not report.all_straightenings_nonzero


def test_domain_report_values(fixtures):
    expectations = {
        "C4": (True, False),
        "K23": (True, False),
        "K2": (True, False),
        "E7": (False, True),
        "E8": (False, True),
        "P6": (False, True),
        "C6": (False, True),
    }
    for name, (verdict, divergence) in expectations.items():
        report = is_domain_report(fixtures[name])
        assert report.verdict == verdict, name
        assert report.wsc == report.all_straightenings_nonzero == verdict
        assert report.lattice_divergence == divergence, name


def test_domain_equivalence_random():
    rng = random.Random(83)
    for _ in range(30):
        g = random_bipartite_graph(rng, rng.randint(2, 9))
        report = is_domain_report(g)  # raises EquivalenceViolation on mismatch
        assert report.verdict == report.wsc
        # divergence is flagged, never asserted equal
        assert report.lattice_divergence == (
            report.lattice != report.all_straightenings_nonzero
        )


def test_domain_report_requires_bipartite():
    with pytest.raises(NotBipartite):
        is_domain_report(cycle_graph(5))
