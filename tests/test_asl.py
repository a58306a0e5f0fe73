import random
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from basiccovers.asl import (
    _is_basic_one_cover,
    _multichain_sums,
    _tight_ends,
    is_domain_report,
    straightening_relations,
    verify_asl1,
    verify_sum_identity,
)
from basiccovers.covers import (
    Cover,
    enumerate_basic_covers,
    is_basic,
)
from basiccovers.errors import (
    MalformedInput,
    NotACover,
    NotAMultichain,
    NotBipartite,
    SumNotBasic,
)
from basiccovers.graph import Graph, complete_bipartite, cycle_graph, path_graph
from basiccovers.poset import CoverPoset, build_poset, join_values, meet_values

from conftest import basic_verdict_by_edges, fixture_items, random_bipartite_graph

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


def multichain_to_cover(poset, chain) -> Cover:
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
    total = Cover(
        tuple(map(sum, zip(*(c.values for c in chain)))),
        sum(c.level for c in chain),
    )
    if not is_basic(poset.graph, total):
        raise SumNotBasic("a multichain summed to a non-basic cover")
    return total


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


@pytest.mark.parametrize("d", [2.0, "2", True, None])
def test_asl1_rejects_a_degree_that_is_not_an_int(d):
    # The packed sums read d.bit_length(); True would pass as degree 1.
    with pytest.raises(NotAMultichain):
        verify_asl1(build_poset(K2), d)


def test_asl1_fails_when_the_cover_count_is_off(monkeypatch, fixtures):
    # The frontier count is the independent side of verify_asl1: one cover
    # too few or too many, and the multichain sums no longer match it.
    from basiccovers import asl

    p = build_poset(fixtures["E7"])
    count_all = asl.count_basic_covers
    assert verify_asl1(p, 2)
    for off in (-1, 1):
        monkeypatch.setattr(
            asl, "count_basic_covers", lambda *args, _off=off: count_all(*args) + _off
        )
        assert not verify_asl1(p, 2), off


def test_asl1_fails_when_a_multichain_sum_repeats(monkeypatch, fixtures):
    # Two multichains with one sum break injectivity, even though every sum
    # is a basic cover and the number of multichains is right.
    from basiccovers import asl

    p = build_poset(fixtures["E7"])
    sums = asl._multichain_sums
    assert verify_asl1(p, 2)

    def first_twice(poset, d):
        triples = sums(poset, d)
        first = next(triples)
        next(triples)  # the second sum gives way to a repeat of the first
        yield first
        yield first
        yield from triples

    monkeypatch.setattr(asl, "_multichain_sums", first_twice)
    assert not verify_asl1(p, 2)


def test_asl1_runs_no_cover_search(monkeypatch):
    from basiccovers import covers

    def no_search(g, k):
        raise AssertionError("verify_asl1 ran the cover search")

    monkeypatch.setattr(covers, "_basic_cover_search", no_search)
    for name, g, p in bipartite_fixture_posets():
        for d in (1, 2, 3):
            assert verify_asl1(p, d), (name, d)


def test_asl1_raises_when_a_multichain_sum_is_not_basic(monkeypatch, fixtures):
    # Every d-element sum is checked; a failed basicness check is a broken
    # correspondence, not a False answer.
    from basiccovers import asl

    p = build_poset(fixtures["E7"])
    monkeypatch.setattr(asl, "_is_basic_one_cover", lambda nbr, ones: False)
    with pytest.raises(SumNotBasic):
        verify_asl1(p, 2)


def test_asl1_raises_when_a_mask_sum_is_not_basic(monkeypatch, fixtures):
    # With no tight edge left in any AND mask, no positive vertex of a sum
    # is covered, so the mask test must reject the first sum it sees.
    from basiccovers import asl

    p = build_poset(fixtures["E7"])
    monkeypatch.setattr(asl, "_tight_ends", lambda g, tight: 0)
    with pytest.raises(SumNotBasic):
        verify_asl1(p, 2)


def test_straightening_rejects_a_poset_missing_a_basic_cover():
    # Three disjoint edges give the Boolean cube on the A-patterns; without
    # 110, the join of 100 and 010 is a basic 1-cover outside the poset.
    g = Graph.from_edges([(1, 2), (3, 4), (5, 6)])
    patterns = [p for p in product((0, 1), repeat=3) if p != (1, 1, 0)]
    # Each edge v-(v+1) puts its one on v when the pattern bit is 1.
    masks = tuple(
        sum(1 << (v if x else v + 1) for v, x in zip((1, 3, 5), p)) for p in patterns
    )
    with pytest.raises(MalformedInput):
        straightening_relations(CoverPoset(g, masks, (1, 3, 5), (2, 4, 6)))


# --- the mask kernels against the scalar checks ---------------------------------------------


@st.composite
def small_bipartite_graphs(draw) -> Graph:
    """Any bipartite graph on at most 9 vertices without isolated ones."""
    n = draw(st.integers(min_value=2, max_value=9))
    a = draw(st.integers(min_value=1, max_value=n - 1))
    rng = random.Random(draw(st.integers(min_value=0, max_value=100_000)))
    density = draw(st.sampled_from([0.2, 0.35, 0.5, 0.8]))
    pairs = [(u, v) for u in range(1, a + 1) for v in range(a + 1, n + 1)]
    edges = [e for e in pairs if rng.random() < density] or [pairs[0]]
    touched = sorted({x for e in edges for x in e})
    label = {w: i + 1 for i, w in enumerate(touched)}
    return Graph.from_edges([(label[u], label[v]) for u, v in edges])


def _scalar_multichains(poset, d):
    """Every d-element multichain as an index tuple, by the order alone."""
    chains = [(i,) for i in range(len(poset))]
    for _ in range(d - 1):
        chains = [
            c + (j,)
            for c in chains
            for j in range(len(poset))
            if poset.leq_by_index(c[-1], j)
        ]
    return chains


def _tight_edges(g, vals):
    """Bit e set for each edge ``g.edges[e]`` whose ends sum to 1."""
    return sum(
        1 << e
        for e, (u, v) in enumerate(g.edges)
        if vals[u - 1] + vals[v - 1] == 1
    )


def _support(vals):
    """Bit v set for each vertex v with a positive value."""
    return sum(1 << v for v, x in enumerate(vals, start=1) if x > 0)


def _sum_masks(g, members):
    """The AND of the tight-edge masks and the OR of the support masks,
    read off the values: the scalar side of the mask kernels."""
    tight, support = -1, 0
    for vals in members:
        tight &= _tight_edges(g, vals)
        support |= _support(vals)
    return tight, support


def _unpack(total, d, n):
    """The value tuple of vertices 1..n held in the packed sum ``total`` of
    d elements: vertex v's value is the field of d.bit_length() bits that
    starts at bit v * d.bit_length()."""
    width = d.bit_length()
    return tuple(total >> width * v & (1 << width) - 1 for v in range(1, n + 1))


def _unpacked_sums(p, d):
    """:func:`_multichain_sums` with each packed total decoded."""
    n = p.graph.vertex_count
    return [(_unpack(total, d, n), t, s) for total, t, s in _multichain_sums(p, d)]


def _mask_verdict(g, members):
    """The mask test of verify_asl1 on the sum of ``members``."""
    tight, support = _sum_masks(g, members)
    return not support & ~_tight_ends(g, tight)


@given(small_bipartite_graphs())
@settings(max_examples=100, deadline=None)
def test_mask_sum_test_matches_scalar_basicness(g):
    p = build_poset(g)
    values = [c.values for c in p.elements]
    for d in (1, 2, 3, 4):
        expected = []
        for chain in _scalar_multichains(p, d):
            members = [values[i] for i in chain]
            total = tuple(map(sum, zip(*members)))
            assert _mask_verdict(g, members) == basic_verdict_by_edges(g, total, d)
            expected.append((total, *_sum_masks(g, members)))
        assert sorted(_unpacked_sums(p, d)) == sorted(expected)
        # The DFS oracle: the sums are exactly the basic d-covers.
        assert {total for total, _, _ in _unpacked_sums(p, d)} == {
            c.values for c in enumerate_basic_covers(g, d)
        }
    # Sums of incomparable pairs need not be basic: both verdicts occur.
    for i, x in enumerate(values):
        for y in values[i:]:
            total = tuple(map(sum, zip(x, y)))
            assert _mask_verdict(g, (x, y)) == basic_verdict_by_edges(g, total, 2)


def test_packed_sums_decode_to_the_tuple_sums():
    # d = 1, 3 and 7 fill their fields of 1, 2 and 3 bits (the constant
    # multichain on the top element reaches d), and d = 2, 4 and 8 start a
    # wider one.  The tuple sums are built from the poset's elements and
    # its order alone.
    for name, g, p in bipartite_fixture_posets():
        values = [c.values for c in p.elements]
        for d in range(1, 9):
            tuple_sums = sorted(
                tuple(map(sum, zip(*(values[i] for i in chain))))
                for chain in _scalar_multichains(p, d)
            )
            decoded = sorted(total for total, _, _ in _unpacked_sums(p, d))
            assert decoded == tuple_sums, (name, d)


@given(small_bipartite_graphs())
@settings(max_examples=100, deadline=None)
def test_bitmask_meet_join_matches_scalar_checks(g):
    p = build_poset(g)
    relations = {r.left: r.right for r in straightening_relations(p)}
    for i, x in enumerate(p.elements):
        for y in p.elements[i + 1 :]:
            if p.leq(x, y) or p.leq(y, x):
                assert (x, y) not in relations
                continue
            meet, join = meet_values(p, x, y), join_values(p, x, y)
            # Meet and join are always 1-covers: the oracle's None is a failure.
            meet_basic = basic_verdict_by_edges(g, meet.values, 1)
            join_basic = basic_verdict_by_edges(g, join.values, 1)
            assert meet_basic is not None and join_basic is not None
            nonzero = meet_basic and join_basic
            assert relations.pop((x, y)) == ((meet, join) if nonzero else None)
    assert not relations


@given(small_bipartite_graphs())
@settings(max_examples=60, deadline=None)
def test_one_cover_mask_test_matches_scalar_check(g):
    n = g.vertex_count
    for ones in range(0, 1 << n):
        vals = tuple(ones >> (v - 1) & 1 for v in g.vertices)
        expected = basic_verdict_by_edges(g, vals, 1)
        if expected is None:
            with pytest.raises(NotACover):
                _is_basic_one_cover(g.neighbour_masks, ones << 1)
        else:
            assert _is_basic_one_cover(g.neighbour_masks, ones << 1) == expected


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
        report = is_domain_report(g)
        assert report.wsc == report.all_straightenings_nonzero
        assert report.verdict == report.wsc
        # divergence is flagged, never asserted equal
        assert report.lattice_divergence == (
            report.lattice != report.all_straightenings_nonzero
        )


def test_domain_report_requires_bipartite():
    with pytest.raises(NotBipartite):
        is_domain_report(cycle_graph(5))
