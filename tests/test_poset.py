import random
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from basiccovers.budget import SearchBudget
from basiccovers.complexes import (
    SimplicialComplex,
    independence_complex,
    is_shellable,
    is_strongly_connected,
)
from basiccovers.covers import Cover, enumerate_basic_covers, hilbert_function, is_basic
from basiccovers.errors import (
    MalformedInput,
    NotALattice,
    NotBipartite,
    NotDistributive,
    NotPure,
    SearchBudgetExceeded,
)
from basiccovers.fixtures import fixture
from basiccovers.gdim import graphical_dimension
from basiccovers.graph import Graph, cycle_graph, is_connected, path_graph
from basiccovers.poset import (
    BirkhoffPoset,
    CoverPoset,
    birkhoff_poset,
    build_poset,
    cohen_macaulay_report,
    count_multichains,
    is_distributive,
    is_lattice,
    is_locally_upper_semimodular,
    is_pure,
    is_pure_poset,
    join_values,
    meet_values,
    order_complex,
    rank,
)

from conftest import (
    brute_force_shellable,
    fixture_items,
    maximal_chains,
    random_bipartite_graph,
    random_connected_graph,
    relabelled_bipartite_graph,
)

K2 = Graph.from_edges([(1, 2)])


def element(poset, label):
    return next(c for c in poset.elements if poset.label_of(c) == label)


def infimum(poset, x, y):
    """The element the meet table names for x and y, or None."""
    idx = poset.meet_index(poset.index_of(x), poset.index_of(y))
    return poset.elements[idx] if idx is not None else None


def supremum(poset, x, y):
    """The element the join table names for x and y, or None."""
    idx = poset.join_index(poset.index_of(x), poset.index_of(y))
    return poset.elements[idx] if idx is not None else None


def meet_candidate(poset, x, y):
    """The crossed min/max cover when basic, else None."""
    cand = meet_values(poset, x, y)
    return cand if is_basic(poset.graph, cand) else None


def join_candidate(poset, x, y):
    """The crossed max/min cover when basic, else None."""
    cand = join_values(poset, x, y)
    return cand if is_basic(poset.graph, cand) else None


def order_ideals(bp: BirkhoffPoset) -> list[frozenset[str]]:
    """Every down-closed subset of a Birkhoff poset, by exhaustive search."""
    elems = bp.elements
    return [
        frozenset(subset)
        for r in range(len(elems) + 1)
        for subset in combinations(elems, r)
        if all(x in subset for y in subset for x in elems if bp.leq(x, y))
    ]


# --- an order-theoretic oracle sharing no code with poset.py ----------------
#
# Infimum and supremum straight from the definition: the greatest common
# lower bound (least common upper bound), found by comparing A-side value
# patterns directly.


def _oracle_below(p, x, y):
    return all(x.values[a - 1] <= y.values[a - 1] for a in p.side_a)


def _oracle_greatest(p, candidates):
    tops = [z for z in candidates if all(_oracle_below(p, w, z) for w in candidates)]
    return tops[0] if tops else None


def _oracle_inf(p, x, y):
    lower = [z for z in p.elements if _oracle_below(p, z, x) and _oracle_below(p, z, y)]
    return _oracle_greatest(p, lower)


def _oracle_sup(p, x, y):
    upper = [z for z in p.elements if _oracle_below(p, x, z) and _oracle_below(p, y, z)]
    least = [z for z in upper if all(_oracle_below(p, z, w) for w in upper)]
    return least[0] if least else None


def _oracle_verdicts(p):
    """(infimum table, supremum table, lattice, distributive or None)."""
    els = p.elements
    inf = {(x, y): _oracle_inf(p, x, y) for x in els for y in els}
    sup = {(x, y): _oracle_sup(p, x, y) for x in els for y in els}
    lattice = None not in inf.values() and None not in sup.values()
    distributive = None
    if lattice:
        distributive = all(
            sup[(a, inf[(b, c)])] == inf[(sup[(a, b)], sup[(a, c)])]
            for a in els
            for b in els
            for c in els
        )
    return inf, sup, lattice, distributive


def _assert_matches_oracle(p):
    inf, sup, lattice, distributive = _oracle_verdicts(p)
    assert p.labels == tuple(
        "".join(str(x.values[a - 1]) for a in p.side_a) for x in p.elements
    )
    for x in p.elements:
        for y in p.elements:
            assert p.leq(x, y) == _oracle_below(p, x, y)
            assert infimum(p, x, y) == inf[(x, y)]
            assert supremum(p, x, y) == sup[(x, y)]
    assert is_lattice(p) == lattice
    if lattice:
        meet, join = p.lattice_tables
        for i, x in enumerate(p.elements):
            for j, y in enumerate(p.elements):
                assert p.elements[meet[i][j]] == inf[(x, y)]
                assert p.elements[join[i][j]] == sup[(x, y)]
        assert is_distributive(p) == distributive
    else:
        with pytest.raises(NotALattice):
            is_distributive(p)


def test_extrema_and_verdicts_match_oracle_on_fixtures():
    for name, g in fixture_items():
        try:
            p = build_poset(g)
        except NotBipartite:
            continue
        _assert_matches_oracle(p)


@st.composite
def bipartite_graphs(draw) -> Graph:
    seed = draw(st.integers(min_value=0, max_value=100_000))
    n = draw(st.integers(min_value=2, max_value=9))
    return random_bipartite_graph(random.Random(seed), n)


@given(bipartite_graphs())
@settings(max_examples=60, deadline=None)
def test_extrema_and_verdicts_match_oracle_random(g):
    _assert_matches_oracle(build_poset(g))


def _bowtie_poset():
    """Six elements of the 9-vertex path's cover poset where 0001 and 1000
    lie below both 1011 and 1101, which are incomparable: bounded, but
    that pair has no supremum."""
    p = build_poset(path_graph(9))
    keep = ("0000", "0001", "1000", "1011", "1101", "1111")
    masks = tuple(p.masks[p.labels.index(s)] for s in keep)
    return CoverPoset(p.graph, masks, p.side_a, p.side_b)


def test_hand_built_non_lattice():
    p = _bowtie_poset()
    assert not is_lattice(p)
    assert supremum(p, element(p, "0001"), element(p, "1000")) is None
    assert infimum(p, element(p, "1011"), element(p, "1101")) is None
    assert infimum(p, element(p, "0001"), element(p, "1000")) == element(p, "0000")
    with pytest.raises(NotALattice):
        is_distributive(p)
    with pytest.raises(NotALattice):
        birkhoff_poset(p)
    _assert_matches_oracle(p)


def test_foreign_cover_is_malformed_input():
    p = build_poset(path_graph(4))
    x = p.elements[0]
    stranger = Cover((5, 5, 5, 5), 1)
    with pytest.raises(MalformedInput):
        p.index_of(stranger)
    with pytest.raises(MalformedInput):
        infimum(p, stranger, x)
    with pytest.raises(MalformedInput):
        supremum(p, x, stranger)
    with pytest.raises(MalformedInput):
        p.leq(stranger, x)


# --- construction ---------------------------------------------------------


def test_build_poset_k2_is_chain():
    p = build_poset(K2)
    assert len(p) == 2
    assert p.hasse_lines() == ["0 < 1"]


def test_build_poset_rejects_odd_cycle():
    with pytest.raises(NotBipartite):
        build_poset(cycle_graph(5))


@st.composite
def relabelled_bipartite_graphs(draw) -> Graph:
    seed = draw(st.integers(min_value=0, max_value=100_000))
    n = draw(st.integers(min_value=2, max_value=12))
    return relabelled_bipartite_graph(random.Random(seed), n)


@given(relabelled_bipartite_graphs())
# Three disjoint edges, and a path plus an edge with equal sides.
@example(Graph.from_edges([(1, 6), (2, 4), (3, 5)]))
@example(Graph.from_edges([(2, 5), (1, 5), (1, 6), (3, 4)]))
@settings(max_examples=100, deadline=None)
def test_elements_are_the_cover_search_in_pattern_order(g):
    # The closure build runs no cover search, so the DFS is its oracle.
    p = build_poset(g)
    assert list(p.elements) == sorted(enumerate_basic_covers(g, 1), key=p.pattern_of)
    # The closed A-zero sets are closed under intersection, so every
    # cover poset is a lattice; only hand-built posets can fail it.
    assert is_lattice(p)


def test_e7_poset_shape(fixtures):
    p = build_poset(fixtures["E7"])
    assert [p.label_of(c) for c in p.elements] == ["000", "100", "101", "110", "111"]
    assert p.hasse_lines() == [
        "000 < 100",
        "100 < 101",
        "100 < 110",
        "101 < 111",
        "110 < 111",
    ]
    assert is_pure(p) and rank(p) == 3 == len(p.side_a)


def test_e8_poset_shape(fixtures):
    p = build_poset(fixtures["E8"])
    assert len(p) == 6
    assert is_pure(p) and rank(p) == 3
    chains = maximal_chains(p)
    assert len(chains) == 2 and all(len(c) == 4 for c in chains)


def test_p6_poset_not_pure_with_both_chains(fixtures):
    p = build_poset(fixtures["P6"])
    chains = maximal_chains(p)
    assert not is_pure(p)
    labelled = sorted(tuple(p.label_of(c) for c in chain) for chain in chains)
    assert labelled == [("000", "001", "011", "111"), ("000", "110", "111")]


def test_rank_and_purity_match_maximal_chains():
    # rank and is_pure read Hasse-path heights; the chain walk is the
    # independent side.
    graphs = [g for _, g in fixture_items()] + [path_graph(n) for n in range(2, 17)]
    for g in graphs:
        try:
            p = build_poset(g)
        except NotBipartite:
            continue
        chains = maximal_chains(p)
        # Depth first from the lowest minimal element, lowest cover first.
        indices = [[p.index_of(c) for c in chain] for chain in chains]
        assert indices == sorted(indices), g.edges
        lengths = {len(chain) - 1 for chain in chains}
        assert rank(p) == max(lengths), g.edges
        assert is_pure(p) == (len(lengths) == 1), g.edges


@given(bipartite_graphs())
@settings(max_examples=100, deadline=None)
def test_chain_complex_and_lattice_tables_match_their_pairwise_oracles(g):
    # The order complex skips from_facets's containment scan, and the
    # lattice tables look up one triangle and mirror it; the scan and the
    # lookup of every ordered pair are the oracles.
    p = build_poset(g)
    scanned = SimplicialComplex.from_facets(
        frozenset(p.label_of(c) for c in chain) for chain in maximal_chains(p)
    )
    assert order_complex(p).facets == scanned.facets
    n = range(len(p))
    meet = tuple(tuple(p.meet_index(i, j) for j in n) for i in n)
    join = tuple(tuple(p.join_index(i, j) for j in n) for i in n)
    assert p.lattice_tables == (meet, join)


def test_multichains_reject_a_length_that_is_not_an_int():
    p = build_poset(K2)
    for d in (2.0, "2", True, None):
        with pytest.raises(MalformedInput):
            count_multichains(p, d)


def test_order_duality():
    rng = random.Random(19)
    graphs = [g for _, g in fixture_items() if g.vertex_count <= 8] + [
        random_bipartite_graph(rng, rng.randint(2, 8)) for _ in range(10)
    ]
    for g in graphs:
        try:
            p_small = build_poset(g)
        except NotBipartite:
            continue
        # The same covers ordered on the larger side B.
        p_large = CoverPoset(g, p_small.masks, p_small.side_b, p_small.side_a)
        for x in p_small.elements:
            for y in p_small.elements:
                assert p_small.leq(x, y) == p_large.leq(y, x)


# --- meet and join ----------------------------------------------------------


def test_meet_join_candidates_e7(fixtures):
    p = build_poset(fixtures["E7"])
    x, y = element(p, "110"), element(p, "101")
    met = meet_candidate(p, x, y)
    assert met is not None and p.label_of(met) == "100"
    # The max/min cover keeps value 1 at vertex 7 in both factors, so it is
    # not basic and the join candidate is absent.
    assert join_candidate(p, x, y) is None
    assert p.label_of(infimum(p, x, y)) == "100"
    assert p.label_of(supremum(p, x, y)) == "111"


def test_meet_join_idempotent(fixtures):
    p = build_poset(fixtures["E7"])
    for c in p.elements:
        assert meet_candidate(p, c, c) == c
        assert join_candidate(p, c, c) == c


def test_e8_mixed_pair_has_nonbasic_side(fixtures):
    p = build_poset(fixtures["E8"])
    x, y = element(p, "0110"), element(p, "1001")
    met, joined = meet_candidate(p, x, y), join_candidate(p, x, y)
    assert (met is None) or (joined is None)
    assert met is not None and p.label_of(met) == "0000"


def test_candidates_agree_with_extrema_when_basic():
    # Whenever the min/max cover is basic it must equal the order-theoretic
    # infimum (dually the supremum), on fixtures and random bipartite graphs.
    rng = random.Random(4)
    graphs = [g for _, g in fixture_items()] + [
        random_bipartite_graph(rng, rng.randint(2, 9)) for _ in range(15)
    ]
    for g in graphs:
        try:
            p = build_poset(g)
        except NotBipartite:
            continue
        for x, y in combinations(p.elements, 2):
            met = meet_candidate(p, x, y)
            if met is not None:
                assert met == infimum(p, x, y)
            joined = join_candidate(p, x, y)
            if joined is not None:
                assert joined == supremum(p, x, y)


# --- lattice structure ---------------------------------------------------------


def test_chain_is_distributive_lattice():
    p = build_poset(K2)
    assert is_lattice(p)
    assert is_distributive(p)


def test_e7_lattice_distributive(fixtures):
    p = build_poset(fixtures["E7"])
    assert is_lattice(p)
    assert is_distributive(p)


def test_e8_is_a_lattice_but_not_modular(fixtures):
    # Two parallel chains between common bounds: every pair still has a
    # unique infimum and supremum, so order-theoretically this is a lattice
    # (a stretched pentagon); distributivity fails.
    p = build_poset(fixtures["E8"])
    assert is_lattice(p)
    assert not is_distributive(p)


def test_c6_lattice_not_distributive(fixtures):
    p = build_poset(fixtures["C6"])
    assert is_lattice(p)
    assert not is_distributive(p)


def test_is_distributive_requires_lattice():
    # Every cover poset built from a graph here is a lattice, so NotALattice
    # is reached only through a hand-built poset (test_hand_built_non_lattice).
    # This test covers the next gate: C6 is a lattice but not distributive,
    # so the Birkhoff decomposition refuses it.
    p = build_poset(cycle_graph(6))
    with pytest.raises(NotDistributive):
        birkhoff_poset(p)


def test_locally_upper_semimodular(fixtures):
    assert is_locally_upper_semimodular(build_poset(fixtures["E7"]))
    assert not is_locally_upper_semimodular(build_poset(fixtures["E8"]))
    assert is_locally_upper_semimodular(build_poset(K2))


# --- Birkhoff decomposition -----------------------------------------------------


def test_birkhoff_e7(fixtures):
    p = build_poset(fixtures["E7"])
    bp = birkhoff_poset(p)
    assert bp.elements == ("100", "101", "110")
    assert sorted(bp.relation) == [("100", "101"), ("100", "110")]
    assert is_pure_poset(bp)
    assert len(order_ideals(bp)) == len(p)


def test_birkhoff_k2():
    bp = birkhoff_poset(build_poset(K2))
    assert len(bp.elements) == 1
    assert is_pure_poset(bp)


def test_birkhoff_round_trip():
    # Order ideals of the join-irreducibles, ordered by inclusion, must be
    # order-isomorphic to the source lattice via x -> {irreducibles <= x}.
    for name, g in fixture_items():
        try:
            p = build_poset(g)
            bp = birkhoff_poset(p)
        except (NotBipartite, NotDistributive, NotALattice):
            continue
        irreducibles = list(bp.elements)
        image = {}
        for x in p.elements:
            image[p.label_of(x)] = frozenset(
                j for j in irreducibles if p.leq(element(p, j), x)
            )
        ideals = set(order_ideals(bp))
        assert set(image.values()) == ideals
        labels = [p.label_of(c) for c in p.elements]
        for a in labels:
            for b in labels:
                assert (image[a] <= image[b]) == p.leq(element(p, a), element(p, b))


def test_pure_poset_synthetic_counterexample():
    chain_plus_point = BirkhoffPoset(
        ("a", "b", "c", "z"),
        frozenset({("a", "b"), ("b", "c"), ("a", "c")}),
    )
    assert not is_pure_poset(chain_plus_point)


def test_long_chain_heights():
    # Each height must be computed once: walking every chain of the relation
    # takes time exponential in the chain length.
    names = tuple(f"e{i:02d}" for i in range(40))
    chain = BirkhoffPoset(names, frozenset(combinations(names, 2)))
    assert chain.maximal_chain_lengths() == {39}
    assert is_pure_poset(chain)
    with_point = BirkhoffPoset(names + ("z",), chain.relation)
    assert with_point.maximal_chain_lengths() == {0, 39}
    assert not is_pure_poset(with_point)


@pytest.mark.xfail(
    strict=True,
    reason="is_pure_poset compares only the longest heights of maximal "
    "elements, so chains of two lengths ending at one top pass as pure",
)
def test_pure_poset_sees_two_chain_lengths_under_one_top():
    # The WSC graph of the poset a < b < c, d < c: its join-irreducibles
    # are 1000 < 1100 < 1111 and 0001 < 1111, maximal chains of lengths 2
    # and 1.
    g = Graph.from_edges(
        [(1, 5), (2, 6), (3, 7), (4, 8), (1, 6), (2, 7), (1, 7), (4, 7)]
    )
    bp = birkhoff_poset(build_poset(g))
    assert bp.elements == ("0001", "1000", "1100", "1111")
    assert not is_pure_poset(bp)


# --- chains and multichains --------------------------------------------------------


def test_count_multichains_chain():
    assert count_multichains(build_poset(K2), 3) == 4


def test_count_multichains_e7(fixtures):
    p = build_poset(fixtures["E7"])
    assert count_multichains(p, 1) == len(p)
    assert count_multichains(p, 2) == 14
    assert count_multichains(p, 0) == 1
    with pytest.raises(MalformedInput):
        count_multichains(p, -1)


def test_multichain_count_is_hilbert_function(fixtures):
    for name, g in fixture_items():
        try:
            p = build_poset(g)
        except NotBipartite:
            continue
        for d in (1, 2, 3, 4):
            assert count_multichains(p, d) == hilbert_function(g, d), (name, d)


# --- complexes -------------------------------------------------------------------


def test_order_complex_facets(fixtures):
    oc = order_complex(build_poset(fixtures["E7"]))
    assert len(oc.facets) == 2 and all(len(f) == 4 for f in oc.facets)
    oc8 = order_complex(build_poset(fixtures["E8"]))
    assert len(oc8.facets) == 2
    assert len(oc8.facets[0] & oc8.facets[1]) == 2  # only top and bottom shared
    assert len(order_complex(build_poset(K2)).facets) == 1


def test_independence_complexes():
    assert independence_complex(K2).facet_lines() == ["{1}", "{2}"]
    assert independence_complex(cycle_graph(4)).facet_lines() == ["{1 3}", "{2 4}"]
    c5 = independence_complex(cycle_graph(5))
    assert len(c5.facets) == 5 and all(len(f) == 2 for f in c5.facets)


def test_no_facet_containment():
    # from_facets skips the constructor's scan; the constructor still
    # refuses a facet inside another, in either order, and a repeat.
    f, h = frozenset({1}), frozenset({1, 2})
    for facets in ((f, h), (h, f), (h, h), ()):
        with pytest.raises(MalformedInput):
            SimplicialComplex(facets)
    with pytest.raises(MalformedInput):
        SimplicialComplex.from_facets([])
    merged = SimplicialComplex.from_facets([{1}, {1, 2}, {2, 3}])
    assert merged.facets == (frozenset({1, 2}), frozenset({2, 3}))


@given(
    st.lists(
        st.frozensets(st.integers(min_value=1, max_value=6), min_size=1),
        min_size=1,
        max_size=12,
    )
)
@settings(max_examples=150, deadline=None)
def test_from_facets_keeps_exactly_the_maximal_sets(sets):
    complex_ = SimplicialComplex.from_facets(sets)
    maximal = {f for f in sets if not any(f < h for h in sets)}
    assert set(complex_.facets) == maximal
    assert len(complex_.facets) == len(maximal)
    # What from_facets builds passes the constructor's own check.
    assert SimplicialComplex(complex_.facets) == complex_


def test_strong_connectivity(fixtures):
    single = SimplicialComplex.from_facets([{1, 2, 3}])
    assert is_strongly_connected(single)
    assert is_strongly_connected(order_complex(build_poset(fixtures["E7"])))
    assert not is_strongly_connected(order_complex(build_poset(fixtures["E8"])))
    nonpure = SimplicialComplex.from_facets([{1, 2}, {3}])
    with pytest.raises(NotPure):
        is_strongly_connected(nonpure)


def test_shellability(fixtures):
    assert is_shellable(order_complex(build_poset(fixtures["E7"])))
    assert not is_shellable(order_complex(build_poset(fixtures["E8"])))
    assert is_shellable(independence_complex(K2))
    assert is_shellable(independence_complex(cycle_graph(5)))
    # two triangles glued at one vertex: pure, connected, but the overlap
    # has codimension two, so no shelling exists
    bowtie = SimplicialComplex.from_facets([{1, 2, 3}, {3, 4, 5}])
    assert not is_shellable(bowtie)
    with pytest.raises(NotPure):
        is_shellable(SimplicialComplex.from_facets([{1, 2}, {3}]))


@st.composite
def pure_complexes(draw) -> SimplicialComplex:
    size = draw(st.integers(min_value=1, max_value=3))
    facet = st.frozensets(st.integers(min_value=1, max_value=6), min_size=size, max_size=size)
    return SimplicialComplex.from_facets(draw(st.lists(facet, min_size=1, max_size=6)))


@st.composite
def graph_complexes(draw) -> SimplicialComplex:
    """The order complex of a small cover poset or the independence
    complex of a small connected graph."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=100_000)))
    n = draw(st.integers(min_value=2, max_value=8))
    if draw(st.booleans()):
        return order_complex(build_poset(relabelled_bipartite_graph(rng, n)))
    return independence_complex(random_connected_graph(rng, n))


def _assert_shelling_matches_oracle(complex_):
    if not complex_.is_pure:
        with pytest.raises(NotPure):
            is_shellable(complex_)
    elif len(complex_.facets) <= 6:
        assert is_shellable(complex_) == brute_force_shellable(complex_.facets)


@given(pure_complexes())
@settings(max_examples=200, deadline=None)
def test_shellability_matches_the_order_scan(complex_):
    _assert_shelling_matches_oracle(complex_)


@given(graph_complexes())
# Two non-shellable ones: two disjoint edges, and E8's two chains that
# share only the bottom and the top.
@example(independence_complex(cycle_graph(4)))
@example(order_complex(build_poset(fixture("E8"))))
@settings(max_examples=100, deadline=None)
def test_shellability_matches_the_order_scan_on_graph_complexes(complex_):
    _assert_shelling_matches_oracle(complex_)


def test_shellability_budget():
    many = SimplicialComplex.from_facets(
        [{i, i + 1} for i in range(1, 15)]
    )
    with pytest.raises(SearchBudgetExceeded):
        is_shellable(many, SearchBudget())


# --- the Cohen-Macaulay report ------------------------------------------------------


def test_cm_report_e7(fixtures):
    report = cohen_macaulay_report(fixtures["E7"])
    assert report.hypothesis_holds and report.pure and report.shellable
    assert report.strongly_connected
    assert report.verdict == "cohen_macaulay"


def test_cm_report_e8(fixtures):
    report = cohen_macaulay_report(fixtures["E8"])
    assert not report.hypothesis_holds  # rank 3 against a side of size 4
    assert report.pure and not report.strongly_connected
    assert report.verdict == "not_cohen_macaulay"


def test_cm_report_paths():
    # Even-length exceptions: the 7-vertex path is graded (the only missing
    # middle pattern has no isolated interior one-bit), so purity holds
    # there and fails for the neighbours.
    for n in (6, 8, 9):
        report = cohen_macaulay_report(path_graph(n))
        assert not report.pure
        assert report.verdict == "not_cohen_macaulay"
    report7 = cohen_macaulay_report(path_graph(7))
    assert report7.pure and report7.hypothesis_holds
    assert report7.verdict == "cohen_macaulay"


def test_rank_plus_one_is_gdim():
    for name, g in fixture_items():
        if not is_connected(g):
            continue
        try:
            p = build_poset(g)
        except NotBipartite:
            continue
        assert rank(p) + 1 == graphical_dimension(g).gdim, name


# --- the per-graph poset memo -------------------------------------------------------


def test_build_poset_memo_returns_the_held_poset():
    g = path_graph(6)
    p = build_poset(g)
    assert build_poset(g) is p
    assert build_poset(g, SearchBudget()) is p
    # An equal graph is another instance with its own poset.
    assert build_poset(path_graph(6)) is not p
    assert order_complex(p) is order_complex(p)


def test_reports_reuse_the_held_poset(monkeypatch):
    from basiccovers import poset as poset_module

    g = path_graph(7)
    p = build_poset(g)
    expected = cohen_macaulay_report(path_graph(7))

    def no_rebuild(*args):
        raise AssertionError("the poset was rebuilt")

    monkeypatch.setattr(poset_module, "_closure_masks", no_rebuild)
    assert cohen_macaulay_report(g) == expected
    assert build_poset(g) is p


def test_build_poset_memo_hit_checks_the_budget():
    g = path_graph(6)
    p = build_poset(g)
    tiny = SearchBudget(3)
    with pytest.raises(SearchBudgetExceeded) as hit:
        build_poset(g, tiny)
    with pytest.raises(SearchBudgetExceeded) as miss:
        build_poset(path_graph(6), tiny)
    assert str(hit.value) == str(miss.value)
    assert build_poset(g) is p


def test_poset_memo_makes_no_reference_cycle():
    import gc
    import weakref

    from basiccovers.asl import is_domain_report

    gc.disable()
    try:
        g = path_graph(8)
        p = build_poset(g)
        # Fill every memo the reports use.
        order_complex(p)
        cohen_macaulay_report(g)
        is_domain_report(g)
        ref = weakref.ref(p)
        del p
        assert ref() is None
        assert build_poset(g) is not None
    finally:
        gc.enable()


def test_graph_with_a_memoised_poset_pickles():
    import pickle

    g = path_graph(6)
    p = build_poset(g)
    copy = pickle.loads(pickle.dumps(g))
    assert copy == g
    assert build_poset(copy) is not p
    assert build_poset(copy).elements == p.elements
