import pickle
import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from basiccovers import covers
from basiccovers.budget import SearchBudget
from basiccovers.covers import (
    Cover,
    count_basic_covers,
    enumerate_basic_covers,
    finite_differences,
    hilbert_function,
    is_basic,
    is_k_cover,
    krull_dimension_estimate,
    low_half_vertices,
    reconstruct_from_low_half,
)
from basiccovers.errors import (
    CompletionNotBasic,
    MalformedInput,
    NotACover,
    NotConnected,
    NotDominating,
    SearchBudgetExceeded,
)
from basiccovers.gdim import graphical_dimension
from basiccovers.graph import (
    Graph,
    bipartition,
    complete_bipartite,
    cycle_graph,
    is_connected,
    matching_number,
    path_graph,
)

from conftest import (
    basic_verdict_by_edges,
    brute_force_basic_covers,
    fixture_items,
    random_bipartite_graph,
    random_connected_graph,
)

K2 = Graph.from_edges([(1, 2)])


# --- predicates -----------------------------------------------------------


def test_is_k_cover_basics():
    assert is_k_cover(K2, (1, 0), 1)
    assert not is_k_cover(K2, (0, 0), 1)  # the zero function never counts
    assert is_k_cover(path_graph(6), (0, 1, 1, 0, 1, 1), 1)
    assert not is_k_cover(path_graph(6), (1, 0, 0, 1, 0, 1), 1)  # edge {2,3} uncovered


@pytest.mark.parametrize(
    "values",
    [[0.6, 0.6, 0.6], [1.0, 1.0, 1.0], ["1", "0", "1"], [True, 0, True]],
)
def test_is_k_cover_rejects_non_integer_values(values):
    # int() would truncate 0.6 to 0 (a silent False) and accept "1" and True.
    with pytest.raises(MalformedInput):
        is_k_cover(path_graph(3), values, 1)


@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=1, max_value=3),
)
@settings(max_examples=40, deadline=None)
def test_is_basic_matches_the_edge_list_oracle(seed, n, k):
    # Values run to k + 1, past the largest a basic cover can hold.
    g = random_connected_graph(random.Random(seed), n)
    for vals in product(range(k + 2), repeat=n):
        expected = basic_verdict_by_edges(g, vals, k)
        if expected is None:
            with pytest.raises(NotACover):
                is_basic(g, Cover(vals, k))
        else:
            assert is_basic(g, Cover(vals, k)) == expected, vals


def test_is_basic_examples(fixtures):
    assert is_basic(K2, Cover((1, 0), 1))
    assert not is_basic(K2, Cover((1, 1), 1))
    # The cover with top-row pattern (1,1,0); the bottom row is forced to
    # (0,0,1,1) by the edges at vertex 3.
    assert is_basic(fixtures["E7"], Cover((1, 1, 0, 0, 0, 1, 1), 1))


def test_is_basic_rejects_non_cover():
    with pytest.raises(NotACover):
        is_basic(K2, Cover((0, 0), 1))


def test_is_basic_cost_does_not_grow_with_the_level():
    # The tightness test keys vertex masks by value, so a level of 10**10
    # needs no table of k + 1 entries.
    k = 10**10
    assert is_basic(K2, Cover((k, 0), k))
    assert is_basic(path_graph(3), Cover((k - 1, 1, k - 1), k))
    assert not is_basic(K2, Cover((k, 1), k))


def is_decomposable(g: Graph, cover: Cover, k: int) -> bool:
    """Does cover split as an h-cover plus a (k-h)-cover with 1 <= h <= k-1?

    Exhaustive over the componentwise-smaller assignments; splits involving
    a 0-cover are the business of :func:`is_basic`, not this predicate.
    """
    if not is_k_cover(g, cover.values, k):
        raise NotACover(f"values are not a {k}-cover")
    for beta in product(*(range(x + 1) for x in cover.values)):
        rest = tuple(x - b for x, b in zip(cover.values, beta))
        if any(
            is_k_cover(g, beta, h) and is_k_cover(g, rest, k - h) for h in range(1, k)
        ):
            return True
    return False


def test_is_decomposable():
    assert is_decomposable(K2, Cover((2, 0), 2), 2)
    assert is_decomposable(K2, Cover((1, 1), 2), 2)
    assert not is_decomposable(cycle_graph(5), Cover((1, 1, 1, 1, 1), 2), 2)
    # level-1 covers admit no proper split
    assert not is_decomposable(K2, Cover((1, 0), 1), 1)


# --- enumeration -----------------------------------------------------------


def test_enumerate_k2():
    assert [c.values for c in enumerate_basic_covers(K2, 1)] == [(0, 1), (1, 0)]
    assert [c.values for c in enumerate_basic_covers(K2, 3)] == [
        (0, 3),
        (1, 2),
        (2, 1),
        (3, 0),
    ]


def test_enumerate_e7_patterns(fixtures):
    covers = enumerate_basic_covers(fixtures["E7"], 1)
    patterns = {c.values[:3] for c in covers}
    assert patterns == {(0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 0, 1), (1, 1, 1)}
    assert len(covers) == 5


def test_enumerate_sorted_and_within_range():
    for _, g in fixture_items():
        for k in (1, 2):
            covers = enumerate_basic_covers(g, k)
            assert covers == sorted(covers)
            assert all(0 <= x <= k for c in covers for x in c.values)


def test_enumeration_matches_brute_force_on_fixtures():
    for name, g in fixture_items():
        if g.vertex_count > 7:
            continue
        for k in (1, 2, 3):
            got = [c.values for c in enumerate_basic_covers(g, k)]
            assert got == brute_force_basic_covers(g, k), (name, k)


def test_enumeration_matches_brute_force_random():
    rng = random.Random(101)
    for _ in range(30):
        g = random_connected_graph(rng, rng.randint(2, 7))
        for k in (1, 2, 3):
            got = [c.values for c in enumerate_basic_covers(g, k)]
            assert got == brute_force_basic_covers(g, k)


@given(
    st.integers(min_value=0, max_value=100_000),
    st.integers(min_value=2, max_value=9),
    st.integers(min_value=1, max_value=4),
)
@settings(max_examples=80, deadline=None)
def test_search_prunes_leave_only_basic_leaves(seed, n, k):
    # The prunes are exact: every vertex is settled, zero or tight, once
    # its last neighbour is placed, so each leaf the search reaches is a
    # basic cover.  A weaker prune shows up as a non-basic leaf, and a
    # stronger one as a leaf count below the frontier DP's, which shares
    # no code with the search.
    from basiccovers.covers import _basic_cover_search

    g = random_connected_graph(random.Random(seed), n)
    leaves = _basic_cover_search(g, k)
    assert len(set(leaves)) == len(leaves)
    assert all(is_basic(g, Cover(vals, k)) for vals in leaves)
    assert len(leaves) == count_basic_covers(g, k)


def test_count_agrees_with_enumeration():
    rng = random.Random(23)
    for _ in range(20):
        g = random_connected_graph(rng, rng.randint(2, 7))
        for k in range(1, 9):
            assert count_basic_covers(g, k) == len(enumerate_basic_covers(g, k))


@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=2, max_value=7),
    st.integers(min_value=1, max_value=8),
)
@settings(max_examples=60, deadline=None)
def test_count_agrees_with_enumeration_random(seed, n, k):
    # The transfer-matrix count against the DFS enumeration.
    g = random_connected_graph(random.Random(seed), n)
    assert count_basic_covers(g, k) == len(enumerate_basic_covers(g, k))


def test_count_dense_graphs():
    # Dense graphs have few basic covers but many feasible partial
    # assignments, which the count has to discard.
    k8 = Graph.from_edges([(i, j) for i in range(1, 9) for j in range(i + 1, 9)])
    assert [count_basic_covers(k8, k) for k in (2, 4, 8)] == [9, 17, 33]
    assert count_basic_covers(complete_bipartite(4, 6), 8) == 9
    for g in (k8, complete_bipartite(3, 4)):
        for k in (1, 2, 5):
            assert count_basic_covers(g, k) == len(enumerate_basic_covers(g, k))


def test_count_p12_level_16():
    # Value the enumeration gave on the same graph (829,753 covers).
    assert count_basic_covers(path_graph(12), 16) == 829_753


def test_count_rejects_bad_level():
    for k in (0, -1):
        with pytest.raises(MalformedInput):
            count_basic_covers(K2, k)
    with pytest.raises(MalformedInput):
        hilbert_function(K2, -1)


@pytest.mark.parametrize("k", [2.0, "2", True, None])
def test_levels_that_are_not_ints_are_malformed(k):
    # True equals 1 and 2.0 equals 2, so a range test alone lets both
    # through, and enumeration would list covers at level=True.
    for level_of in (count_basic_covers, enumerate_basic_covers, hilbert_function):
        with pytest.raises(MalformedInput):
            level_of(K2, k)
    with pytest.raises(MalformedInput):
        reconstruct_from_low_half(K2, k, {1: 0})


def test_counting_one_graph_twice_builds_one_frontier_plan(monkeypatch):
    built = []
    original = covers._frontier_plan
    monkeypatch.setattr(
        covers, "_frontier_plan", lambda g: built.append(g) or original(g)
    )
    g = path_graph(8)
    assert [count_basic_covers(g, k) for k in (2, 3)] == [
        len(enumerate_basic_covers(g, k)) for k in (2, 3)
    ]
    assert len(built) == 1 and built[0] is g
    steps = covers._frontier_steps(g)
    assert isinstance(steps, tuple)
    assert all(isinstance(part, tuple) for step in steps for part in step[:3])
    # A pickled copy carries no plan; counting it builds its own.
    copy = pickle.loads(pickle.dumps(g))
    assert "_frontier_steps" in g.__dict__
    assert "_frontier_steps" not in copy.__dict__
    assert count_basic_covers(copy, 3) == count_basic_covers(g, 3)
    assert len(built) == 2 and built[1] is copy


def test_basicness_vs_descent_search():
    # basic <=> no componentwise-smaller k-cover exists
    rng = random.Random(77)
    for _ in range(15):
        g = random_connected_graph(rng, rng.randint(2, 6))
        k = rng.randint(1, 3)
        for vals in product(range(k + 1), repeat=g.vertex_count):
            if not is_k_cover(g, vals, k):
                continue
            has_smaller = any(
                is_k_cover(g, beta, k)
                for beta in product(*(range(x + 1) for x in vals))
                if beta != vals and any(beta)
            )
            assert is_basic(g, Cover(vals, k)) == (not has_smaller)


def test_hilbert_function_values(fixtures):
    assert hilbert_function(K2, 5) == 6
    assert hilbert_function(cycle_graph(5), 1) == 5
    assert hilbert_function(fixtures["E8"], 1) == 6
    assert hilbert_function(K2, 0) == 1


def test_enumerate_rejects_bad_level():
    with pytest.raises(MalformedInput):
        enumerate_basic_covers(K2, 0)


def test_enumerate_budget():
    with pytest.raises(SearchBudgetExceeded):
        enumerate_basic_covers(path_graph(25), 1, SearchBudget(10))


# --- low-half reconstruction ---------------------------------------------------


def test_reconstruct_forced_completion():
    assert reconstruct_from_low_half(K2, 2, {1: 0}).values == (0, 2)
    assert reconstruct_from_low_half(K2, 2, {1: 1, 2: 1}).values == (1, 1)


def test_reconstruct_requires_domination():
    with pytest.raises(NotDominating):
        reconstruct_from_low_half(path_graph(4), 2, {1: 0})


def test_reconstruct_rejects_high_values():
    with pytest.raises(MalformedInput):
        reconstruct_from_low_half(K2, 2, {1: 2})


@pytest.mark.parametrize("partial", [{1.0: 0}, {True: 0}, {1: 0, 2.0: 2}])
def test_reconstruct_rejects_labels_that_are_not_ints(partial):
    # 1.0 and True equal the label 1 but cannot index the neighbour masks.
    with pytest.raises(MalformedInput):
        reconstruct_from_low_half(K2, 2, partial)


def test_reconstruct_detects_non_basic_completion():
    # On a path, assigning 0 to both endpoints of the middle edge leaves
    # vertex 1 forced to 1 with no tight edge at level 2.
    with pytest.raises((CompletionNotBasic, NotDominating)):
        reconstruct_from_low_half(path_graph(4), 2, {1: 1, 2: 0, 3: 0})


def test_low_half_round_trip_all_fixtures():
    for name, g in fixture_items():
        for k in (1, 2, 3, 4):
            for cover in enumerate_basic_covers(g, k):
                partial = low_half_vertices(cover)
                assert reconstruct_from_low_half(g, k, partial) == cover, (name, k)


@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=2, max_value=7))
@settings(max_examples=30, deadline=None)
def test_low_half_round_trip_random(seed, n):
    g = random_connected_graph(random.Random(seed), n)
    for k in (2, 3):
        for cover in enumerate_basic_covers(g, k):
            assert reconstruct_from_low_half(g, k, low_half_vertices(cover)) == cover


# --- dimension estimation --------------------------------------------------------


def test_krull_estimate_k2():
    # Bipartite, so every level is sampled; nu = 1, so h = 0..3.
    data = krull_dimension_estimate(K2)
    assert data.counts == (1, 2, 3, 4) and data.step == 1
    assert data.stable and data.fitted_degree == 1 and data.dimension == 2


def test_krull_estimate_c5_and_p6():
    assert krull_dimension_estimate(cycle_graph(5)).dimension == 3
    assert krull_dimension_estimate(path_graph(6)).dimension == 4


def test_krull_estimate_requires_connectivity():
    with pytest.raises(NotConnected):
        krull_dimension_estimate(Graph.from_edges([(1, 2), (3, 4)]))


def test_krull_estimate_matches_gdim_on_fixtures():
    for name, g in fixture_items():
        data = krull_dimension_estimate(g)
        assert data.stable, name
        assert data.dimension == graphical_dimension(g).gdim, name


@pytest.mark.parametrize(
    "g",
    [path_graph(14), Graph.from_edges(path_graph(14).edges + ((1, 3),))],
    ids=["P14", "P14-plus-chord-1-3"],
)
def test_krull_estimate_certifies_a_degree_above_six(g):
    # gdim is 8 on both: a fit over the last three of eight even levels
    # could never certify degree 7, and read these as unstable.
    data = krull_dimension_estimate(g)
    assert data.stable and data.dimension == 8 == graphical_dimension(g).gdim


def test_krull_estimate_checks_the_budget_before_the_matching_search(monkeypatch):
    def unbudgeted(g):
        raise AssertionError("matching search reached on a graph over the budget")

    monkeypatch.setattr(covers, "matching_number", unbudgeted)
    g = path_graph(21)
    with pytest.raises(SearchBudgetExceeded) as exc:
        krull_dimension_estimate(g)
    assert str(exc.value) == (
        "count_basic_covers: graph with n=21, m=20 exceeds budget (n <= 20, m <= 60)"
    )


def test_krull_estimate_polynomial_predicts_the_next_level():
    # The degree-(gdim - 1) polynomial through the sample must give the
    # count one level past it, at h = nu + 3: the next value is the sum of
    # the last entries of the difference rows 0..degree.
    rng = random.Random(61)
    seen_steps = set()
    for i in range(40):
        n = rng.randint(2, 7)
        if i % 2:
            g = random_bipartite_graph(rng, n)
            if not is_connected(g):
                continue
        else:
            g = random_connected_graph(rng, n)
        data = krull_dimension_estimate(g)
        degree = graphical_dimension(g).gdim - 1
        assert data.step == (1 if bipartition(g) is not None else 2), g.edges
        assert data.stable and data.fitted_degree == degree, g.edges
        rows = [data.counts]
        for _ in range(degree):
            rows.append(finite_differences(rows[-1]))
        predicted = sum(row[-1] for row in rows)
        h = len(data.counts)
        assert h == matching_number(g) + 3, g.edges
        assert predicted == count_basic_covers(g, data.step * h), g.edges
        seen_steps.add(data.step)
    assert seen_steps == {1, 2}


def test_finite_differences():
    assert finite_differences((1, 3, 5, 7)) == (2, 2, 2)
    assert finite_differences((4,)) == ()


def test_cover_serialisation():
    assert Cover((0, 2, 1), 2).to_line() == "k=2 0 2 1"
