import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from basiccovers.budget import SearchBudget
from basiccovers.covers import krull_dimension_estimate
from basiccovers.errors import NotATree, SearchBudgetExceeded
from basiccovers.gdim import (
    FreeParameterCertificate,
    gdim_bounds,
    graphical_dimension,
    is_free_parameter_set,
    tree_gdim,
)
from basiccovers.graph import (
    Graph,
    cycle_graph,
    matching_number,
    path_graph,
    star_graph,
)

from conftest import (
    brute_force_gdim,
    brute_force_least_free_parameter_sequence,
    fixture_items,
    random_connected_graph,
    random_tree,
)

K2 = Graph.from_edges([(1, 2)])


def test_free_parameter_set_examples():
    assert is_free_parameter_set(K2, FreeParameterCertificate((1,), (2,)))
    p6 = path_graph(6)
    assert is_free_parameter_set(p6, FreeParameterCertificate((5, 3, 1), (6, 4, 2)))
    # the increasing ordering breaks the triangular condition at edge {3,2}
    assert not is_free_parameter_set(p6, FreeParameterCertificate((1, 3, 5), (2, 4, 6)))


def test_free_parameter_set_rejects_overlap_and_non_edges():
    p6 = path_graph(6)
    assert not is_free_parameter_set(p6, FreeParameterCertificate((1,), (1,)))
    assert not is_free_parameter_set(p6, FreeParameterCertificate((1,), (3,)))
    assert not is_free_parameter_set(p6, FreeParameterCertificate((1, 2), (2, 1)))
    assert not is_free_parameter_set(p6, FreeParameterCertificate((1, 3), (2, 4)))


@pytest.mark.parametrize("a, b", [((1.0,), (2,)), ((1,), (2.0,)), ((True,), (2,))])
def test_free_parameter_set_rejects_labels_that_are_not_ints(a, b):
    # 1.0 and True equal the label 1 but are not vertices of the graph.
    assert not is_free_parameter_set(K2, FreeParameterCertificate(a, b))


def test_ordering_matters_for_the_same_pair_set():
    # one unordered pairing, valid only in the decreasing arrangement
    p6 = path_graph(6)
    orderings = {
        ((5, 3, 1), (6, 4, 2)): True,
        ((1, 3, 5), (2, 4, 6)): False,
        ((3, 1, 5), (4, 2, 6)): False,
        ((5, 1, 3), (6, 2, 4)): False,
    }
    for (a, b), expected in orderings.items():
        assert is_free_parameter_set(p6, FreeParameterCertificate(a, b)) == expected


def test_gdim_fixture_values(fixtures):
    expected = {"K2": 2, "P6": 4, "STAR3": 2, "C4": 2, "C5": 3, "C6": 3,
                "K23": 2, "E7": 4, "E8": 4}
    for name, value in expected.items():
        result = graphical_dimension(fixtures[name])
        assert result.gdim == value, name
        assert is_free_parameter_set(fixtures[name], result.certificate)
        assert len(result.certificate) == value - 1


def test_gdim_matches_permutation_oracle():
    rng = random.Random(17)
    for _ in range(25):
        g = random_connected_graph(rng, rng.randint(2, 6))
        assert graphical_dimension(g).gdim == brute_force_gdim(g)


def _assert_least_certificate(g: Graph) -> None:
    result = graphical_dimension(g)
    a_seq, b_seq = brute_force_least_free_parameter_sequence(g)
    assert (result.certificate.a_seq, result.certificate.b_seq) == (a_seq, b_seq)
    assert result.gdim == len(a_seq) + 1
    assert is_free_parameter_set(g, result.certificate)


@pytest.mark.parametrize("name,g", fixture_items())
def test_certificate_is_least_maximum_sequence_on_fixtures(name, g):
    _assert_least_certificate(g)


@st.composite
def connected_graphs(draw) -> Graph:
    seed = draw(st.integers(min_value=0, max_value=100_000))
    n = draw(st.integers(min_value=2, max_value=7))
    return random_connected_graph(random.Random(seed), n)


@given(connected_graphs())
@settings(max_examples=80, deadline=None)
def test_certificate_is_least_maximum_sequence_random(g):
    _assert_least_certificate(g)


def test_c18_certificate():
    result = graphical_dimension(cycle_graph(18))
    assert result.gdim == 9
    assert result.certificate.to_lines() == [
        "A: 1 4 6 8 10 12 14 16",
        "B: 2 3 5 7 9 11 13 15",
    ]


def test_gdim_budget():
    with pytest.raises(SearchBudgetExceeded):
        graphical_dimension(path_graph(25), SearchBudget(10))


def test_bounds_sandwich_fixtures(fixtures):
    expected = {"C5": (3, 3), "P6": (3, 4), "K2": (2, 2)}
    for name, (lo, hi) in expected.items():
        b = gdim_bounds(fixtures[name])
        assert (b.lower, b.upper) == (lo, hi)


def test_bounds_sandwich_random():
    rng = random.Random(29)
    for _ in range(40):
        g = random_connected_graph(rng, rng.randint(2, 8))
        b = gdim_bounds(g)
        value = graphical_dimension(g).gdim
        assert b.lower <= value <= b.upper


def test_tree_gdim():
    assert tree_gdim(K2) == 2
    assert tree_gdim(star_graph(3)) == 2
    assert tree_gdim(path_graph(6)) == 4
    with pytest.raises(NotATree):
        tree_gdim(cycle_graph(4))
    with pytest.raises(NotATree):
        tree_gdim(Graph.from_edges([(1, 2), (3, 4)]))


def test_tree_formula_on_random_trees():
    rng = random.Random(37)
    for _ in range(60):
        g = random_tree(rng, rng.randint(2, 16))
        assert tree_gdim(g) == graphical_dimension(g).gdim == matching_number(g) + 1


def test_dimension_estimate_agrees_with_search():
    rng = random.Random(43)
    for _ in range(10):
        g = random_connected_graph(rng, rng.randint(2, 7))
        data = krull_dimension_estimate(g)
        assert data.stable
        assert data.dimension == graphical_dimension(g).gdim
