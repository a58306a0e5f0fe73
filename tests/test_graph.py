import gc
import random
from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from basiccovers.errors import (
    DimensionMismatch,
    IsolatedVertex,
    LoopEdge,
    MalformedInput,
    SearchBudgetExceeded,
)
from basiccovers.graph import (
    Graph,
    _matching_size,
    _perfect_matchings,
    bipartition,
    check_values,
    complete_bipartite,
    connected_components,
    cycle_graph,
    enumerate_perfect_matchings,
    graph_to_text,
    induced_matching_number,
    is_connected,
    matching_number,
    paired_domination_number,
    parse_graph,
    path_graph,
    star_graph,
)
from basiccovers.asl import verify_asl1
from basiccovers.budget import SearchBudget
from basiccovers.complexes import independence_complex, is_shellable
from basiccovers.covers import enumerate_basic_covers
from basiccovers.gdim import graphical_dimension
from basiccovers.poset import build_poset, order_complex
from basiccovers.projection import cm_equivalence_report, right_edges

from conftest import (
    adjacent_by_edges,
    brute_force_matching_number,
    brute_force_paired_domination,
    components_by_edges,
    enumerate_matchings,
    fixture_items,
    is_bipartite_by_edges,
    maximal_independent_sets_by_edges,
    random_bipartite_graph,
    random_connected_graph,
    right_edges_by_edges,
)


# --- parsing ---------------------------------------------------------------


def test_parse_single_edge():
    g = parse_graph("1 2")
    assert g.vertex_count == 2
    assert g.edges == ((1, 2),)


def test_parse_path_lines():
    g = parse_graph("1 2\n2 3\n3 4\n4 5\n5 6\n")
    assert g.edges == path_graph(6).edges


def test_parse_rejects_loop():
    with pytest.raises(LoopEdge):
        parse_graph("1 1")


def test_parse_comments_and_header():
    g = parse_graph("# a square\nn 4\n1 2\n2 3\n3 4\n1 4\n")
    assert g.vertex_count == 4
    assert g.edge_count == 4


def test_parse_rejects_isolated_vertex():
    with pytest.raises(IsolatedVertex):
        parse_graph("n 3\n1 2\n")
    with pytest.raises(IsolatedVertex):
        parse_graph("1 3")  # vertex 2 implied but never used


def test_parse_rejects_garbage():
    with pytest.raises(MalformedInput):
        parse_graph("1 2 3")
    with pytest.raises(MalformedInput):
        parse_graph("one two")
    with pytest.raises(MalformedInput):
        parse_graph("")


def test_parse_structured_document():
    g = parse_graph('{"n": 3, "edges": [[1, 2], [2, 3]]}')
    assert g.edges == ((1, 2), (2, 3))
    g = parse_graph('{"edges": [[1, 2]], "names": ["a", "b"]}')
    assert [g.display(v) for v in g.vertices] == ["a", "b"]
    with pytest.raises(MalformedInput):
        parse_graph('{"edges": "nope"}')


@pytest.mark.parametrize(
    "doc",
    [
        '{"edges": [[true, 2]]}',
        '{"edges": [[1, 2.0]]}',
        '{"edges": [[1, 2.7]]}',
        '{"edges": [["1", 2]]}',
        '{"edges": [[1, null]]}',
        '{"n": true, "edges": [[1, 2]]}',
        '{"n": 2.0, "edges": [[1, 2]]}',
        '{"n": "2", "edges": [[1, 2]]}',
        '{"edges": [[1, 2]], "names": 5}',
        '{"edges": [[1, 2]], "names": "ab"}',
        '{"edges": [[1, 2]], "names": ["a", 2]}',
        '{"edges": [[1, 2]], "names": ["a"]}',
    ],
)
def test_parse_structured_rejects_non_integers(doc):
    with pytest.raises(MalformedInput):
        parse_graph(doc)


@pytest.mark.parametrize(
    "edges",
    [
        [(1, 2.7), (2, 3)],
        [("2", 3)],
        [(True, 2)],
        [(1, 2.0)],
        [(1, None)],
    ],
)
def test_from_edges_rejects_non_integer_labels(edges):
    # int() would truncate 2.7 to 2 and turn True and "2" into labels.
    with pytest.raises(MalformedInput):
        Graph.from_edges(edges)


def test_duplicate_edges_collapse():
    g = Graph.from_edges([(1, 2), (2, 1)])
    assert g.edges == ((1, 2),)


def test_round_trip_through_text():
    for _, g in fixture_items():
        assert parse_graph(graph_to_text(g)).edges == g.edges


def test_check_values_rejects_wrong_length():
    with pytest.raises(DimensionMismatch):
        check_values(path_graph(3), (1, 0))


@pytest.mark.parametrize(
    "values",
    [
        (0.6, 0.6, 0.6),
        (1.0, 0, 1),
        ("1", "0", "1"),
        (True, 0, True),
        (1, None, 1),
    ],
)
def test_check_values_rejects_non_integers(values):
    with pytest.raises(MalformedInput):
        check_values(path_graph(3), values)


def test_check_values_accepts_any_int_sequence():
    assert check_values(path_graph(3), [1, 0, 1]) == (1, 0, 1)
    assert check_values(path_graph(3), iter((0, 2, 0))) == (0, 2, 0)


# --- bipartition -------------------------------------------------------------


def test_bipartition_c4_tie_break():
    assert bipartition(cycle_graph(4)) == (frozenset({1, 3}), frozenset({2, 4}))


def test_bipartition_odd_cycle_absent():
    assert bipartition(cycle_graph(5)) is None


def test_bipartition_e7(fixtures):
    assert bipartition(fixtures["E7"]) == (
        frozenset({1, 2, 3}),
        frozenset({4, 5, 6, 7}),
    )


def test_bipartition_smaller_side_first():
    rng = random.Random(11)
    for _ in range(30):
        g = random_connected_graph(rng, rng.randint(2, 9))
        sides = bipartition(g)
        if sides is None:
            continue
        a, b = sides
        assert len(a) <= len(b)
        assert a | b == set(g.vertices)
        assert all(not adjacent_by_edges(g, u, v) for u in a for v in a if u < v)


# --- connectivity -------------------------------------------------------------


def test_connectivity():
    assert is_connected(path_graph(6))
    two_edges = Graph.from_edges([(1, 2), (3, 4)])
    assert not is_connected(two_edges)


# --- matchings ----------------------------------------------------------------


def test_matching_number_fixtures(fixtures):
    expected = {"K2": 1, "P6": 3, "STAR3": 1, "C4": 2, "C5": 2, "C6": 3,
                "K23": 2, "E7": 3, "E8": 4}
    for name, nu in expected.items():
        assert matching_number(fixtures[name]) == nu, name


def test_matching_number_oracle_equivalence():
    rng = random.Random(3)
    graphs = [g for _, g in fixture_items()]
    graphs += [random_connected_graph(rng, rng.randint(2, 9)) for _ in range(200)]
    for g in graphs:
        assert matching_number(g) == brute_force_matching_number(g)


def test_perfect_matchings():
    assert enumerate_perfect_matchings(path_graph(6)) == [((1, 2), (3, 4), (5, 6))]
    assert enumerate_perfect_matchings(cycle_graph(4)) == [
        ((1, 2), (3, 4)),
        ((1, 4), (2, 3)),
    ]
    assert enumerate_perfect_matchings(Graph.from_edges([(1, 2)])) == [((1, 2),)]
    assert enumerate_perfect_matchings(cycle_graph(5)) == []


def test_perfect_matchings_cover_everything():
    rng = random.Random(5)
    for _ in range(40):
        g = random_connected_graph(rng, rng.randint(2, 8))
        for m in enumerate_perfect_matchings(g):
            assert sorted(v for e in m for v in e) == list(g.vertices)


# --- domination and induced matchings ------------------------------------------


def test_paired_domination_fixtures(fixtures):
    assert paired_domination_number(fixtures["K2"]) == 2
    assert paired_domination_number(fixtures["C5"]) == 4
    assert paired_domination_number(fixtures["STAR3"]) == 2
    assert paired_domination_number(fixtures["P6"]) == 4


def test_paired_domination_is_even_and_matches_oracle():
    rng = random.Random(9)
    for _ in range(40):
        g = random_connected_graph(rng, rng.randint(2, 8))
        value = paired_domination_number(g)
        assert value % 2 == 0
        assert value == brute_force_paired_domination(g)


def test_induced_matching_fixtures(fixtures):
    assert induced_matching_number(fixtures["K2"]) == 1
    assert induced_matching_number(fixtures["P6"]) == 2
    assert induced_matching_number(fixtures["C4"]) == 1
    assert induced_matching_number(fixtures["C5"]) == 1


def test_induced_matching_below_matching_number():
    rng = random.Random(13)
    for _ in range(60):
        g = random_connected_graph(rng, rng.randint(2, 9))
        assert induced_matching_number(g) <= matching_number(g)


def test_budget_rejects_large_instances():
    big = path_graph(30)
    tight = SearchBudget(8)
    with pytest.raises(SearchBudgetExceeded):
        paired_domination_number(big, tight)
    with pytest.raises(SearchBudgetExceeded):
        enumerate_perfect_matchings(big, tight)
    with pytest.raises(SearchBudgetExceeded):
        induced_matching_number(big, tight)


# --- hypothesis properties -------------------------------------------------------


@st.composite
def connected_graphs(draw) -> Graph:
    seed = draw(st.integers(min_value=0, max_value=10_000))
    n = draw(st.integers(min_value=2, max_value=8))
    return random_connected_graph(random.Random(seed), n)


@given(connected_graphs())
@settings(max_examples=40, deadline=None)
def test_all_matchings_are_disjoint(g: Graph):
    for m in enumerate_matchings(g):
        seen = set()
        for u, v in m:
            assert u not in seen and v not in seen
            seen.update((u, v))


@given(connected_graphs())
@settings(max_examples=40, deadline=None)
def test_matching_and_domination_ranges(g: Graph):
    nu = matching_number(g)
    assert 1 <= nu <= g.vertex_count // 2
    assert 2 <= paired_domination_number(g) <= g.vertex_count


@st.composite
def any_graphs(draw) -> Graph:
    """A graph on at most 9 vertices without isolated ones: one to three
    random parts, each bipartite or not, left apart or each joined to the
    previous one by an edge, under a random labelling."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=100_000)))
    joined = draw(st.booleans())
    edges: list[tuple[int, int]] = []
    n = 0
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        if n > 7:
            break
        if joined and n:
            edges.append((n, n + 1))
        size = draw(st.integers(min_value=2, max_value=min(5, 9 - n)))
        bipartite = draw(st.booleans())
        density = draw(st.sampled_from([0.3, 0.6, 1.0]))
        split = rng.randint(1, size - 1)
        pairs = [
            (n + u, n + v)
            for u in range(1, size + 1)
            for v in range(u + 1, size + 1)
            if not bipartite or u <= split < v
        ]
        edges += [e for e in pairs if rng.random() < density] or [pairs[0]]
        n += size
    touched = sorted({x for e in edges for x in e})
    shuffled = list(range(1, len(touched) + 1))
    rng.shuffle(shuffled)
    label = dict(zip(touched, shuffled))
    return Graph.from_edges([(label[u], label[v]) for u, v in edges])


@given(any_graphs())
@example(path_graph(5))
@example(cycle_graph(5))
@example(Graph.from_edges([(1, 4), (2, 3), (3, 5)]))
@example(Graph.from_edges([(1, 5), (2, 3), (2, 4), (3, 4)]))
@settings(max_examples=100, deadline=None)
def test_mask_searches_match_the_edge_list_oracles(g: Graph):
    n = g.vertex_count
    # Labels outside 1..n, 0 and negatives included, are on no edge.
    for u in range(-1, n + 2):
        for v in range(-1, n + 2):
            assert g.has_edge(u, v) == adjacent_by_edges(g, u, v), (u, v)
    components = components_by_edges(g)
    assert connected_components(g) == components
    sides = bipartition(g)
    assert (sides is not None) == is_bipartite_by_edges(g)
    if sides is not None:
        a, b = sides
        assert a | b == set(g.vertices) and not a & b
        for side in (a, b):
            assert not any(adjacent_by_edges(g, u, v) for u in side for v in side)
        # The documented rule: every component's lowest vertex starts on
        # one side, the smaller side is A, and on a tie A holds vertex 1.
        lowest = {min(c) for c in components}
        assert lowest <= a or lowest <= b
        assert len(a) < len(b) or (len(a) == len(b) and 1 in a)
    assert right_edges(g) == right_edges_by_edges(g)
    assert set(independence_complex(g).facets) == maximal_independent_sets_by_edges(g)


@st.composite
def graphs_with_masks(draw) -> tuple[Graph, int]:
    """A graph on at most 9 vertices, bipartite or not, and a vertex mask."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=10_000)))
    n = draw(st.integers(min_value=2, max_value=9))
    make = draw(st.sampled_from([random_connected_graph, random_bipartite_graph]))
    g = make(rng, n)
    picked = draw(st.lists(st.sampled_from(list(g.vertices)), unique=True))
    return g, sum(1 << v for v in picked)


def _induced(g: Graph, mask: int) -> Graph | None:
    """The subgraph on the non-isolated vertices of ``mask``, relabelled
    1..k; None when it has no edge."""
    edges = [(u, v) for u, v in g.edges if mask >> u & 1 and mask >> v & 1]
    if not edges:
        return None
    touched = sorted({x for e in edges for x in e})
    label = {w: i + 1 for i, w in enumerate(touched)}
    return Graph.from_edges([(label[u], label[v]) for u, v in edges])


@given(graphs_with_masks())
@settings(max_examples=150, deadline=None)
def test_matching_kernel_matches_brute_force(case):
    g, mask = case
    sub = _induced(g, mask)
    expected = 0 if sub is None else brute_force_matching_number(sub)
    assert _matching_size(g.neighbour_masks, mask, None) == expected
    sides = bipartition(g)
    if sides is not None:
        left = sum(1 << v for v in sides[0])
        assert _matching_size(g.neighbour_masks, mask, left) == expected


@given(graphs_with_masks())
@settings(max_examples=150, deadline=None)
def test_perfect_matching_kernel_matches_enumeration(case):
    g, mask = case
    sub = _induced(g, mask)
    if mask == 0:
        total = 1  # the empty matching
    elif sub is None or sub.vertex_count != bin(mask).count("1"):
        total = 0  # some vertex of the mask has no neighbour in it
    else:
        total = len(enumerate_perfect_matchings(sub))
    for limit in (1, 2):
        assert _perfect_matchings(g.neighbour_masks, mask, limit) == min(limit, total)


# --- reference cycles -------------------------------------------------------------

WHISKERED_TRIANGLE = Graph.from_edges([(1, 2), (1, 3), (2, 3), (1, 4), (2, 5), (3, 6)])


@pytest.mark.parametrize(
    "search, make_input",
    [
        (graphical_dimension, lambda: cycle_graph(14)),
        (independence_complex, lambda: cycle_graph(10)),
        (is_shellable, lambda: order_complex(build_poset(path_graph(7)))),
        (induced_matching_number, lambda: cycle_graph(10)),
        (matching_number, lambda: cycle_graph(9)),
        (matching_number, lambda: complete_bipartite(3, 4)),
        (paired_domination_number, lambda: cycle_graph(10)),
        (cm_equivalence_report, lambda: WHISKERED_TRIANGLE),
        (enumerate_perfect_matchings, lambda: cycle_graph(12)),
        pytest.param(
            partial(enumerate_basic_covers, k=3),
            lambda: path_graph(8),
            id="enumerate_basic_covers-<lambda>",
        ),
        pytest.param(
            partial(verify_asl1, d=3),
            lambda: build_poset(path_graph(7)),
            id="verify_asl1-<lambda>",
        ),
    ],
)
def test_searches_leave_no_reference_cycles(search, make_input):
    """A recursive search must free its state on return, not at the next
    cyclic garbage collection."""
    arg = make_input()
    gc.collect()
    gc.disable()
    try:
        search(arg)
        assert gc.collect() == 0
    finally:
        gc.enable()
