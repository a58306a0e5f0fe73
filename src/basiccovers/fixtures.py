"""The bundled graph corpus used by the CLI, the tests and the acceptance
suite.

Two of the graphs (E7 and E8) are reconstructed from hand-drawn pictures,
so their defining properties are re-verified programmatically by
:func:`verify_corpus`: the three right edges and the five-element pure
cover poset of E7, and the six basic 1-covers with a pure but not strongly
connected order complex for E8.  A mismatch aborts instead of silently
analysing the wrong graph.
"""

from __future__ import annotations

from functools import cache
from pathlib import Path

from .complexes import is_strongly_connected
from .errors import FixtureIntegrityError
from .graph import (
    Graph,
    complete_bipartite,
    cycle_graph,
    graph_to_text,
    path_graph,
    star_graph,
)
from .poset import build_poset, is_pure, order_complex, rank
from .projection import right_edges

E7_EDGES = ((1, 4), (2, 5), (3, 6), (1, 5), (1, 6), (1, 7), (2, 7), (3, 7))
E8_EDGES = (
    (1, 5),
    (2, 6),
    (3, 7),
    (1, 6),
    (2, 7),
    (3, 8),
    (1, 7),
    (2, 8),
    (4, 5),
    (4, 6),
)

FIXTURE_NAMES = ("K2", "P6", "STAR3", "C4", "C5", "C6", "K23", "E7", "E8")


@cache
def corpus() -> dict[str, Graph]:
    return {
        "K2": Graph.from_edges([(1, 2)]),
        "P6": path_graph(6),
        "STAR3": star_graph(3),
        "C4": cycle_graph(4),
        "C5": cycle_graph(5),
        "C6": cycle_graph(6),
        "K23": complete_bipartite(2, 3),
        # Seven vertices, three in the top row; the three vertical pairs
        # (1,4), (2,5), (3,6) are its only right edges and vertex 7 lies on
        # none of them.
        "E7": Graph.from_edges(E7_EDGES),
        # Eight vertices in two rows of four; it has exactly six basic
        # 1-covers and its cover poset is pure with a disconnected-in-
        # codimension-one order complex.
        "E8": Graph.from_edges(E8_EDGES),
    }


def fixture(name: str) -> Graph:
    graphs = corpus()
    if name not in graphs:
        raise KeyError(f"unknown fixture {name!r}; choose from {FIXTURE_NAMES}")
    return graphs[name]


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise FixtureIntegrityError(message)


@cache
def verify_corpus() -> bool:
    """Re-derive the documented properties of the reconstructed fixtures.

    Returns True; raises :class:`FixtureIntegrityError` on any mismatch.
    Cached so the check runs once per process.
    """
    e7 = fixture("E7")
    _check(
        right_edges(e7) == ((1, 4), (2, 5), (3, 6)),
        "E7 must have exactly the three vertical right edges",
    )
    p7 = build_poset(e7)
    _check(len(p7) == 5, "E7 must have five basic 1-covers")
    _check(
        p7.labels == ("000", "100", "101", "110", "111"),
        "E7 cover poset has the wrong elements",
    )
    _check(
        p7.hasse_lines()
        == ["000 < 100", "100 < 101", "100 < 110", "101 < 111", "110 < 111"],
        "E7 cover poset has the wrong shape",
    )
    _check(is_pure(p7) and rank(p7) == 3, "E7 cover poset must be pure of rank 3")

    e8 = fixture("E8")
    p8 = build_poset(e8)
    _check(len(p8) == 6, "E8 must have six basic 1-covers")
    _check(is_pure(p8) and rank(p8) == 3, "E8 cover poset must be pure of rank 3")
    complex8 = order_complex(p8)
    _check(len(complex8.facets) == 2, "E8 order complex must have two facets")
    _check(
        not is_strongly_connected(complex8),
        "E8 order complex must not be strongly connected",
    )
    return True


def write_corpus(directory: str | Path) -> list[Path]:
    """Write every fixture as an edge-list file; returns the paths."""
    verify_corpus()
    target = Path(directory)
    target.mkdir(parents=True, exist_ok=True)
    written = []
    for name in FIXTURE_NAMES:
        path = target / f"{name.lower()}.edges"
        path.write_text(f"# fixture {name}\n" + graph_to_text(fixture(name)))
        written.append(path)
    return written
