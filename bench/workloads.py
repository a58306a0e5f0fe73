"""Seeded job streams for the three benchmark workloads.

A workload runs in rounds.  Each round is the workload's fixed list of
graph *shapes*, run in order, each under fresh vertex labels drawn from the
seed.  The seed picks the labels and nothing else, so runs with different
seeds do the same work while no edge list ever repeats inside one
interpreter: a per-graph cache can then gain only from reuse inside one
job, never from the benchmark repeating itself.  Random shapes come from a
constant shape seed for the same reason: drawn per seed, they would make
the amount of work, and so every timing, depend on the seed.

A run measures whole rounds only (``worker.py``), so the job median and
the job rate do not depend on where the time window ends.  The tail job
is the 11th-costliest of the run; with R rounds that is the
``ceil(11 / R)``-th costliest shape, so each round below puts several
shapes of similar cost just under its costliest one.  A run ends at the
round boundary nearest to its length, and each round's length sits well
inside the range for which that is the same boundary on every run.

This module does not import ``basiccovers``; the program only ever
receives the edge-list text built here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import zip_longest
from typing import Iterator

WORKLOADS = ("analyze", "dimension", "poset")

# Vertex labels are redrawn at most this often per job before a shape whose
# relabellings are used up is left out of the round.
RELABEL_TRIES = 32
MAX_ROUNDS = 1000
SHAPE_SEED = 10044980

Edges = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class Shape:
    name: str
    n: int
    edges: Edges
    # Keep the given labels in round 0 (the bundled fixtures).
    verbatim: bool = False


@dataclass(frozen=True)
class Job:
    id: str
    round: int
    n: int
    edges: Edges

    @property
    def text(self) -> str:
        return f"n {self.n}\n" + "".join(f"{u} {v}\n" for u, v in self.edges)


def _canon(edges) -> Edges:
    return tuple(sorted((min(u, v), max(u, v)) for u, v in edges))


def _shape(name: str, edges, verbatim: bool = False) -> Shape:
    edges = _canon(edges)
    return Shape(name, max(v for _, v in edges), edges, verbatim)


def path(n: int) -> Edges:
    return _canon((i, i + 1) for i in range(1, n))


def cycle(n: int) -> Edges:
    return _canon(list(path(n)) + [(1, n)])


def grid(rows: int, cols: int) -> Edges:
    """The rows x cols grid; rows = 2 gives the ladder."""
    label = lambda i, j: i * cols + j + 1  # noqa: E731
    edges = []
    for i in range(rows):
        for j in range(cols):
            if j + 1 < cols:
                edges.append((label(i, j), label(i, j + 1)))
            if i + 1 < rows:
                edges.append((label(i, j), label(i + 1, j)))
    return _canon(edges)


def whiskered(core: Edges, n: int) -> Edges:
    """Attach one pendant vertex to every vertex of ``core``; the result
    satisfies the weak square condition."""
    return _canon(list(core) + [(v, n + v) for v in range(1, n + 1)])


def complete(n: int) -> Edges:
    return _canon((u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1))


def tree_plus_edges(rng: random.Random, n: int, extra: int) -> Edges:
    """A random spanning tree on n vertices plus ``extra`` random chords."""
    order = list(range(1, n + 1))
    rng.shuffle(order)
    edges = {_canon([(order[i], order[rng.randrange(i)])])[0] for i in range(1, n)}
    chords = [
        (u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
        if (u, v) not in edges
    ]
    rng.shuffle(chords)
    return _canon(list(edges) + chords[:extra])


def sparse_gnp(rng: random.Random, n: int, p: float) -> Edges:
    """G(n, p) redrawn until it has no isolated vertex (the package rejects
    isolated vertices)."""
    while True:
        edges = [
            (u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
            if rng.random() < p
        ]
        if {x for e in edges for x in e} == set(range(1, n + 1)):
            return _canon(edges)


def random_bipartite(rng: random.Random, a: int, b: int, extra: int) -> Edges:
    """A random spanning tree of K(a, b) plus ``extra`` random cross edges;
    vertices 1..a form one side."""
    side_a = list(range(1, a + 1))
    side_b = list(range(a + 1, a + b + 1))
    placed = [rng.choice(side_a)]
    rest = [v for v in side_a + side_b if v != placed[0]]
    rng.shuffle(rest)
    edges = set()
    pending = rest
    while pending:
        # Attach a vertex whose other side already has a placed vertex.
        for idx, v in enumerate(pending):
            partners = [w for w in placed if (w <= a) != (v <= a)]
            if partners:
                edges.add(_canon([(v, rng.choice(partners))])[0])
                placed.append(v)
                pending = pending[:idx] + pending[idx + 1:]
                break
    cross = [(u, v) for u in side_a for v in side_b if (u, v) not in edges]
    rng.shuffle(cross)
    return _canon(list(edges) + cross[:extra])


def analyze_round(fixtures: dict[str, Edges]) -> list[Shape]:
    """The nine bundled fixtures (verbatim in round 0) among 32 random
    connected graphs, each a spanning tree on 5-8 vertices plus 0-3 chords,
    two per (vertices, chords) pair.

    Times below are at the reference machine speed (``calibration.py``).
    A round takes 10-12.7 s, so a 22 s run does two.  Jobs take from a few
    milliseconds to 1.7 s (E8); the next costliest shapes, all 8-vertex
    graphs with chords, take 0.7-1.4 s, and the tail of a two-round run
    falls among them."""
    rng = random.Random(SHAPE_SEED)
    pairs = [(n, extra) for extra in (0, 1, 2, 3) for n in (5, 6, 7, 8)]
    randoms = [
        _shape(f"R{n}x{extra}.{k}", tree_plus_edges(rng, n, extra))
        for k in range(2)
        for n, extra in pairs
    ]
    fixed = [_shape(name, edges, verbatim=True) for name, edges in fixtures.items()]
    return [s for pair in zip_longest(fixed, randoms) for s in pair if s is not None]


def dimension_round() -> list[Shape]:
    """Graphs on 10-16 vertices where the free-parameter search cannot
    stop at the matching-number ceiling (an even cycle, ladders, a 3 x 4
    grid, sparse G(n, p)), a path for the paired-domination subset search,
    and two whiskered graphs, which satisfy the weak square condition, for
    the Cohen-Macaulay report.

    At the reference machine speed (``calibration.py``) a round takes
    about 1.4 s, so a 22 s run does about fifteen rounds.  Its tail job is
    then always one of the ladder L2x7's (0.75 s), the costliest shape by
    a factor of five, and the median falls among the middle graphs of
    90-140 ms.  Graphs whose search time varies with the vertex labels
    are left out, so that the tail does not hang on the labels: C14 (by a
    quarter), paths of 18 or more vertices (several-fold)."""
    rng = random.Random(SHAPE_SEED + 1)
    gnp = {n: sparse_gnp(rng, n, 2.5 / n) for n in (10, 11, 12, 13)}
    return [
        _shape("WC5", whiskered(cycle(5), 5)),
        _shape("WK5", whiskered(complete(5), 5)),
        _shape("GNP11", gnp[11]),
        _shape("GNP12", gnp[12]),
        _shape("C12", cycle(12)),
        _shape("L2x6", grid(2, 6)),
        _shape("G3x4", grid(3, 4)),
        _shape("P16", path(16)),
        _shape("L2x7", grid(2, 7)),
    ]


def poset_round() -> list[Shape]:
    """Bipartite graphs whose cover posets have 3-86 elements: paths
    P10-P16, even cycles, whiskered paths, ladders, 3-row grids and 28
    random bipartite graphs, one per (sides, extra edges) pair.

    At the reference machine speed (``calibration.py``) a round takes
    10-12.2 s, so a 22 s run does two; P16 alone takes 2.6 s, and the
    tail of the run falls among the next shapes (P15, WP7, C14, P14,
    B6x7.0: 0.65-1.3 s).  The
    shelling budget cuts the Cohen-Macaulay step short on some graphs
    (C10, WP5-WP7, several random ones); those steps count as skipped."""
    rng = random.Random(SHAPE_SEED + 2)
    shapes = [_shape(f"P{n}", path(n)) for n in range(10, 17)]
    shapes += [_shape(f"C{n}", cycle(n)) for n in (10, 12, 14)]
    shapes += [_shape(f"WP{n}", whiskered(path(n), n)) for n in (4, 5, 6, 7)]
    shapes += [_shape(f"L2x{c}", grid(2, c)) for c in range(4, 9)]
    shapes += [_shape(f"G3x{c}", grid(3, c)) for c in (3, 4, 5)]
    return shapes + [
        _shape(f"B{a}x{b}.{extra}", random_bipartite(rng, a, b, extra))
        for a, b in ((4, 4), (4, 5), (5, 5), (5, 6), (6, 6), (6, 7), (7, 7))
        for extra in (0, 1, 2, 3)
    ]


def round_of(workload: str, fixtures: dict[str, Edges] | None = None) -> list[Shape]:
    if workload == "analyze":
        if fixtures is None:
            raise ValueError("the analyze workload needs the bundled fixtures")
        return analyze_round(fixtures)
    if workload == "dimension":
        return dimension_round()
    if workload == "poset":
        return poset_round()
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def _relabel(edges: Edges, n: int, rng: random.Random) -> Edges:
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    return _canon((labels[u - 1], labels[v - 1]) for u, v in edges)


def jobs(
    workload: str,
    seed: int,
    fixtures: dict[str, Edges] | None = None,
    rounds: int = MAX_ROUNDS,
) -> Iterator[Job]:
    """The workload's job stream for ``seed``: round after round, every
    shape under fresh seeded labels.  No edge list repeats; a shape whose
    labellings are used up (K2, a small star) drops out of later rounds."""
    shapes = round_of(workload, fixtures)
    rng = random.Random(f"{workload}:{seed}")
    seen: set[Edges] = set()
    for number in range(rounds):
        for shape in shapes:
            if number == 0 and shape.verbatim:
                candidates = [shape.edges]
            else:
                candidates = (_relabel(shape.edges, shape.n, rng) for _ in range(RELABEL_TRIES))
            edges = next((e for e in candidates if e not in seen), None)
            if edges is None:
                continue
            seen.add(edges)
            yield Job(f"{number}-{shape.name}", number, shape.n, edges)
