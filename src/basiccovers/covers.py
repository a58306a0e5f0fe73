"""k-covers and basic k-covers.

A k-cover assigns a natural number to every vertex so that the two ends of
each edge sum to at least k; it is basic when no strictly smaller
assignment is still a k-cover, equivalently when every vertex with a
positive value lies on an edge summing to exactly k (a tight edge).  The
number of basic k-covers is the Hilbert function of the graded algebra
these covers span, and the degree of the polynomial those counts follow
recovers its Krull dimension.

Enumeration and counting take separate routes, so tests check each against
the other; the count is also the independent side of the ASL1 check.
The enumerator is a depth-first search over vertex values with three exact
prunes (edge feasibility, the value ceiling k, and achievable tightness),
run on a static schedule: the vertex order is fixed, so each position's
placed neighbours and the neighbours it completes are precomputed.  The
prunes are exact: every leaf the search reaches is a basic cover.
The counter never lists a cover: it runs the transfer-matrix method over a
vertex order that keeps the frontier of partly constrained vertices
narrow, so its cost follows the number of frontier states rather than the
number of covers.
"""

from __future__ import annotations

from dataclasses import dataclass

from .budget import SearchBudget, default_budget
from .errors import (
    CompletionNotBasic,
    MalformedInput,
    NotACover,
    NotConnected,
    NotDominating,
)
from .graph import (
    Graph,
    _bits,
    _is_int,
    _vertex_mask,
    bipartition,
    check_values,
    is_connected,
    matching_number,
)


@dataclass(frozen=True, order=True, slots=True)
class Cover:
    """A k-cover: one value per vertex (index v-1 serves vertex v) plus its level."""

    values: tuple[int, ...]
    level: int

    def to_line(self) -> str:
        return f"k={self.level} " + " ".join(str(x) for x in self.values)


def is_k_cover(g: Graph, values, k: int) -> bool:
    """True iff ``values`` is a nonzero assignment with every edge summing to >= k."""
    vals = check_values(g, values)
    return any(vals) and _covers_edges(g, vals, k)


def _covers_edges(g: Graph, vals: tuple[int, ...], k: int) -> bool:
    return all(vals[u - 1] + vals[v - 1] >= k for u, v in g.edges)


def is_basic(g: Graph, cover: Cover) -> bool:
    """True iff every vertex with a positive value has a tight edge.

    Tightness characterises basicness: if some positive vertex has all its
    edge sums strictly above k, decrementing it leaves a smaller k-cover.
    """
    return _is_basic_k_cover(g, check_values(g, cover.values), cover.level)


def _is_basic_k_cover(g: Graph, vals: tuple[int, ...], k: int) -> bool:
    """:func:`is_basic` for values already known to be one natural number
    per vertex, such as sums and mixes of poset elements."""
    if not (any(vals) and _covers_edges(g, vals, k)):
        raise NotACover(f"values are not a {k}-cover")
    return _is_basic_values(g, vals, k)


def _is_basic_values(g: Graph, vals: tuple[int, ...], k: int) -> bool:
    # at[x] is the mask of the vertices of value x, for x <= k; a vertex of
    # value x is tight when a neighbour lies in at[k - x].
    at: dict[int, int] = {}
    for v, x in enumerate(vals, 1):
        if x <= k:
            at[x] = at.get(x, 0) | 1 << v
    nbr = g.neighbour_masks
    for v, x in enumerate(vals, 1):
        if x and (x > k or not nbr[v] & at.get(k - x, 0)):
            return False
    return True


def _check_level(k, least: int, name: str) -> None:
    """Reject a level that is not an int (bools included) or is below
    ``least``."""
    if not _is_int(k):
        raise MalformedInput(f"{name} must be an integer, got {k!r}")
    if k < least:
        raise MalformedInput(f"{name} must be >= {least}, got {k}")


# --- exact enumeration -------------------------------------------------------


def _search_order(g: Graph) -> list[int]:
    """Vertex order for the DFS: start at a maximum-degree vertex, then always
    take the unplaced vertex with the most placed neighbours (ties by
    degree, then label).  Keeps every new vertex edge-constrained as soon
    as its component has been entered."""
    nbr = g.neighbour_masks
    order: list[int] = []
    placed = 0
    unplaced = _vertex_mask(g.vertices)
    while unplaced:
        best = max(
            _bits(unplaced),
            key=lambda v: ((nbr[v] & placed).bit_count(), nbr[v].bit_count(), -v),
        )
        order.append(best)
        placed |= 1 << best
        unplaced ^= 1 << best
    return order


def _basic_cover_search(g: Graph, k: int) -> list[tuple[int, ...]]:
    """Depth-first search for the value tuples of the basic k-covers.

    Basicness bounds every value by k, each newly assigned vertex must keep
    its edges feasible, and a vertex whose neighbourhood is fully assigned
    must either be zero or own a tight edge.  The vertex order is fixed
    before the search starts, so the neighbours each of these prunes reads
    are listed once per position rather than tracked per node.
    """
    n = g.vertex_count
    nbr = g.neighbour_masks
    # The order is fixed, so each position knows in advance its vertex,
    # which of its neighbours are already placed, whether one comes later,
    # and which earlier neighbours it closes (places their last
    # neighbour), each with its other neighbours.  Values are indexed by
    # vertex - 1.
    schedule = []
    placed = 0
    for v in _search_order(g):
        bit = 1 << v
        later = ~(placed | bit)
        earlier = list(_bits(nbr[v] & placed))
        schedule.append(
            (
                v - 1,
                [w - 1 for w in earlier],
                bool(nbr[v] & later),
                [
                    (w - 1, [h - 1 for h in _bits(nbr[w] ^ bit)])
                    for w in earlier
                    if not nbr[w] & later
                ],
            )
        )
        placed |= bit
    values = [0] * n
    get = values.__getitem__
    found: list[tuple[int, ...]] = []

    def assign(i: int) -> None:
        # A position with a single admissible value is placed in this
        # frame; the search recurses only where it branches.
        while i < n:
            v, earlier, opens, closes = schedule[i]
            lo = k - min(map(get, earlier)) if earlier else 0
            # A vertex with no unplaced neighbours left can never gain a
            # tight edge later, so its value must be zero or tight already.
            # For v itself, with every neighbour placed, only x = lo is: it
            # is tight against the smallest neighbour value, and a larger x
            # is tight against none.  A positive neighbour w that v closes,
            # and that no other neighbour makes tight, forces
            # x = k - value(w).
            top = k if opens else lo
            for w, others in closes:
                need = k - values[w]
                if need < k and need not in map(get, others):
                    lo, top = max(lo, need), min(top, need)
            if lo != top:
                for x in range(lo, top + 1):
                    values[v] = x
                    assign(i + 1)
                return
            values[v] = lo
            i += 1
        found.append(tuple(values))

    assign(0)
    # assign refers to itself through its closure; clearing the name breaks
    # that cycle, so the search's lists are freed on return rather than at
    # the next cyclic garbage collection.
    del assign
    return found


def enumerate_basic_covers(
    g: Graph, k: int, budget: SearchBudget | None = None
) -> list[Cover]:
    """Exactly the basic k-covers of g, sorted lexicographically."""
    _check_level(k, 1, "cover level")
    budget = budget or default_budget()
    budget.check_graph(g.vertex_count, g.edge_count, "enumerate_basic_covers")
    return [Cover(vals, k) for vals in sorted(_basic_cover_search(g, k))]


# --- counting by the transfer-matrix method -----------------------------------


# Key of the frontier plan in a graph's instance dict.  The plan is a
# tuple of tuples of ints and holds no reference to the graph; pickling a
# graph keeps only its fields, so a copy carries no plan.
_FRONTIER_MEMO = "_frontier_steps"


def _frontier_steps(g: Graph) -> tuple:
    """:func:`_frontier_plan` of g, built once per graph instance."""
    steps = g.__dict__.get(_FRONTIER_MEMO)
    if steps is None:
        steps = g.__dict__[_FRONTIER_MEMO] = _frontier_plan(g)
    return steps


def _frontier_plan(g: Graph) -> tuple:
    """Vertex order and one transition table per vertex for the counting DP.

    The frontier is the list of placed vertices that still have an unplaced
    neighbour.  Each step places the vertex that leaves the smallest
    frontier, ties broken by more placed neighbours, then smaller degree,
    then label.  Positions index the frontier; the placed vertex v, when it
    stays on the frontier, takes the last position of the new one.  Each
    step is ``(nbr_pos, keep, leave, stays)``: the old positions of v's
    placed neighbours, the old positions that stay, those that leave
    because v was their last unplaced neighbour, and whether v joins the
    frontier.
    """
    nbr = g.neighbour_masks
    placed = 0

    def growth(u: int) -> tuple[int, int, int, int]:
        placed_nbrs = nbr[u] & placed
        # Placed neighbours whose last unplaced neighbour is u leave.
        closed = sum(1 for w in _bits(placed_nbrs) if nbr[w] & ~placed == 1 << u)
        opens = placed_nbrs != nbr[u]
        return (opens - closed, -placed_nbrs.bit_count(), nbr[u].bit_count(), u)

    frontier: list[int] = []
    steps = []
    unplaced = _vertex_mask(g.vertices)
    while unplaced:
        v = min(_bits(unplaced), key=growth)
        nbr_pos = [i for i, u in enumerate(frontier) if nbr[v] >> u & 1]
        placed |= 1 << v
        unplaced ^= 1 << v
        keep = [i for i, u in enumerate(frontier) if nbr[u] & unplaced]
        leave = [i for i, u in enumerate(frontier) if not nbr[u] & unplaced]
        stays = bool(nbr[v] & unplaced)
        frontier = [frontier[i] for i in keep] + ([v] if stays else [])
        steps.append((tuple(nbr_pos), tuple(keep), tuple(leave), stays))
    return tuple(steps)


def _count_by_frontier(g: Graph, k: int) -> int:
    """Number of basic k-covers by the transfer-matrix method (Stanley,
    *Enumerative Combinatorics I*, 4.7) over a vertex order.

    A state holds one entry per frontier vertex: its value x once it has a
    tight edge (0 always counts as tight), and -x while it still needs one;
    the DP maps each state to the number of partial assignments reaching
    it.  Placing v with placed neighbours of smallest value m admits the
    values x in [k - m, k]; only x = k - m makes edges tight, for v and for
    every neighbour of value m.  A vertex leaving the frontier must be
    tight.
    """
    states: dict[tuple[int, ...], int] = {(): 1}
    for nbr_pos, keep, leave, stays in _frontier_steps(g):
        nxt: dict[tuple[int, ...], int] = {}
        get = nxt.get
        for state, count in states.items():
            if nbr_pos:
                m = min(abs(state[i]) for i in nbr_pos)
                lo = k - m
                tightened = list(state)
                for i in nbr_pos:
                    if state[i] == -m:
                        tightened[i] = m
            else:
                lo = 0
                tightened = state
            # x = lo: v is tight (at 0, or against a neighbour of value m).
            if all(tightened[i] >= 0 for i in leave):
                new = [tightened[i] for i in keep]
                if stays:
                    new.append(lo)
                key = tuple(new)
                nxt[key] = get(key, 0) + count
            # x > lo: nothing becomes tight, and v still needs a tight edge.
            if not stays or lo == k or any(state[i] < 0 for i in leave):
                continue
            base = tuple([state[i] for i in keep])
            for x in range(lo + 1, k + 1):
                key = base + (-x,)
                nxt[key] = get(key, 0) + count
        states = nxt
    return states.get((), 0)


def count_basic_covers(g: Graph, k: int, budget: SearchBudget | None = None) -> int:
    """Number of basic k-covers, counted without listing them."""
    _check_level(k, 1, "cover level")
    budget = budget or default_budget()
    budget.check_graph(g.vertex_count, g.edge_count, "count_basic_covers")
    return _count_by_frontier(g, k)


def hilbert_function(g: Graph, k: int, budget: SearchBudget | None = None) -> int:
    """Number of basic k-covers; 1 at k = 0 for the unit of the graded algebra."""
    _check_level(k, 0, "level")
    if k == 0:
        return 1
    return count_basic_covers(g, k, budget)


# --- the low-half reconstruction ---------------------------------------------


def reconstruct_from_low_half(g: Graph, k: int, partial: dict[int, int]) -> Cover:
    """Complete values given on the vertices where a basic k-cover is <= k/2.

    Those vertices always form a dominating set and force every remaining
    vertex w to ``max(k - value(v))`` over its assigned neighbours v; the
    completion is checked to be a basic k-cover.
    """
    _check_level(k, 1, "cover level")
    domain = set(partial)
    if not domain or not all(_is_int(v) for v in domain) or not domain <= set(g.vertices):
        raise MalformedInput("partial assignment must live on vertices of g")
    for v, x in partial.items():
        if x < 0 or 2 * x > k:
            raise MalformedInput(
                f"value {x} at vertex {v} is not in the low half [0, {k}/2]"
            )
    nbr = g.neighbour_masks
    assigned = _vertex_mask(domain)
    for w in g.vertices:
        if w not in domain and not nbr[w] & assigned:
            raise NotDominating(f"vertex {w} has no neighbour in the assigned set")
    values = [
        partial[w] if w in domain else max(k - partial[v] for v in _bits(nbr[w] & assigned))
        for w in g.vertices
    ]
    cover = Cover(tuple(values), k)
    if not is_k_cover(g, cover.values, k) or not _is_basic_values(g, cover.values, k):
        raise CompletionNotBasic(
            "the forced completion is not a basic k-cover"
        )
    return cover


def low_half_vertices(cover: Cover) -> dict[int, int]:
    """The restriction of a cover to its vertices with value <= k/2."""
    k = cover.level
    return {
        v: x for v, x in enumerate(cover.values, start=1) if 2 * x <= k
    }


# --- Krull dimension from the Hilbert data -----------------------------------


@dataclass(frozen=True)
class HilbertData:
    """Basic-cover counts at every ``step``-th level with their fitted
    polynomial degree.

    ``counts[h]`` is the number of basic (step * h)-covers, and ``counts[0]``
    is 1 for the unit.  ``step`` is 1 on a bipartite graph, so the counts
    are those of every level k = h, and 2 otherwise, so they are those of
    the even levels k = 2h.  When ``stable`` the counts are the values of
    one polynomial in h of degree ``fitted_degree`` and the algebra
    dimension is that degree plus one.
    """

    counts: tuple[int, ...]
    step: int
    fitted_degree: int
    stable: bool

    @property
    def dimension(self) -> int | None:
        return self.fitted_degree + 1 if self.stable else None


def finite_differences(seq: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(b - a for a, b in zip(seq, seq[1:]))


def krull_dimension_estimate(
    g: Graph, budget: SearchBudget | None = None
) -> HilbertData:
    """Fit the polynomial degree of the basic-cover counts exactly.

    Scaled by 1/k, the basic k-covers are the lattice points of the
    bounded faces of Q = {y >= 0, y_u + y_v >= 1}.  Q's vertices are
    half-integral (Nemhauser and Trotter, 1974), so by Ehrhart's theorem
    applied face by face (Stanley, *Enumerative Combinatorics I*, 4.6) the
    counts H(2h) are one polynomial in h from h = 0.  On a bipartite graph
    Q is integral, and H(k) is one polynomial in k.  Its degree is the
    dimension minus one, at most the matching number nu.  So the counts at
    h = 0..nu + 2 fix it: the least d <= nu whose d-th finite differences
    are equal and nonzero over all of them, which leaves at least two
    points as a check.  With no such d the result is marked unstable
    rather than guessed.
    """
    if not is_connected(g):
        raise NotConnected("dimension estimation requires a connected graph")
    step = 1 if bipartition(g) is not None else 2
    # The first count checks the budget, so a graph over it never reaches
    # the matching search, which has no budget.
    counts = [1, hilbert_function(g, step, budget)]
    nu = matching_number(g)
    counts += [hilbert_function(g, step * h, budget) for h in range(2, nu + 3)]
    seq = tuple(counts)
    diffs = seq
    for degree in range(nu + 1):
        if len(set(diffs)) == 1 and diffs[0] != 0:
            return HilbertData(seq, step, degree, True)
        diffs = finite_differences(diffs)
    return HilbertData(seq, step, 0, False)
