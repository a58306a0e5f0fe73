"""Search budgets for the exact exponential searches.

Every subset-search operation takes an optional :class:`SearchBudget` and
raises :class:`~basiccovers.errors.SearchBudgetExceeded` when the instance
is too large, never degrading to a heuristic answer.  The default vertex
limit can be overridden through the ``BASICCOVERS_BUDGET`` environment
variable or the CLI's ``--budget``; the edge limit is always three times
the vertex limit.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .errors import MalformedInput, SearchBudgetExceeded

ENV_VAR = "BASICCOVERS_BUDGET"

DEFAULT_MAX_VERTICES = 20
# Exhaustive shelling-order search is exponential in the facet count; 12
# facets keeps the subset DP at 4096 states.
MAX_FACETS = 12


@dataclass(frozen=True)
class SearchBudget:
    """The vertex limit of the exact graph searches.  The edge limit is
    three times it; the facet limit of the shelling search is fixed."""

    max_vertices: int = DEFAULT_MAX_VERTICES

    def __post_init__(self) -> None:
        if self.max_vertices < 1:
            raise MalformedInput(
                f"budget must be a positive vertex limit, got {self.max_vertices}"
            )

    @property
    def max_edges(self) -> int:
        return 3 * self.max_vertices

    def check_graph(self, n: int, m: int, operation: str) -> None:
        if n > self.max_vertices or m > self.max_edges:
            raise SearchBudgetExceeded(
                f"{operation}: graph with n={n}, m={m} exceeds budget "
                f"(n <= {self.max_vertices}, m <= {self.max_edges})"
            )

    def check_facets(self, count: int, operation: str) -> None:
        if count > MAX_FACETS:
            raise SearchBudgetExceeded(
                f"{operation}: {count} facets exceeds budget (<= {MAX_FACETS})"
            )


def default_budget() -> SearchBudget:
    """The process-wide default budget, honouring ``BASICCOVERS_BUDGET``."""
    raw = os.environ.get(ENV_VAR)
    if raw is None:
        return SearchBudget()
    try:
        limit = int(raw)
    except ValueError:
        raise MalformedInput(
            f"invalid {ENV_VAR} value {raw!r}: expected a positive integer"
        ) from None
    return SearchBudget(limit)
