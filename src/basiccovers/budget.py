"""Search budgets for the exact exponential searches.

Every subset-search operation takes an optional :class:`SearchBudget` and
raises :class:`~basiccovers.errors.SearchBudgetExceeded` when the instance
is too large, never degrading to a heuristic answer.  The default vertex
limit can be overridden through the ``BASICCOVERS_BUDGET`` environment
variable (edge limit scales as three times the vertex limit).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .errors import MalformedInput, SearchBudgetExceeded

ENV_VAR = "BASICCOVERS_BUDGET"

DEFAULT_MAX_VERTICES = 20
DEFAULT_MAX_EDGES = 60
# Exhaustive shelling-order search is exponential in the facet count; 12
# facets keeps the subset DP at 4096 states.
DEFAULT_MAX_FACETS = 12


@dataclass(frozen=True)
class SearchBudget:
    max_vertices: int = DEFAULT_MAX_VERTICES
    max_edges: int = DEFAULT_MAX_EDGES
    max_facets: int = DEFAULT_MAX_FACETS

    @classmethod
    def scaled(cls, max_vertices: int) -> "SearchBudget":
        """Budget with the given vertex limit and proportional edge limit."""
        if max_vertices < 1:
            raise MalformedInput(
                f"budget must be a positive vertex limit, got {max_vertices}"
            )
        return cls(max_vertices=max_vertices, max_edges=3 * max_vertices)

    def check_graph(self, n: int, m: int, operation: str) -> None:
        if n > self.max_vertices or m > self.max_edges:
            raise SearchBudgetExceeded(
                f"{operation}: graph with n={n}, m={m} exceeds budget "
                f"(n <= {self.max_vertices}, m <= {self.max_edges})"
            )

    def check_facets(self, count: int, operation: str) -> None:
        if count > self.max_facets:
            raise SearchBudgetExceeded(
                f"{operation}: {count} facets exceeds budget "
                f"(<= {self.max_facets})"
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
    return SearchBudget.scaled(limit)
