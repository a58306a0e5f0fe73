"""Exception hierarchy shared by every module of the package.

All errors derive from :class:`BasicCoversError` so callers (and the CLI)
can distinguish bad input (exit code 1) from exhausted search budgets
(exit code 2).
"""

from __future__ import annotations


class BasicCoversError(Exception):
    """Base class for all package errors."""


class SearchBudgetExceeded(BasicCoversError):
    """An exact search was refused because the instance exceeds the budget.

    Raised instead of silently approximating; the message names the
    operation and the limit that was hit.
    """


# --- input and representation errors -----------------------------------

class MalformedInput(BasicCoversError):
    """Unparseable edge-list text or structured document."""


class LoopEdge(BasicCoversError):
    """An edge {v, v} was supplied; loops are not allowed."""


class IsolatedVertex(BasicCoversError):
    """A vertex of [n] lies on no edge; isolated points are rejected."""


class DimensionMismatch(BasicCoversError):
    """A value sequence does not match the vertex count of the graph."""


class NotAnEdge(BasicCoversError):
    """The given pair is not an edge of the graph."""


class NotATree(BasicCoversError):
    """A tree-only operation was invoked on a non-tree."""


class NotConnected(BasicCoversError):
    """A connectivity-requiring operation was invoked on a disconnected graph."""


class NotBipartite(BasicCoversError):
    """A bipartite-only operation was invoked on a non-bipartite graph."""


# --- cover errors -------------------------------------------------------

class NotACover(BasicCoversError):
    """The value sequence is not a k-cover of the graph."""


class NotDominating(BasicCoversError):
    """The partial assignment does not live on a dominating set."""


class CompletionNotBasic(BasicCoversError):
    """The forced completion of a partial assignment is not a basic cover."""


# --- poset / complex errors ---------------------------------------------

class NotALattice(BasicCoversError):
    """A lattice-only operation was invoked on a non-lattice poset."""


class NotDistributive(BasicCoversError):
    """A distributivity-requiring operation met a non-distributive lattice."""


class NotPure(BasicCoversError):
    """A purity-requiring operation met a non-pure complex."""


class NotAMultichain(BasicCoversError):
    """The given sequence of covers is not weakly increasing."""


class SumNotBasic(BasicCoversError):
    """A multichain summed to a non-basic cover.

    This contradicts a proved structural fact, so it signals an
    implementation bug rather than bad input.
    """


# --- projection errors ---------------------------------------------------

class NotWsc(BasicCoversError):
    """The graph does not satisfy the weak square condition."""


class NotConstantOnBlock(BasicCoversError):
    """A cover takes two values on one projection block (so it is not basic)."""


class StructureViolation(BasicCoversError):
    """The right-edge subgraph failed its complete-bipartite decomposition.

    The decomposition is guaranteed structurally, so this signals a bug.
    """


class EquivalenceViolation(BasicCoversError):
    """Two provably equivalent criteria evaluated differently (bug signal)."""


class FixtureIntegrityError(BasicCoversError):
    """The bundled fixture corpus failed its startup self-check."""
