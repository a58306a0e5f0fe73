"""Boundary tracer for the traced benchmark run.

The tracer replaces the listed public functions of ``basiccovers`` with
wrappers that record one span (name, start, end, parent) per call, in
*every* package module namespace that holds the function: ``projection``
imports ``graphical_dimension`` by name and ``gdim`` imports
``matching_number``, so patching only the defining module would miss those
calls.  Spans stay in memory until the run ends.  High-rate helpers such as
``is_basic``, ``CoverPoset.leq`` and ``Graph.has_edge`` stay unwrapped.

A span's self time is its duration minus the durations of its direct
children; the per-layer metrics sum self times over span groups.
"""

from __future__ import annotations

import importlib
import pkgutil
import sys
from dataclasses import dataclass
from time import perf_counter

PACKAGE = "basiccovers"

# Traced functions as "module.function" of PACKAGE; the span carries the
# same name.
TRACED = (
    "covers.count_basic_covers",
    "covers.enumerate_basic_covers",
    "gdim.graphical_dimension",
    "gdim.gdim_bounds",
    "graph.matching_number",
    "graph.paired_domination_number",
    "graph.induced_matching_number",
    "graph.enumerate_perfect_matchings",
    "poset.build_poset",
    "poset.is_lattice",
    "poset.is_distributive",
    "poset.is_locally_upper_semimodular",
    "poset.is_pure",
    "poset.rank",
    "poset.order_complex",
    "poset.count_multichains",
    "poset.birkhoff_poset",
    "poset.cohen_macaulay_report",
    "complexes.is_shellable",
    "complexes.independence_complex",
    "complexes.is_strongly_connected",
    "asl.straightening_relations",
    "asl.is_domain_report",
    "asl.verify_asl1",
    "projection.project",
    "projection.right_edges",
    "projection.satisfies_wsc",
    "projection.regularity_report",
    "projection.cm_equivalence_report",
    "analysis.analyze",
)


def _first(args, kwargs, name, position, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[position] if len(args) > position else default


# Per-call keys for the distinct-share metrics: the arguments that decide
# the answer (the budget never does).
KEYS = {
    "covers.count_basic_covers": lambda a, k: (_first(a, k, "g", 0), _first(a, k, "k", 1)),
    "gdim.graphical_dimension": lambda a, k: _first(a, k, "g", 0),
    "poset.build_poset": lambda a, k: (_first(a, k, "g", 0), _first(a, k, "side", 2, "smaller")),
}

# Per-call amounts of work read off the result.
AMOUNTS = {
    "covers.count_basic_covers": lambda result: result,
    "covers.enumerate_basic_covers": len,
}


@dataclass
class Span:
    job: str
    name: str
    start: float
    end: float
    parent: int | None
    key: object = None
    amount: int = 0
    error: str | None = None


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.end - s.start
    return out


class Tracer:
    """Records spans while a job is open; calls outside a job (set-up and
    the benchmark's own answer checks) pass straight through."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._job: str | None = None
        self._root: Span | None = None
        self._patches: list[tuple[object, str, object]] = []

    # --- installation -----------------------------------------------------

    def install(self) -> None:
        root = importlib.import_module(PACKAGE)
        for info in pkgutil.iter_modules(root.__path__):
            importlib.import_module(f"{PACKAGE}.{info.name}")
        modules = [
            m for name, m in sys.modules.items()
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for target in TRACED:
            module_name, attr = target.split(".")
            original = getattr(sys.modules[f"{PACKAGE}.{module_name}"], attr)
            wrapper = self._wrap(original, target)
            for module in modules:
                if module.__dict__.get(attr) is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrap(self, fn, name: str):
        key_of = KEYS.get(name)
        amount_of = AMOUNTS.get(name)

        def traced(*args, **kwargs):
            if self._job is None:
                return fn(*args, **kwargs)
            span = self._open(name)
            if key_of is not None:
                span.key = key_of(args, kwargs)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                self._close(span)
            if amount_of is not None:
                span.amount = amount_of(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # --- spans --------------------------------------------------------------

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(self._job, name, 0.0, 0.0, parent)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack.pop()

    def begin_job(self, job: str) -> None:
        self._job = job
        self._root = self._open("job")

    def end_job(self) -> None:
        self._close(self._root)
        self._job = None


# Span groups behind the per-layer metrics.
GROUPS = {
    "covers.count": ("covers.count_basic_covers",),
    "covers.enum": ("covers.enumerate_basic_covers",),
    "gdim.search": ("gdim.graphical_dimension",),
    "graph.matching": ("graph.matching_number",),
    "graph.domination": ("graph.paired_domination_number",),
    "graph.induced_matching": ("graph.induced_matching_number",),
    "graph.perfect_matchings": ("graph.enumerate_perfect_matchings",),
    "poset.build": ("poset.build_poset",),
    "poset.lattice": (
        "poset.is_lattice",
        "poset.is_distributive",
        "poset.is_locally_upper_semimodular",
    ),
    "poset.chains": ("poset.is_pure", "poset.rank", "poset.order_complex"),
    "poset.multichains": ("poset.count_multichains",),
    "poset.birkhoff": ("poset.birkhoff_poset",),
    "complexes.shellable": ("complexes.is_shellable",),
    "complexes.independence": ("complexes.independence_complex",),
    "asl.straighten": ("asl.straightening_relations",),
    "asl.domain": ("asl.is_domain_report",),
    "asl.asl1": ("asl.verify_asl1",),
    "projection": tuple(t for t in TRACED if t.startswith("projection.")),
    "analysis": ("analysis.analyze",),
}

# The per-layer metrics the traced run reports, as (name, unit).
LAYER_METRICS = (
    ("covers.count.calls", "count"),
    ("covers.count.self_s", "s"),
    ("covers.counted", "count"),
    ("covers.counted_per_s", "1/s"),
    ("covers.count.distinct_share", "ratio"),
    ("covers.enum.calls", "count"),
    ("covers.enum.self_s", "s"),
    ("covers.enumerated", "count"),
    ("gdim.search.calls", "count"),
    ("gdim.search.self_s", "s"),
    ("gdim.search.distinct_share", "ratio"),
    ("graph.matching.calls", "count"),
    ("graph.matching.self_s", "s"),
    ("graph.domination.self_s", "s"),
    ("graph.induced_matching.self_s", "s"),
    ("graph.perfect_matchings.self_s", "s"),
    ("poset.build.calls", "count"),
    ("poset.build.distinct_share", "ratio"),
    ("poset.lattice.self_s", "s"),
    ("poset.chains.self_s", "s"),
    ("poset.multichains.self_s", "s"),
    ("poset.birkhoff.self_s", "s"),
    ("complexes.shellable.calls", "count"),
    ("complexes.shellable.self_s", "s"),
    ("complexes.independence.self_s", "s"),
    ("asl.straighten.self_s", "s"),
    ("asl.domain.self_s", "s"),
    ("asl.asl1.self_s", "s"),
    ("projection.self_s", "s"),
    ("analysis.self_s", "s"),
)


def _distinct_share(spans: list[Span]) -> float:
    """Distinct argument keys within each job, over calls."""
    per_job: dict[str, set] = {}
    for s in spans:
        per_job.setdefault(s.job, set()).add(s.key)
    calls = len(spans)
    return sum(len(keys) for keys in per_job.values()) / calls if calls else 0.0


def layer_metrics(spans: list[Span], job: str | None = None) -> dict[str, float]:
    """Every metric of LAYER_METRICS over all spans, or over one job's."""
    selfs = self_times(spans)
    group_of = {name: group for group, names in GROUPS.items() for name in names}
    members: dict[str, list[Span]] = {group: [] for group in GROUPS}
    busy: dict[str, float] = {group: 0.0 for group in GROUPS}
    for s, own in zip(spans, selfs):
        group = group_of.get(s.name)
        if group is not None and (job is None or s.job == job):
            members[group].append(s)
            busy[group] += own
    out: dict[str, float] = {}
    for group in GROUPS:
        out[f"{group}.calls"] = len(members[group])
        out[f"{group}.self_s"] = busy[group]
    out["covers.counted"] = sum(s.amount for s in members["covers.count"])
    count_s = out["covers.count.self_s"]
    out["covers.counted_per_s"] = out["covers.counted"] / count_s if count_s else 0.0
    out["covers.enumerated"] = sum(s.amount for s in members["covers.enum"])
    for group in ("covers.count", "gdim.search", "poset.build"):
        out[f"{group}.distinct_share"] = _distinct_share(members[group])
    return {name: out[name] for name, _ in LAYER_METRICS}
