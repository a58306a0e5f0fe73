"""Batch analysis of one graph: per-module summaries plus the cross-check
table that compares each structural identity from two independent sides.
Each input is computed once, and no row reads one value on both sides.

Every cross-check row carries the claim tag, both computed sides and a
verdict; rows whose search budget ran out are reported as skipped with the
reason, never silently dropped.  The table drives the CLI exit code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from . import asl, covers, gdim, poset, projection
from .budget import SearchBudget, default_budget
from .errors import MalformedInput, NotDistributive, SearchBudgetExceeded
from .graph import (
    Graph,
    bipartition,
    is_connected,
    is_tree,
)

OK = "ok"
FAIL = "fail"
SKIPPED = "skipped"


@dataclass(frozen=True)
class CrossCheck:
    claim: str
    lhs: str
    rhs: str
    verdict: str
    detail: str = ""

    def to_dict(self) -> dict:
        out = {
            "claim": self.claim,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "verdict": self.verdict,
        }
        if self.detail:
            out["detail"] = self.detail
        return out


@dataclass
class AnalysisReport:
    summary: dict
    sections: dict[str, dict] = field(default_factory=dict)
    cross_checks: list[CrossCheck] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return any(row.verdict == FAIL for row in self.cross_checks)

    def to_dict(self) -> dict:
        return {
            "summary": self.summary,
            "sections": self.sections,
            "cross_checks": [row.to_dict() for row in self.cross_checks],
        }

    def to_text(self) -> str:
        lines = ["graph summary"]
        for key, value in self.summary.items():
            lines.append(f"  {key}: {value}")
        for name, section in self.sections.items():
            lines.append(f"{name}")
            for key, value in section.items():
                if isinstance(value, list):
                    lines.append(f"  {key}:")
                    lines.extend(f"    {item}" for item in value)
                else:
                    lines.append(f"  {key}: {value}")
        lines.append("cross-checks")
        for row in self.cross_checks:
            mark = {OK: "OK", FAIL: "FAIL", SKIPPED: "SKIPPED"}[row.verdict]
            line = f"  {row.claim}: {row.lhs} = {row.rhs} {mark}"
            if row.detail:
                line += f"  ({row.detail})"
            lines.append(line)
        return "\n".join(lines) + "\n"


def _row(checks: list[CrossCheck], claim: str, thunk) -> None:
    """Run one cross-check, catching budget exhaustion into a skipped row."""
    try:
        lhs, rhs, detail = thunk()
    except SearchBudgetExceeded as exc:
        checks.append(CrossCheck(claim, "-", "-", SKIPPED, str(exc)))
        return
    verdict = OK if lhs == rhs else FAIL
    checks.append(CrossCheck(claim, str(lhs), str(rhs), verdict, detail))


def _attempt(thunk):
    """The value of ``thunk()``, or the budget cut it raised in its place."""
    try:
        return thunk()
    except SearchBudgetExceeded as exc:
        return exc


def _read(value):
    """A value stored by :func:`_attempt`; a stored budget cut is raised again."""
    if isinstance(value, SearchBudgetExceeded):
        raise value
    return value


def analyze(
    g: Graph,
    max_k: int = 3,
    budget: SearchBudget | None = None,
) -> AnalysisReport:
    if max_k < 1:
        raise MalformedInput(f"max_k must be >= 1, got {max_k}")
    budget = budget or default_budget()
    sides = bipartition(g)
    connected = is_connected(g)

    report = AnalysisReport(
        summary={
            "vertices": g.vertex_count,
            "edges": g.edge_count,
            "edge_list": " ".join(f"{u}-{v}" for u, v in g.edges),
            "connected": connected,
            "tree": is_tree(g),
            "bipartite": sides is not None,
            "side_a": sorted(sides[0]) if sides else None,
            "side_b": sorted(sides[1]) if sides else None,
        }
    )
    checks = report.cross_checks

    # covers section.  The dimension estimate counts H(step * h) for
    # h = 0..nu + 2; the section reads the levels it shares with those and
    # counts only the others, so no level is counted twice.
    counted = {}
    if connected:
        estimate = _attempt(lambda: covers.krull_dimension_estimate(g, budget))
        if not isinstance(estimate, SearchBudgetExceeded):
            counted = {estimate.step * h: c for h, c in enumerate(estimate.counts)}
    hf = _attempt(
        lambda: [
            counted[k] if k in counted else covers.hilbert_function(g, k, budget)
            for k in range(max_k + 1)
        ]
    )
    try:
        report.sections["covers"] = {
            "basic_cover_counts": [f"k={k}: {v}" for k, v in enumerate(_read(hf))],
        }
    except SearchBudgetExceeded as exc:
        report.sections["covers"] = {"skipped": str(exc)}
    levels = range(1, max_k + 1)
    found = _attempt(lambda: [c for k in levels for c in covers.enumerate_basic_covers(g, k, budget)])

    # gdim section
    result = _attempt(lambda: gdim.graphical_dimension(g, budget))
    bounds = _attempt(lambda: gdim.gdim_bounds(g, budget))
    try:
        report.sections["graphical dimension"] = {
            "gdim": _read(result).gdim,
            "certificate": result.certificate.to_lines(),
            "lower_bound": _read(bounds).lower,
            "upper_bound": bounds.upper,
        }
    except SearchBudgetExceeded as exc:
        report.sections["graphical dimension"] = {"skipped": str(exc)}

    # projection section
    proj = projection.project(g)
    wsc = projection.satisfies_wsc(g)
    report.sections["projection"] = {
        "right_edges": " ".join(f"{u}-{v}" for u, v in projection.right_edges(g)) or "(none)",
        "wsc": wsc,
        "blocks": [
            "{" + " ".join(map(str, sorted(b))) + "}" for b in proj.blocks
        ],
        "projected_edges": " ".join(
            f"{proj.pi_graph.display(u)}|{proj.pi_graph.display(v)}"
            for u, v in proj.pi_graph.edges
        ),
        "fixed_point": proj.is_fixed_point,
    }
    try:
        reg = projection.regularity_report(g, budget)
        report.sections["regularity bounds"] = {
            "induced_matching": reg.induced_matching,
            "projection_induced_matching": reg.projection_induced_matching,
            "upper_bound": reg.upper_bound,
            "exact": reg.exact if reg.exact is not None else "(not determined)",
        }
    except SearchBudgetExceeded as exc:
        report.sections["regularity bounds"] = {"skipped": str(exc)}

    # poset + straightening sections, bipartite only
    cover_poset = None
    if sides is not None:
        cover_poset = poset.build_poset(g, budget)
        section: dict = {
            "elements": list(cover_poset.labels),
            "hasse": cover_poset.hasse_lines(),
            "pure": poset.is_pure(cover_poset),
            "rank": poset.rank(cover_poset),
            "lattice": poset.is_lattice(cover_poset),
            "locally_upper_semimodular": poset.is_locally_upper_semimodular(
                cover_poset
            ),
        }
        if section["lattice"]:
            section["distributive"] = poset.is_distributive(cover_poset)
        complex_ = poset.order_complex(cover_poset)
        section["order_complex_facets"] = complex_.facet_lines()
        try:
            cm = poset.cohen_macaulay_report(g, budget)
            section["cohen_macaulay_report"] = {
                "hypothesis_rank_equals_side": cm.hypothesis_holds,
                "pure": cm.pure,
                "shellable": cm.shellable,
                "strongly_connected": cm.strongly_connected,
                "verdict": cm.verdict,
            }
        except SearchBudgetExceeded as exc:
            section["cohen_macaulay_report"] = {"skipped": str(exc)}
        try:
            bp = poset.birkhoff_poset(cover_poset)
            section["join_irreducibles"] = list(bp.elements)
            section["join_irreducibles_pure"] = poset.is_pure_poset(bp)
        except NotDistributive:
            section["join_irreducibles"] = "(not a distributive lattice)"
        report.sections["cover poset"] = section

        relations = asl.straightening_relations(cover_poset)
        domain = asl.is_domain_report(g, budget)
        report.sections["straightening"] = {
            "relations": [r.to_line(cover_poset) for r in relations] or ["(none)"],
            "domain": domain.verdict,
            "lattice_divergence_flag": domain.lattice_divergence,
        }

    if wsc:
        cm_eq = _attempt(lambda: projection.cm_equivalence_report(g, budget))
        try:
            report.sections["cm equivalence"] = {
                "unique_perfect_matching": _read(cm_eq).unique_perfect_matching,
                "unique_right_edge_perfect_matching": cm_eq.unique_right_edge_perfect_matching,
                "projection_fixed_point": cm_eq.projection_fixed_point,
                "independence_complex_shellable": cm_eq.independence_complex_shellable,
                "connected_in_codimension_one": cm_eq.connected_in_codimension_one,
                "cohen_macaulay": cm_eq.cohen_macaulay,
                "skipped": list(cm_eq.skip_reasons) or "(none)",
            }
        except SearchBudgetExceeded as exc:
            report.sections["cm equivalence"] = {"skipped": str(exc)}

    # --- cross-check table ---

    if connected:
        def dim_check():
            fitted = _read(estimate)
            value = _read(result).gdim
            if not fitted.stable:
                detail = "counts fit no polynomial of degree <= the matching number"
                return ("unstable", value, detail)
            return (fitted.dimension, value, "")

        _row(checks, "dimension-estimate-vs-search", dim_check)
    else:
        checks.append(
            CrossCheck(
                "dimension-estimate-vs-search",
                "-",
                "-",
                SKIPPED,
                "dimension is defined for connected graphs only",
            )
        )

    def sandwich():
        b = _read(bounds)
        value = _read(result).gdim
        return (True, b.lower <= value <= b.upper, f"{b.lower} <= {value} <= {b.upper}")

    _row(checks, "gdim-bounds-sandwich", sandwich)

    if is_tree(g):
        _row(
            checks,
            "tree-matching-formula",
            lambda: (_read(result).gdim, gdim.tree_gdim(g), ""),
        )

    def projected_counts():
        lhs = _read(hf)[1:]
        rhs = [covers.hilbert_function(proj.pi_graph, k, budget) for k in levels]
        return (lhs, rhs, "")

    _row(checks, "projection-preserves-cover-counts", projected_counts)

    def transport_round_trip():
        for cover in _read(found):
            if projection.lift_cover(proj, projection.project_cover(proj, cover)) != cover:
                return (False, True, f"round trip failed at level {cover.level}")
        return (True, True, f"{len(found)} covers transported")

    _row(checks, "projection-cover-round-trip", transport_round_trip)

    def right_edge_tightness():
        rights = projection.right_edges(g)
        for cover in _read(found):
            for u, v in rights:
                if cover.values[u - 1] + cover.values[v - 1] != cover.level:
                    return (False, True, f"edge {u}-{v} loose at level {cover.level}")
        return (True, True, f"{len(rights)} right edges checked")

    _row(checks, "right-edges-always-tight", right_edge_tightness)

    def low_half():
        for cover in _read(found):
            partial = covers.low_half_vertices(cover)
            if covers.reconstruct_from_low_half(g, cover.level, partial) != cover:
                return (False, True, f"reconstruction failed at level {cover.level}")
        return (True, True, "")

    _row(checks, "low-half-reconstruction", low_half)

    if cover_poset is not None:
        def multichain_counts():
            lhs = [poset.count_multichains(cover_poset, d) for d in levels]
            rhs = _read(hf)[1:]
            return (lhs, rhs, "")

        _row(checks, "multichain-vs-cover-counts", multichain_counts)

        def sum_identity():
            for x, y in combinations(cover_poset.elements, 2):
                if not asl.verify_sum_identity(cover_poset, x, y):
                    return (False, True, "")
            return (True, True, f"{len(cover_poset)} covers, all pairs")

        _row(checks, "meet-join-sum-identity", sum_identity)

        def domain_agreement():
            detail = "order-lattice diverges from straightenings; flagged" if domain.lattice_divergence else ""
            return (domain.wsc, domain.all_straightenings_nonzero, detail)

        _row(checks, "wsc-vs-nonzero-straightenings", domain_agreement)

        if connected:
            _row(
                checks,
                "poset-rank-vs-gdim",
                lambda: (poset.rank(cover_poset) + 1, _read(result).gdim, ""),
            )

    if wsc:
        def cm_agreement():
            rep = _read(cm_eq)
            values = set(rep.computed().values())
            return (len(values) <= 1, True, f"computed: {rep.computed()}")

        _row(checks, "cm-conditions-agree", cm_agreement)

    return report
