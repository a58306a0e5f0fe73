"""Command-line interface.

Subcommands cover the batch pipeline (``analyze``), cover enumeration
(``covers``), the dimension search (``gdim``), the projection and poset
reports, and writing the bundled fixture corpus.  Output is deterministic;
``--format structured`` switches from text to JSON.  Exit codes: 0 on
success with all cross-checks passing, 1 on input errors (usage errors
included) or failed cross-checks, 2 on an exhausted search budget.
Errors are emitted as a JSON document on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import analysis, asl, gdim, poset, projection
from .budget import ENV_VAR, SearchBudget, default_budget
from .covers import enumerate_basic_covers
from .errors import BasicCoversError, MalformedInput, SearchBudgetExceeded
from .fixtures import write_corpus
from .graph import Graph, parse_graph

TEXT = "text"
STRUCTURED = "structured"


def _load(path: str) -> Graph:
    return parse_graph(Path(path).read_text())


def _emit(doc: dict, text: str, fmt: str) -> None:
    if fmt == STRUCTURED:
        sys.stdout.write(json.dumps(doc, indent=2) + "\n")
    else:
        sys.stdout.write(text)


def _cmd_analyze(args, budget: SearchBudget) -> int:
    g = _load(args.path)
    report = analysis.analyze(g, max_k=args.k, budget=budget)
    _emit(report.to_dict(), report.to_text(), args.format)
    return 1 if report.failed else 0


def _cmd_covers(args, budget: SearchBudget) -> int:
    g = _load(args.path)
    k = args.k if args.k is not None else 1
    found = enumerate_basic_covers(g, k, budget)
    doc = {"k": k, "count": len(found), "covers": [list(c.values) for c in found]}
    text = "\n".join(c.to_line() for c in found) + "\n"
    _emit(doc, text, args.format)
    return 0


def _cmd_gdim(args, budget: SearchBudget) -> int:
    g = _load(args.path)
    result = gdim.graphical_dimension(g, budget)
    bounds = gdim.gdim_bounds(g, budget)
    doc = {
        "gdim": result.gdim,
        "certificate": {
            "a": list(result.certificate.a_seq),
            "b": list(result.certificate.b_seq),
        },
        "lower_bound": bounds.lower,
        "upper_bound": bounds.upper,
    }
    text = (
        f"gdim {result.gdim}\n"
        + "\n".join(result.certificate.to_lines())
        + f"\nbounds: {bounds.lower} <= gdim <= {bounds.upper}\n"
    )
    _emit(doc, text, args.format)
    return 0


def _cmd_project(args, budget: SearchBudget) -> int:
    g = _load(args.path)
    report = projection.project(g)
    wsc = projection.satisfies_wsc(g)
    doc = {
        "right_edges": [list(e) for e in projection.right_edges(g)],
        "wsc": wsc,
        "blocks": [sorted(b) for b in report.blocks],
        "projected_vertices": report.pi_graph.vertex_count,
        "projected_edges": [list(e) for e in report.pi_graph.edges],
        "fixed_point": report.is_fixed_point,
    }
    lines = [
        "right edges: "
        + (" ".join(f"{u}-{v}" for u, v in projection.right_edges(g)) or "(none)"),
        f"wsc: {wsc}",
        "blocks: " + " ".join("{" + " ".join(map(str, sorted(b))) + "}" for b in report.blocks),
        f"projected graph on {report.pi_graph.vertex_count} vertices: "
        + " ".join(f"{u}-{v}" for u, v in report.pi_graph.edges),
        f"fixed point: {report.is_fixed_point}",
    ]
    _emit(doc, "\n".join(lines) + "\n", args.format)
    return 0


def _cmd_poset(args, budget: SearchBudget) -> int:
    g = _load(args.path)
    cover_poset = poset.build_poset(g, budget)
    complex_ = poset.order_complex(cover_poset)
    lattice = poset.is_lattice(cover_poset)
    pure = poset.is_pure(cover_poset)
    try:
        # A non-pure order complex has no shelling, as in the CM report.
        shellable = pure and poset.is_shellable(complex_, budget)
        shellable_text = str(shellable)
    except SearchBudgetExceeded as exc:
        shellable = None
        shellable_text = f"skipped ({exc})"
    relations = asl.straightening_relations(cover_poset)
    doc = {
        "elements": list(cover_poset.labels),
        "hasse": cover_poset.hasse_lines(),
        "pure": pure,
        "rank": poset.rank(cover_poset),
        "lattice": lattice,
        "shellable": shellable,
        "order_complex_facets": complex_.facet_lines(),
        "straightening_relations": [r.to_line(cover_poset) for r in relations],
    }
    lines = (
        [f"elements: {' '.join(doc['elements'])}"]
        + doc["hasse"]
        + [
            f"pure: {doc['pure']}",
            f"rank: {doc['rank']}",
            f"lattice: {lattice}",
            f"shellable: {shellable_text}",
            "order complex facets: " + " ".join(doc["order_complex_facets"]),
            "straightening relations: "
            + ("; ".join(doc["straightening_relations"]) or "(none)"),
        ]
    )
    _emit(doc, "\n".join(lines) + "\n", args.format)
    return 0


def _cmd_fixtures(args, budget: SearchBudget) -> int:
    paths = write_corpus(args.fixtures_dir)
    doc = {"written": [str(p) for p in paths]}
    _emit(doc, "\n".join(str(p) for p in paths) + "\n", args.format)
    return 0


class _Parser(argparse.ArgumentParser):
    """A usage error is an input error: it raises :class:`MalformedInput`
    (exit 1, JSON on stderr) instead of printing usage and exiting 2, the
    exit code of an exhausted budget.  Subcommand parsers share the class."""

    def error(self, message: str):
        raise MalformedInput(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="basiccovers",
        description="Exact combinatorics of basic vertex covers.",
    )
    parser.add_argument(
        "--budget",
        type=int,
        default=None,
        help=f"vertex limit for exact searches (default 20, or ${ENV_VAR})",
    )
    parser.add_argument(
        "--format",
        choices=(TEXT, STRUCTURED),
        default=TEXT,
        help="output format (default text)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="full pipeline with cross-check table")
    analyze.add_argument("path")
    analyze.add_argument("--k", type=int, default=3, help="max cover level for checks")
    analyze.set_defaults(func=_cmd_analyze)

    covers_cmd = sub.add_parser("covers", help="list basic k-covers")
    covers_cmd.add_argument("path")
    covers_cmd.add_argument("--k", type=int, default=1)
    covers_cmd.set_defaults(func=_cmd_covers)

    gdim_cmd = sub.add_parser("gdim", help="graphical dimension with certificate")
    gdim_cmd.add_argument("path")
    gdim_cmd.set_defaults(func=_cmd_gdim)

    project_cmd = sub.add_parser("project", help="right edges and the projection")
    project_cmd.add_argument("path")
    project_cmd.set_defaults(func=_cmd_project)

    poset_cmd = sub.add_parser("poset", help="cover poset report")
    poset_cmd.add_argument("path")
    poset_cmd.set_defaults(func=_cmd_poset)

    fixtures_cmd = sub.add_parser("fixtures", help="write the fixture corpus")
    fixtures_cmd.add_argument("--fixtures-dir", default="fixtures", dest="fixtures_dir")
    fixtures_cmd.set_defaults(func=_cmd_fixtures)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        budget = (
            SearchBudget(args.budget)
            if args.budget is not None
            else default_budget()
        )
        return args.func(args, budget)
    except SearchBudgetExceeded as exc:
        _error_doc(exc, 2)
        return 2
    except BasicCoversError as exc:
        _error_doc(exc, 1)
        return 1
    except OSError as exc:
        _error_doc(exc, 1)
        return 1


def _error_doc(exc: Exception, code: int) -> None:
    sys.stderr.write(
        json.dumps(
            {"error": type(exc).__name__, "message": str(exc), "exit_code": code}
        )
        + "\n"
    )


if __name__ == "__main__":
    sys.exit(main())
