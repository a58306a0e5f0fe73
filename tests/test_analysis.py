"""The analysis pipeline computes each input once, and every cross-check
row still compares two independent sources.

Calls are counted in every package namespace that holds a function, as the
benchmark tracer counts them: ``projection`` imports ``graphical_dimension``
by name and ``cli`` imports ``enumerate_basic_covers``, so patching only
the defining module would miss those calls.
"""

from __future__ import annotations

import importlib
import pkgutil
from collections import Counter
from dataclasses import replace

import pytest

import basiccovers
from basiccovers import cli, covers, gdim, poset, projection
from basiccovers.analysis import FAIL, OK, analyze
from basiccovers.asl import verify_asl1
from basiccovers.fixtures import fixture
from basiccovers.graph import Graph, graph_to_text

COUNTED = (
    "gdim.graphical_dimension",
    "gdim.gdim_bounds",
    "covers.enumerate_basic_covers",
    "covers.hilbert_function",
    "asl.is_domain_report",
    "projection.cm_equivalence_report",
)


def fresh(name: str) -> Graph:
    # A new graph object, so no cover poset memoised on the shared fixture
    # by an earlier test can stand in for a build.
    g = fixture(name)
    return Graph(g.vertex_count, g.edges)


def count_calls(monkeypatch) -> tuple[Counter, Counter]:
    """Wrap each COUNTED function in every namespace that holds it; returns
    the call counts per function and per (function, graph, level) key."""
    modules = [basiccovers] + [
        importlib.import_module(f"basiccovers.{info.name}")
        for info in pkgutil.iter_modules(basiccovers.__path__)
    ]
    calls: Counter = Counter()
    keys: Counter = Counter()
    for target in COUNTED:
        module_name, attr = target.split(".")
        original = getattr(importlib.import_module(f"basiccovers.{module_name}"), attr)

        def counted(*args, _fn=original, _name=attr, **kwargs):
            calls[_name] += 1
            keys[(_name, id(args[0]), args[1] if len(args) > 1 else None)] += 1
            return _fn(*args, **kwargs)

        for module in modules:
            if module.__dict__.get(attr) is original:
                monkeypatch.setattr(module, attr, counted)
    return calls, keys


def verdicts(report) -> dict[str, str]:
    return {row.claim: row.verdict for row in report.cross_checks}


def test_analyze_computes_each_input_once(monkeypatch):
    g = fresh("E7")
    calls, keys = count_calls(monkeypatch)
    report = analyze(g)
    assert not report.failed
    assert calls == Counter(
        {
            # one from analyze, one inside regularity_report
            "graphical_dimension": 2,
            "gdim_bounds": 1,
            # one per level 1..3; build_poset runs no cover search
            "enumerate_basic_covers": 3,
            # k = 1..5 on g inside krull_dimension_estimate (E7 is bipartite
            # with nu = 3), which the covers section reads for k = 0..3, and
            # k = 1..3 on the projection
            "hilbert_function": 8,
            "is_domain_report": 1,
        }
    )
    # No level of any graph is counted twice.
    repeats = [key for key, n in keys.items() if key[0] == "hilbert_function" and n > 1]
    assert repeats == []


def test_analyze_runs_the_cm_equivalence_report_once(monkeypatch):
    g = fresh("K23")
    calls, _ = count_calls(monkeypatch)
    report = analyze(g)
    assert verdicts(report)["cm-conditions-agree"] == OK
    assert calls["cm_equivalence_report"] == 1


@pytest.fixture()
def gdim_off_by_one(monkeypatch):
    original = gdim.graphical_dimension

    def shifted(g, budget=None):
        result = original(g, budget)
        return replace(result, gdim=result.gdim + 1)

    monkeypatch.setattr(gdim, "graphical_dimension", shifted)


@pytest.mark.usefixtures("gdim_off_by_one")
def test_a_wrong_gdim_fails_every_row_that_reads_it():
    rows = verdicts(analyze(fresh("E7")))
    assert rows["dimension-estimate-vs-search"] == FAIL
    assert rows["poset-rank-vs-gdim"] == FAIL
    assert verdicts(analyze(fresh("P6")))["tree-matching-formula"] == FAIL


def test_a_wrong_host_count_fails_every_row_that_reads_it(monkeypatch):
    g = fresh("E7")
    original = covers.hilbert_function

    def perturbed(graph, k, budget=None):
        return original(graph, k, budget) + (graph is g and k == 1)

    monkeypatch.setattr(covers, "hilbert_function", perturbed)
    rows = verdicts(analyze(g))
    assert rows["multichain-vs-cover-counts"] == FAIL
    assert rows["projection-preserves-cover-counts"] == FAIL
    # E7 is bipartite, so the dimension estimate samples k = 1 too.
    assert rows["dimension-estimate-vs-search"] == FAIL


def test_a_wrong_top_sampled_count_fails_the_dimension_row(monkeypatch):
    # E7 is bipartite with nu = 3, so the estimate samples k = 0..5; the
    # top level is read only as one of the check points past the degree.
    g = fresh("E7")
    original = covers.hilbert_function

    def perturbed(graph, k, budget=None):
        return original(graph, k, budget) + (graph is g and k == 5)

    monkeypatch.setattr(covers, "hilbert_function", perturbed)
    rows = verdicts(analyze(g))
    assert rows["dimension-estimate-vs-search"] == FAIL
    assert rows["multichain-vs-cover-counts"] == OK


def drop_from_the_closure_build(monkeypatch, label: str) -> None:
    """Make ``build_poset`` lose the element with A-side pattern ``label``."""
    original = poset._closure_masks

    def lossy(g, a, b):
        masks = original(g, a, b)
        return [m for m in masks if "".join(str(m >> v & 1) for v in a) != label]

    monkeypatch.setattr(poset, "_closure_masks", lossy)


def test_a_lost_poset_element_fails_the_rows_that_read_the_poset(monkeypatch):
    # The frontier DP and the cover DFS share no code with the closure
    # build, so a poset short of one element, still bounded, is caught.
    drop_from_the_closure_build(monkeypatch, "100")
    g = fresh("E7")
    rows = verdicts(analyze(g))
    assert rows["multichain-vs-cover-counts"] == FAIL
    p = poset.build_poset(g)
    assert p.labels == ("000", "101", "110", "111")
    assert not verify_asl1(p, 2)


def analyze_through_the_cli(g: Graph, capsys, tmp_path) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``basiccovers analyze`` on g."""
    path = tmp_path / "g.edges"
    path.write_text(graph_to_text(g))
    capsys.readouterr()
    code = cli.main(["analyze", str(path)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_a_lost_poset_element_can_break_the_domain_equivalence(
    monkeypatch, capsys, tmp_path
):
    # Without 101 the E7 poset is a chain, so no straightening relation is
    # left to be zero although E7 fails the WSC.  The domain row fails and
    # the whole table is still printed.
    claims = [row.claim for row in analyze(fresh("E7")).cross_checks]
    drop_from_the_closure_build(monkeypatch, "101")
    g = fresh("E7")
    report = analyze(g)
    assert [row.claim for row in report.cross_checks] == claims
    assert verdicts(report)["wsc-vs-nonzero-straightenings"] == FAIL
    assert report.sections["straightening"]["domain"] is None
    code, out, err = analyze_through_the_cli(g, capsys, tmp_path)
    assert (code, err) == (1, "")
    assert out == report.to_text()
    assert "  wsc-vs-nonzero-straightenings: False = True FAIL\n" in out
    p = poset.build_poset(g)
    assert p.labels == ("000", "100", "110", "111")
    assert not verify_asl1(p, 2)


def test_a_flipped_cm_condition_fails_the_cm_row(monkeypatch, capsys, tmp_path):
    # C4 satisfies the WSC and every condition reads False; claiming its
    # independence complex is connected in codimension one breaks the
    # agreement, and the report names no common verdict.
    g = fresh("C4")
    claims = [row.claim for row in analyze(g).cross_checks]
    original = projection.is_strongly_connected
    monkeypatch.setattr(
        projection, "is_strongly_connected", lambda c: not original(c)
    )
    report = analyze(g)
    assert [row.claim for row in report.cross_checks] == claims
    rows = verdicts(report)
    assert rows["cm-conditions-agree"] == FAIL
    assert all(v == OK for claim, v in rows.items() if claim != "cm-conditions-agree")
    assert report.sections["cm equivalence"]["connected_in_codimension_one"] is True
    assert report.sections["cm equivalence"]["cohen_macaulay"] is None
    code, out, err = analyze_through_the_cli(g, capsys, tmp_path)
    assert (code, err) == (1, "")
    assert out == report.to_text()
    assert "  cm-conditions-agree: False = True FAIL" in out
