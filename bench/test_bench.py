"""Tests of the benchmark's own machinery.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import calibration  # noqa: E402
import pytest  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import Span, Tracer, layer_metrics, self_times  # noqa: E402

import basiccovers  # noqa: E402
# cli is imported so that the namespace snapshot below sees every module the
# tracer patches.
from basiccovers import analysis, cli, fixtures, gdim, graph, poset, projection  # noqa: E402,F401

FIXTURES = {name: g.edges for name, g in fixtures.corpus().items()}


def test_self_time_of_synthetic_nested_call():
    spans = [
        Span("j", "job", 0.0, 10.0, None),
        Span("j", "outer", 1.0, 6.0, 0),
        Span("j", "inner", 2.0, 3.5, 1),
        Span("j", "inner", 4.0, 5.0, 1),
        Span("j", "other", 7.0, 9.0, 0),
    ]
    assert self_times(spans) == [3.0, 2.5, 1.5, 1.0, 2.0]


def test_traced_nested_calls_link_parents_and_self_times_add_up():
    p = poset.build_poset(graph.path_graph(5))
    tracer = Tracer()
    tracer.install()
    try:
        tracer.begin_job("j")
        poset.birkhoff_poset(p)
        tracer.end_job()
    finally:
        tracer.uninstall()
    names = [s.name for s in tracer.spans]
    assert names[:4] == ["job", "poset.birkhoff_poset", "poset.is_distributive", "poset.is_lattice"]
    assert [s.parent for s in tracer.spans[:4]] == [None, 0, 1, 2]
    root = tracer.spans[0]
    assert sum(self_times(tracer.spans)) == pytest.approx(root.end - root.start)


def _namespace_snapshot():
    modules = [m for name, m in sys.modules.items() if name.startswith("basiccovers")]
    return {(m.__name__, k): v for m in modules for k, v in vars(m).items() if callable(v)}


def test_wrappers_cover_every_namespace_and_are_restored():
    before = _namespace_snapshot()
    original_gdim = gdim.graphical_dimension
    original_matching = graph.matching_number
    tracer = Tracer()
    tracer.install()
    try:
        # Names imported into other modules are wrapped there too.
        assert projection.graphical_dimension is not original_gdim
        assert projection.graphical_dimension.__wrapped__ is original_gdim
        assert basiccovers.graphical_dimension is projection.graphical_dimension
        assert gdim.matching_number is not original_matching
        assert gdim.matching_number is graph.matching_number
    finally:
        tracer.uninstall()
    assert _namespace_snapshot() == before


def test_calls_outside_a_job_are_not_recorded():
    tracer = Tracer()
    tracer.install()
    try:
        gdim.graphical_dimension(graph.cycle_graph(6))
    finally:
        tracer.uninstall()
    assert tracer.spans == []


def test_e8_counts_every_graph_level_pair_twice():
    tracer = Tracer()
    tracer.install()
    try:
        tracer.begin_job("E8")
        analysis.analyze(fixtures.fixture("E8"))
        tracer.end_job()
    finally:
        tracer.uninstall()
    layers = layer_metrics(tracer.spans)
    assert layers["covers.count.calls"] == 20
    assert layers["covers.count.distinct_share"] == 0.5
    assert layers["gdim.search.calls"] == 5


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_for_a_seed(workload):
    first = list(workloads.jobs(workload, 7, FIXTURES, rounds=3))
    again = list(workloads.jobs(workload, 7, FIXTURES, rounds=3))
    other = list(workloads.jobs(workload, 8, FIXTURES, rounds=3))
    assert first == again
    assert [j.edges for j in first] != [j.edges for j in other]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_no_edge_list_repeats_and_every_job_parses(workload):
    stream = list(workloads.jobs(workload, 3, FIXTURES, rounds=4))
    assert len({j.edges for j in stream}) == len(stream)
    shapes = workloads.round_of(workload, FIXTURES)
    assert [j.id for j in stream[: len(shapes)]] == [f"0-{s.name}" for s in shapes]
    for job in stream[: len(shapes)]:
        g = graph.parse_graph(job.text)
        assert (g.vertex_count, g.edges) == (job.n, job.edges)


def test_fixtures_keep_their_labels_in_round_zero_only():
    stream = list(workloads.jobs("analyze", 3, FIXTURES, rounds=2))
    by_id = {j.id: j.edges for j in stream}
    assert by_id["0-E8"] == FIXTURES["E8"]
    assert by_id["1-E8"] != FIXTURES["E8"]
    assert "1-K2" not in by_id  # its only labelling was used in round 0


def test_poset_inputs_are_bipartite():
    for job in workloads.jobs("poset", 1, rounds=1):
        assert graph.bipartition(graph.parse_graph(job.text)) is not None


def test_worker_stops_only_between_rounds(tmp_path):
    args = argparse.Namespace(
        workload="dimension", seed=2, seconds=1e-6, rounds=3, trace=False, out=str(tmp_path / "r.json")
    )
    records = worker.run(args)["jobs"]
    assert [r["id"] for r in records] == [f"0-{s.name}" for s in workloads.dimension_round()]


def test_digests_are_checked_per_job_or_per_shape():
    records = [
        {"id": "0-C4", "digest": "a", "error": None},
        {"id": "1-C4", "digest": "b", "error": None},
        {"id": "2-C4", "digest": "a", "error": None},
    ]
    reference = {"0-C4": "a", "1-C4": "a", "C4": "a"}
    assert run.failures(records, "analyze", reference) == ["1-C4: digest b != reference a"]
    assert run.digest_checked(records, "analyze", reference) == 2
    assert run.failures(records, "dimension", reference) == ["1-C4: digest b != reference a"]
    assert run.digest_checked(records, "dimension", reference) == 3


def test_tail_leaves_ten_jobs_beyond_it():
    times = [float(i) for i in range(1, 51)]
    value, percentile = run.tail(times)
    assert sum(t > value for t in times) == 10
    assert (value, percentile) == (40.0, 80)
    assert run.tail([1.0, 3.0, 2.0]) == (3.0, 100)


def test_job_times_are_scaled_by_the_calibration_beside_them(tmp_path):
    reference = calibration.REFERENCE_S
    assert run.scaled_seconds({"seconds": 0.3, "calibration_s": reference}) == pytest.approx(0.3)
    # On a machine running at half speed the calibration takes twice as long.
    assert run.scaled_seconds({"seconds": 0.3, "calibration_s": 2 * reference}) == pytest.approx(0.15)
    args = argparse.Namespace(
        workload="dimension", seed=2, seconds=None, rounds=1, trace=False, out=str(tmp_path / "r.json")
    )
    assert all(r["calibration_s"] > 0 for r in worker.run(args)["jobs"])
