"""One benchmark run in a fresh interpreter: runs a workload's jobs in a
closed loop, one graph after another, checks every answer, and writes the
per-job records (and, when traced, the spans and per-layer metrics) as
JSON.

    python3 bench/worker.py --workload analyze --seed 1 --seconds 22 --out r.json
    python3 bench/worker.py --workload poset --seed 1 --rounds 1 --trace --out t.json

The loop runs whole rounds of the workload's shapes: it stops at the round
boundary nearest to ``--seconds`` of busy time (the time spent inside jobs,
at the reference machine speed), or after ``--rounds`` rounds.  Between
jobs, outside the timed region and outside any span, run the benchmark's
own checks and the calibration search that gives the machine's speed
(``calibration.py``); each job records the mean of the calibrations just
before and just after it.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path
from time import perf_counter

import workloads
from calibration import calibrate, scaled
from tracer import Tracer, layer_metrics

from basiccovers import asl, cli, gdim, poset, projection
from basiccovers.errors import SearchBudgetExceeded
from basiccovers.fixtures import corpus
from basiccovers.graph import parse_graph


@dataclass
class Outcome:
    """What one job produced: the digestible answer, the steps cut short by
    the search budget, and whatever the independent check needs."""

    answer: object
    skipped: int = 0
    evidence: dict = field(default_factory=dict)


def digest(answer) -> str:
    return hashlib.sha256(json.dumps(answer, sort_keys=True).encode()).hexdigest()[:16]


# --- analyze ------------------------------------------------------------------


def run_analyze(job: workloads.Job, path: Path) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(["analyze", str(path)])
    text = out.getvalue()
    # Every budget message reads "... exceeds budget ..."; each one is a
    # section or cross-check row that was skipped.
    skipped = sum("exceeds budget" in line for line in text.splitlines())
    return Outcome(text, skipped, {"code": code, "stderr": err.getvalue()})


def check_analyze(outcome: Outcome) -> str | None:
    if outcome.evidence["code"] != 0:
        return f"exit code {outcome.evidence['code']}: {outcome.evidence['stderr'].strip()}"
    lines = outcome.answer.splitlines()
    if "cross-checks" not in lines:
        return "no cross-check table"
    rows = lines[lines.index("cross-checks") + 1:]
    if not rows:
        return "empty cross-check table"
    for row in rows:
        verdict = row.split("  (", 1)[0].rsplit(" ", 1)[-1]
        if verdict not in ("OK", "SKIPPED"):
            return f"cross-check row not OK: {row.strip()}"
    return None


# --- dimension ----------------------------------------------------------------


def run_dimension(job: workloads.Job) -> Outcome:
    g = parse_graph(job.text)
    skipped = 0
    result = gdim.graphical_dimension(g)
    bounds = gdim.gdim_bounds(g)
    reg = projection.regularity_report(g)
    answer = {
        "gdim": result.gdim,
        "bounds": [bounds.lower, bounds.upper],
        "regularity": [
            reg.induced_matching,
            reg.projection_induced_matching,
            reg.upper_bound,
            reg.exact,
        ],
    }
    if projection.satisfies_wsc(g):
        cm = projection.cm_equivalence_report(g)
        skipped += len(cm.skip_reasons)
        answer["cm"] = [cm.cohen_macaulay, sorted(cm.computed().items())]
    # The witness is checked, not digested: any valid certificate will do.
    return Outcome(answer, skipped, {"graph": g, "certificate": result.certificate})


def check_dimension(outcome: Outcome) -> str | None:
    g = outcome.evidence["graph"]
    cert = outcome.evidence["certificate"]
    value = outcome.answer["gdim"]
    lower, upper = outcome.answer["bounds"]
    induced, _, reg_upper, _ = outcome.answer["regularity"]
    if not gdim.is_free_parameter_set(g, cert):
        return "certificate is not a free parameter set"
    if len(cert) != value - 1:
        return f"certificate length {len(cert)} != gdim - 1 = {value - 1}"
    if not lower <= value <= upper:
        return f"bounds do not sandwich gdim: {lower} <= {value} <= {upper}"
    if not induced <= reg_upper == value - 1:
        return f"regularity bounds out of order: {induced} <= {reg_upper} = {value - 1}"
    return None


# --- poset ----------------------------------------------------------------------


def run_poset(job: workloads.Job) -> Outcome:
    g = parse_graph(job.text)
    skipped = 0

    def guarded(step):
        nonlocal skipped
        try:
            return step()
        except SearchBudgetExceeded:
            skipped += 1
            return "skipped"

    p = poset.build_poset(g)
    answer: dict = {
        "elements": [p.label_of(c) for c in p.elements],
        "pure": poset.is_pure(p),
        "rank": poset.rank(p),
        "lattice": poset.is_lattice(p),
        "lusm": poset.is_locally_upper_semimodular(p),
    }
    answer["distributive"] = answer["lattice"] and poset.is_distributive(p)
    if answer["distributive"]:
        answer["birkhoff"] = list(poset.birkhoff_poset(p).elements)
    answer["order_complex"] = poset.order_complex(p).facet_lines()
    cm = guarded(lambda: poset.cohen_macaulay_report(g))
    answer["cohen_macaulay"] = cm if cm == "skipped" else cm.verdict
    relations = asl.straightening_relations(p)
    answer["relations"] = [r.to_line(p) for r in relations]
    answer["domain"] = asl.is_domain_report(g).verdict
    answer["multichains"] = [poset.count_multichains(p, d) for d in range(1, 7)]
    answer["asl1"] = [asl.verify_asl1(p, d) for d in (2, 3)]
    return Outcome(answer, skipped, {"poset": p})


def check_poset(outcome: Outcome) -> str | None:
    if not all(outcome.answer["asl1"]):
        return f"verify_asl1 failed: {outcome.answer['asl1']}"
    p = outcome.evidence["poset"]
    for x, y in combinations(p.elements, 2):
        meet, join = poset.meet_values(p, x, y), poset.join_values(p, x, y)
        sums = [a + b for a, b in zip(x.values, y.values)]
        if sums != [a + b for a, b in zip(meet.values, join.values)]:
            return f"meet-join sum identity fails on {p.label_of(x)}, {p.label_of(y)}"
    return None


# The E8 fixture, under its own labels; its counting calls repeat half their
# (graph, level) pairs.
E8_JOB = "0-E8"

RUNNERS = {"analyze": run_analyze, "dimension": run_dimension, "poset": run_poset}
CHECKS = {"analyze": check_analyze, "dimension": check_dimension, "poset": check_poset}


def environment() -> dict:
    uname = os.uname()
    model = uname.machine
    try:
        with open("/proc/cpuinfo") as fh:
            model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                model,
            )
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "platform": f"{uname.sysname} {uname.release} {uname.machine}",
        "cpu": model,
        "nproc": os.cpu_count(),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "budget_env": os.environ.get("BASICCOVERS_BUDGET"),
    }


def run(args) -> dict:
    fixtures = {name: g.edges for name, g in corpus().items()}
    stream = workloads.jobs(args.workload, args.seed, fixtures, args.rounds)
    job_dir = Path(args.out).with_suffix("")
    runner = RUNNERS[args.workload]
    check = CHECKS[args.workload]
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    records = []
    last_round = 0
    busy = 0.0
    speed_before = calibrate()
    try:
        for job in stream:
            # Stop only between rounds, so a run measures whole rounds, and
            # at the boundary nearest to --seconds, so the round count does
            # not flip when a round's time sits near a divisor of it.
            if job.round != last_round:
                if args.seconds is not None and busy >= args.seconds - busy / job.round / 2:
                    break
                last_round = job.round
            call = (job,)
            if args.workload == "analyze":
                job_dir.mkdir(parents=True, exist_ok=True)
                path = job_dir / f"{job.id}.edges"
                path.write_text(job.text)
                call = (job, path)
            if tracer is not None:
                tracer.begin_job(job.id)
            start = perf_counter()
            try:
                outcome, error = runner(*call), None
            except Exception as exc:  # a job that raises is a failed job
                outcome, error = None, f"{type(exc).__name__}: {exc}"
            seconds = perf_counter() - start
            if tracer is not None:
                tracer.end_job()
            speed_after = calibrate()
            speed = (speed_before + speed_after) / 2
            busy += scaled(seconds, speed)
            if outcome is not None:
                error = check(outcome)
            records.append({
                "id": job.id,
                "seconds": seconds,
                "calibration_s": speed,
                "digest": digest(outcome.answer) if outcome is not None else None,
                "skipped": outcome.skipped if outcome is not None else 0,
                "error": error,
            })
            speed_before = speed_after
    finally:
        if tracer is not None:
            tracer.uninstall()
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "jobs": records,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "environment": environment(),
    }
    if tracer is not None:
        spans = tracer.spans
        result["layers"] = layer_metrics(spans)
        if any(record["id"] == E8_JOB for record in records):
            result["e8_count_distinct_share"] = layer_metrics(spans, E8_JOB)["covers.count.distinct_share"]
        with open(Path(args.out).with_suffix(".spans.jsonl"), "w") as fh:
            for s in spans:
                fh.write(json.dumps([s.job, s.name, s.start, s.end, s.parent, s.error]) + "\n")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--rounds", type=int, default=workloads.MAX_ROUNDS)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    result = run(args)
    Path(args.out).write_text(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
