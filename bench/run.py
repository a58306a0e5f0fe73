"""The basiccovers benchmark: one command per workload.

    python3 bench/run.py --workload analyze --seed 1 --seconds 22 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 22 --trace 1

Run from the root of a source checkout.  Each workload runs in fresh
interpreters with a fixed PYTHONHASHSEED and BASICCOVERS_BUDGET unset,
one workload at a time:

1. set-up: several interpreters, before and after the measured loop, each
   time ``import basiccovers`` plus ``fixtures.verify_corpus()``, after
   one untimed warm-up that compiles the byte code; the median is
   ``setup_s``;
2. the measured loop: ``bench/worker.py`` runs whole rounds of the
   workload's seeded jobs for about ``--seconds`` seconds of busy time,
   and checks every answer;
3. with ``--trace 1``, a second interpreter runs the first round of jobs
   (see ``workloads.py``) with the boundary tracer installed; its answers must
   match the untraced ones, and its spans give the per-layer metrics.

The loop runs the workload's shapes round after round (``workloads.py``),
so every seed does the same work.  ``jobs_per_s`` is the job count over
the busy time, ``job_p50_ms`` the median job time, and ``job_tail_ms`` the
highest percentile of the job times with at least ten jobs beyond it.  Jobs
that raise or fail a check count in ``failed_share``; search steps that end
in ``SearchBudgetExceeded`` count in ``skipped_steps``.

The end-to-end times are given at the reference machine speed: the
worker times a fixed calibration search before and after every job, and
each job's wall time is scaled by the calibration's reference time over
the mean of those two (``calibration.py``); set-up, and with it
``import_s`` and ``fixtures.verify_s``, is scaled the same way.  The
unscaled wall-clock figures are printed beside the scaled ones; the other
per-layer times are unscaled span times.

Every job's answer digest must also match ``bench/reference.json``
(``--write-reference ROUNDS`` records it).  Dimension answers are graph
invariants, so they are recorded per shape and checked for every seed.
Analyze and poset answers print vertex labels, so they are recorded per
job for the reference seed, over more rounds than a run of today's code
does; the report says how many jobs had a digest to check.

Every metric is printed by name and unit; the last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics, or with ``--trace 1`` the per-layer
ones).  The exit code is 1 when any job failed its check or its reference
digest, and 2 when the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

import workloads
from calibration import REFERENCE_S, scaled
from tracer import LAYER_METRICS

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
OUT = Path(".bench_out")
# Set-up is timed this many times before the measured loop and as many
# times after it, so that one slow spell of the machine moves the median
# less.
SETUP_REPEATS = 4
# Each child must end well inside the 180 s a whole run may take.
CHILD_TIMEOUT = 150
# Workloads whose answers do not depend on the vertex labels; their
# reference digests are keyed by shape name and hold for every seed.
BY_SHAPE = ("dimension",)
TAIL_BEYOND = 10

SETUP_CODE = f"""\
import json, sys, time
sys.path.insert(0, {str(HERE)!r})
from calibration import calibrate, scaled
before = calibrate()
t0 = time.perf_counter()
import basiccovers
from basiccovers import fixtures
t1 = time.perf_counter()
fixtures.verify_corpus()
t2 = time.perf_counter()
speed = (before + calibrate()) / 2
print(json.dumps({{"import_s": scaled(t1 - t0, speed), "verify_s": scaled(t2 - t1, speed)}}))
"""

END_TO_END = (
    ("jobs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


class BenchError(Exception):
    """The benchmark itself could not run (as opposed to a failed job)."""


def pinned_env(root: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "BASICCOVERS_BUDGET"}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(root / "src")
    return env


def child(cmd: list[str], env: dict, timeout: float | None = CHILD_TIMEOUT) -> str:
    """Run one child interpreter to completion and return its stdout."""
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"child timed out after {timeout} s: {cmd[1:3]}") from None
    if proc.returncode != 0:
        raise BenchError(f"child {cmd[1:3]} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc.stdout


def measure_setup(env: dict) -> list[dict]:
    return [
        json.loads(child([sys.executable, "-c", SETUP_CODE], env).splitlines()[-1])
        for _ in range(SETUP_REPEATS)
    ]


def run_worker(
    env: dict, workload: str, seed: int, out: Path, extra: list[str],
    timeout: float | None = CHILD_TIMEOUT,
) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload,
        "--seed", str(seed), "--out", str(out), *extra,
    ]
    child(cmd, env, timeout)
    return json.loads(out.read_text())


def tail(times: list[float]) -> tuple[float, int]:
    """The highest percentile with at least TAIL_BEYOND jobs beyond it, as
    (value, percentile); the maximum when there are too few jobs."""
    ranked = sorted(times)
    if len(ranked) <= TAIL_BEYOND:
        return ranked[-1], 100
    index = len(ranked) - TAIL_BEYOND - 1
    return ranked[index], math.floor(100 * (index + 1) / len(ranked))


def scaled_seconds(record: dict) -> float:
    return scaled(record["seconds"], record["calibration_s"])


def timing(times: list[float]) -> dict[str, float]:
    return {
        "jobs_per_s": len(times) / sum(times),
        "job_p50_ms": 1000 * statistics.median(times),
        "job_tail_ms": 1000 * tail(times)[0],
    }


def reference_key(workload: str, job_id: str) -> str:
    return job_id.split("-", 1)[1] if workload in BY_SHAPE else job_id


def reference_digests(workload: str, seed: int) -> dict[str, str]:
    """The digests a run of ``workload`` with ``seed`` is checked against,
    keyed by ``reference_key``; empty when none apply to the seed."""
    doc = json.loads(REFERENCE.read_text())
    if workload not in BY_SHAPE and doc["seed"] != seed:
        return {}
    return doc["digests"].get(workload, {})


def failures(records: list[dict], workload: str, reference: dict[str, str]) -> list[str]:
    out = []
    for r in records:
        expected = reference.get(reference_key(workload, r["id"]))
        if r["error"]:
            out.append(f"{r['id']}: {r['error']}")
        elif expected is not None and expected != r["digest"]:
            out.append(f"{r['id']}: digest {r['digest']} != reference {expected}")
    return out


def digest_checked(records: list[dict], workload: str, reference: dict[str, str]) -> int:
    return sum(reference_key(workload, r["id"]) in reference for r in records)


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    env = pinned_env(root)
    out = OUT / f"{workload}-s{seed}"
    out.mkdir(parents=True, exist_ok=True)
    child([sys.executable, "-c", SETUP_CODE], env)  # warm-up: byte code
    setup = measure_setup(env)
    main = run_worker(env, workload, seed, out / "run.json", ["--seconds", str(seconds)])
    setup += measure_setup(env)
    records = main["jobs"]
    times = [scaled_seconds(r) for r in records]
    reference = reference_digests(workload, seed)
    failed = failures(records, workload, reference)
    setup_s = [s["import_s"] + s["verify_s"] for s in setup]
    speed = statistics.median(r["calibration_s"] for r in records)
    report = {
        "workload": workload,
        "seed": seed,
        "environment": main["environment"],
        "attempted": len(records),
        "failed": failed,
        "metrics": {
            **timing(times),
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": main["peak_rss_mb"],
        },
        "wall": timing([r["seconds"] for r in records]),
        "notes": {
            "jobs_per_s": f"{1 + int(records[-1]['id'].split('-', 1)[0])} whole rounds",
            "job_tail_ms": f"p{tail(times)[1]} of {len(records)} jobs",
            "setup_s": f"median of {len(setup_s)} interpreters",
        },
        "calibration_ms": 1000 * speed,
        "skipped_steps": sum(r["skipped"] for r in records),
        "digest_checked": digest_checked(records, workload, reference),
    }
    if trace:
        traced = run_worker(env, workload, seed, out / "trace.json", ["--rounds", "1", "--trace"])
        plain = {r["id"]: r for r in records}
        common = [r for r in traced["jobs"] if r["id"] in plain]
        report["attempted"] += len(traced["jobs"])
        report["digest_checked"] += digest_checked(traced["jobs"], workload, reference)
        failed += failures(traced["jobs"], workload, reference)
        failed += [
            f"{r['id']}: traced digest {r['digest']} != untraced {plain[r['id']]['digest']}"
            for r in common if r["digest"] != plain[r["id"]]["digest"]
        ]
        layers = dict(traced["layers"])
        layers["fixtures.verify_s"] = statistics.median(s["verify_s"] for s in setup)
        layers["import_s"] = statistics.median(s["import_s"] for s in setup)
        layers["trace.overhead_share"] = (
            sum(map(scaled_seconds, common))
            / sum(scaled_seconds(plain[r["id"]]) for r in common) - 1
        )
        report["layers"] = layers
        report["e8_count_distinct_share"] = traced.get("e8_count_distinct_share")
    report["failed_share"] = len(failed) / report["attempted"]
    (out / "report.json").write_text(json.dumps(report, indent=2) + "\n")
    return report


LAYER_UNITS = dict(LAYER_METRICS) | {
    "fixtures.verify_s": "s",
    "import_s": "s",
    "trace.overhead_share": "ratio",
}


def print_report(report: dict, trace: bool) -> None:
    env = report["environment"]
    print(
        f"== workload {report['workload']}  seed {report['seed']}  "
        f"python {env['python']}  {env['platform']}  cpu {env['cpu']}  nproc {env['nproc']}"
    )
    units = dict(END_TO_END)
    for name, value in report["metrics"].items():
        note = report["notes"].get(name)
        print(f"  {name:<32} {value:>14.6g} {units[name]}" + (f"  ({note})" if note else ""))
    wall = report["wall"]
    print(
        f"  wall clock, unscaled: jobs_per_s {wall['jobs_per_s']:.6g} 1/s, "
        f"job_p50_ms {wall['job_p50_ms']:.6g} ms, job_tail_ms {wall['job_tail_ms']:.6g} ms; "
        f"calibration {report['calibration_ms']:.6g} ms (reference "
        f"{1000 * REFERENCE_S:.6g} ms)"
    )
    failed = len(report["failed"])
    print(f"  {'failed_share':<32} {report['failed_share']:>14.6g} ratio  ({failed} of {report['attempted']} jobs)")
    print(f"  {'skipped_steps':<32} {report['skipped_steps']:>14d} count")
    print(f"  reference digests checked for {report['digest_checked']} of {report['attempted']} jobs")
    for line in report["failed"]:
        print(f"  FAILED {line}")
    if trace:
        for name, value in report["layers"].items():
            print(f"  {name:<32} {value:>14.6g} {LAYER_UNITS[name]}")
        e8 = report["e8_count_distinct_share"]
        if e8 is not None:
            print(f"  {'covers.count.distinct_share':<32} {e8:>14.6g} ratio  (E8 alone)")


def result_line(reports: list[dict], trace: bool) -> dict:
    key, units = ("layers", LAYER_UNITS) if trace else ("metrics", dict(END_TO_END))
    metrics = {}
    for report in reports:
        prefix = "" if len(reports) == 1 else f"{report['workload']}."
        for name, value in report[key].items():
            metrics[prefix + name] = {"value": value, "unit": units[name]}
    return {
        "correct": not any(r["failed"] for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(len(r["failed"]) for r in reports),
        "metrics": metrics,
    }


def write_reference(root: Path, seed: int, rounds: int, names) -> None:
    """Record the answer digests of ``rounds`` rounds of the named
    workloads' jobs for ``seed``; later runs must match them."""
    env = pinned_env(root)
    OUT.mkdir(exist_ok=True)
    doc = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    if doc.get("seed") != seed:
        doc = {"seed": seed, "digests": {}}
    for workload in names:
        result = run_worker(
            env, workload, seed, OUT / f"reference-{workload}.json",
            ["--rounds", str(rounds)], timeout=None,
        )
        digests: dict[str, str] = {}
        for r in result["jobs"]:
            key = reference_key(workload, r["id"])
            if r["error"] or digests.setdefault(key, r["digest"]) != r["digest"]:
                raise BenchError(f"{workload}: refusing to record {r['id']}: {r['error'] or 'digest varies with the labels'}")
        doc["digests"][workload] = digests
    REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="basiccovers benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-reference", type=int, metavar="ROUNDS", default=None,
        help="record reference digests for --seed over ROUNDS rounds of each workload",
    )
    args = parser.parse_args(argv)
    root = Path.cwd()
    try:
        if not (root / "src" / "basiccovers" / "__init__.py").is_file():
            raise BenchError("run from the root of a basiccovers checkout (src/basiccovers not found)")
        names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
        if args.write_reference is not None:
            write_reference(root, args.seed, args.write_reference, names)
            return 0
        reports = []
        for name in names:
            report = run_workload(root, name, args.seed, args.seconds, bool(args.trace))
            print_report(report, bool(args.trace))
            reports.append(report)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    result = result_line(reports, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
