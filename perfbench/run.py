"""Outside-in benchmark of the ``hilbfock`` command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each job is one ``python -m hilbfock.cli ...`` process.  Jobs run one at
a time from this process: a single client in a closed loop, with no
threads or pool, so a cache that outlives one call cannot inflate the
numbers.  The whole job list is built from the seed before any timing
starts, and every job's output is checked against the reference digests
after the timed region.

``--trace 0`` runs the whole rounds that take about ``--seconds`` at
the reference speed (``workloads.ROUND_SECONDS``) and reports the
end-to-end metrics.  ``--trace 1`` runs each job of the first
``TRACE_ROUNDS`` rounds under ``tracer.py`` and again untraced, and
reports the per-layer metrics.  The last line of stdout is
one JSON object; the lines before it are for people.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import Counter, defaultdict
from pathlib import Path

import workloads
from jobrun import (
    ROOT,
    SOURCE,
    check_seconds,
    cli_command,
    emitted_values,
    failure,
    height_bits,
    job_env,
    run_command,
)

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 15
TRACE_ROUNDS = 1
# Stop starting jobs after this long, so that a run ends within
# three minutes even on a program many times slower than today's.
HARD_LIMIT_S = 100.0
TAIL_BEYOND = 10


class SetupError(Exception):
    """The checkout cannot run the benchmark; no result is printed."""


def load_inputs(workload: str) -> tuple[dict, dict[str, str]]:
    if not (SOURCE / "hilbfock" / "cli.py").is_file():
        raise SetupError(f"no hilbfock source under {SOURCE}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reference = json.loads((HERE / "reference.json").read_text())[workload]
    return spec, reference


def version_seconds(env: dict[str, str]) -> float:
    """Wall time of ``hilbfock --version``: interpreter start plus import."""
    result = run_command(cli_command(["--version"]), ["--version"], env)
    if result.returncode != 0 or not result.stdout.startswith("hilbfock "):
        raise SetupError(f"hilbfock --version failed: {result.stderr.strip()[-500:]}")
    return result.seconds


def tail_percentile(count: int) -> int:
    """Highest whole percentile with at least ``TAIL_BEYOND`` jobs beyond it, at least 50."""
    if count <= 2 * TAIL_BEYOND:
        return 50
    return 100 * (count - TAIL_BEYOND) // count


def nearest_rank(values: list[float], percentile: int) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(percentile * len(ordered) / 100) - 1)]


def timed_run(jobs, env: dict[str, str]):
    """Run the jobs untraced, one after another; return results and set-up times.

    The ``SETUP_REPEATS`` set-up runs are spread evenly through the job
    list, so that their median covers the same stretch of time as the
    jobs, not only the first second of the run.  One unmeasured set-up
    run first lets the bytecode cache fill, as it has for an installed
    package.
    """
    version_seconds(env)
    before = Counter(len(jobs) * k // SETUP_REPEATS for k in range(SETUP_REPEATS))
    results, setup = [], []
    start = time.perf_counter()
    for index, argv in enumerate(jobs):
        setup += [version_seconds(env) for _ in range(before[index])]
        if time.perf_counter() - start > HARD_LIMIT_S:
            break
        results.append(run_command(cli_command(argv), argv, env))
    return results, setup


def end_to_end(args, spec, reference, env) -> tuple[dict, int, int]:
    rounds = workloads.rounds_for(args.workload, args.seconds)
    jobs = [argv for jobs in workloads.plan(args.workload, args.seed, rounds) for argv in jobs]
    results, setup = timed_run(jobs, env)
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    failed = count_failures(results, reference)
    times = [result.seconds for result in results]
    percentile = tail_percentile(len(times))
    values = {
        "setup_s": statistics.median(setup),
        "jobs_per_s": (len(results) - failed) / sum(times),
        "job_s.p50": statistics.median(times),
        "job_s.tail": nearest_rank(times, percentile),
        "correct_frac": (len(results) - failed) / len(results),
        "peak_rss_mb": peak_kb / 1024,
    }
    print(f"{len(results)} jobs ({rounds} rounds) in {sum(times):.2f} s; job_s.tail is p{percentile}")
    print(f"failed_frac {failed / len(results):.4f}")
    return metrics(spec["end_to_end"], values), len(results), failed


def count_failures(results, reference: dict[str, str]) -> int:
    """Check every job's output against the reference; report each failure."""
    failed = 0
    for result in results:
        reason = failure(result, reference)
        if reason:
            failed += 1
            print(f"FAILED {' '.join(result.argv)}: {reason}", file=sys.stderr)
    return failed


def aggregate(names: list[str], spans: list, totals: dict[str, float]) -> None:
    """Add one job's spans to ``calls``, ``s`` and ``self_s`` totals.

    ``s`` counts only spans with no enclosing span of the same name, so
    recursion is not counted twice.  ``self_s`` is a span's duration
    minus the part its child spans cover; a layer's ``self_s`` sums it
    over the layer's spans.
    """
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    layers = [name.split(".", 1)[0] for name in names]
    for index, (name, start, end, parent) in enumerate(spans):
        label, duration = names[name], end - start
        own = duration - covered[index]
        totals[f"{label}.calls"] += 1
        totals[f"{label}.self_s"] += own
        totals[f"{layers[name]}.self_s"] += own
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            totals[f"{label}.s"] += duration


def trace_jobs(jobs, env) -> tuple[list, list, dict[str, float]]:
    """Run each job under ``tracer.py`` and then untraced, back to back.

    Returns the traced results, the untraced results and the span totals.
    Running the two side by side keeps a slow spell of the machine from
    landing on one side only of ``trace.overhead_frac``.
    """
    tracer = str(HERE / "tracer.py")
    totals: dict[str, float] = defaultdict(int)
    traced, plain = [], []
    scratch = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        for index, argv in enumerate(jobs):
            spans_path = os.path.join(scratch, f"{index}.json")
            traced.append(run_command([sys.executable, tracer, spans_path, *argv], argv, env))
            plain.append(run_command(cli_command(argv), argv, env))
            if os.path.exists(spans_path):
                with open(spans_path) as handle:
                    recorded = json.load(handle)
                os.remove(spans_path)
                aggregate(recorded["names"], recorded["spans"], totals)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    emitted = [
        value
        for result in traced
        if result.returncode == 0
        for value in emitted_values(result.argv, result.stdout)
    ]
    totals["rings.output_coeffs"] = len(emitted)
    totals["rings.output_height_bits.max"] = max(map(height_bits, emitted), default=0)
    # Check times come from the untraced runs: verify times its own checks.
    for result in plain:
        for check, seconds in check_seconds(result.stdout).items():
            totals[f"verification.check.{check}.s"] += seconds
    totals["trace.overhead_frac"] = (
        sum(result.seconds for result in traced) / sum(result.seconds for result in plain) - 1
    )
    return traced, plain, totals


def per_layer(args, spec, reference, env) -> tuple[dict, int, int]:
    jobs = [argv for jobs in workloads.plan(args.workload, args.seed, TRACE_ROUNDS) for argv in jobs]
    traced, plain, totals = trace_jobs(jobs, env)
    failed = count_failures(traced, reference) + count_failures(plain, reference)
    print(f"{len(jobs)} jobs, each traced and untraced")
    return metrics(spec["per_layer"], totals), len(traced) + len(plain), failed


def metrics(declared: list[dict], values) -> dict:
    return {
        entry["name"]: {"value": values.get(entry["name"], 0), "unit": entry["unit"]}
        for entry in declared
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="Outside-in benchmark of the hilbfock CLI.")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        spec, reference = load_inputs(args.workload)
        env = job_env()
        # The result line may hold only correct, attempted, failed and
        # metrics, so the interpreter and core count are recorded here.
        print(
            f"workload {args.workload}, seed {args.seed}, python {platform.python_version()}, "
            f"nproc {len(os.sched_getaffinity(0))}, HILBFOCK_THREADS unset"
        )
        run = per_layer if args.trace else end_to_end
        values, attempted, failed = run(args, spec, reference, env)
    except (SetupError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for name, metric in values.items():
        print(f"{name:40s} {metric['value']:>14.6g} {metric['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": values}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
