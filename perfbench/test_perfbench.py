"""Tests of the benchmark itself.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import math
from dataclasses import replace

import pytest

import run
import workloads
from jobrun import ROOT, cli_command, failure, job_env, job_key, normalise, run_command

REFERENCE = json.loads((run.HERE / "reference.json").read_text())
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

SMALL_JOBS = [
    workloads.table_job(0, 12, 0),
    workloads.table_job(5, 12, 2),
    workloads.equivariant_job(1, 3, 6),
    workloads.verify_job("chern-total", 8),
]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_always_yields_the_same_job_list(workload):
    first = workloads.plan(workload, 7, 4)
    assert first == workloads.plan(workload, 7, 4)
    assert first != workloads.plan(workload, 8, 4)
    assert workloads.plan(workload, 7, 2) == first[:2]


def _shape(argv):
    """A job's size, and for ``verify`` whether its class is the fixed one."""
    if argv[0] == "verify":
        return argv[-1], argv[2] == "chern-character"
    return argv[argv.index("--max-degree" if argv[0] == "table" else "--level") + 1]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_the_sizes_in_a_round_do_not_depend_on_the_seed(workload):
    def shapes(seed):
        return [sorted(map(_shape, jobs)) for jobs in workloads.plan(workload, seed, 4)]

    assert all(shapes(seed) == shapes(0) for seed in range(1, 20))


@pytest.mark.parametrize("workload", ["closedform-tables", "verify-battery"])
def test_two_rounds_hold_the_same_jobs_for_every_seed(workload):
    def jobs(seed):
        return sorted(argv for jobs in workloads.plan(workload, seed, 2) for argv in jobs)

    assert all(jobs(seed) == jobs(0) for seed in range(1, 20))


@pytest.mark.parametrize(
    "workload, tail_job",
    [
        ("closedform-tables", workloads.TABLE_TAIL),
        ("fixedpoint-vectors", workloads.EQUIVARIANT_TAIL),
    ],
)
def test_the_tail_rank_falls_inside_the_repeated_job(workload, tail_job):
    """Sorted by size, the tail rank is a run of the one job repeated at its size."""
    jobs = [argv for jobs in workloads.plan(workload, 0, 2) for argv in jobs]
    by_size = sorted(jobs, key=lambda argv: (int(_shape(argv)), argv != tail_job))
    rank = math.ceil(run.tail_percentile(len(jobs)) * len(jobs) / 100)
    assert by_size[rank - 1] == tail_job
    assert by_size[rank - 4] == by_size[rank + 2] == tail_job


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_plannable_job_has_a_reference(workload):
    universe = {job_key(argv) for argv in workloads.universe(workload)}
    assert universe == set(REFERENCE[workload])
    for seed in range(20):
        for jobs in workloads.plan(workload, seed, 4):
            assert {job_key(argv) for argv in jobs} <= universe


def test_corrupted_output_counts_as_failed():
    argv = workloads.table_job(0, 12, 0)
    result = run_command(cli_command(argv), argv, job_env())
    reference = REFERENCE["closedform-tables"]
    assert failure(result, reference) == ""
    corrupted = result.stdout.replace("1", "2", 1)
    assert failure(replace(result, stdout=corrupted), reference)
    assert failure(replace(result, returncode=1), reference)
    assert failure(replace(result, argv=("table", "--class", "todd")), reference)


def test_verify_timings_are_ignored_but_fail_lines_are_not():
    text = "PASS  parity       0.004s\nPASS  symmetry    12.300s\n2/2 checks passed\n"
    assert normalise(text) == "PASS  parity\nPASS  symmetry\n2/2 checks passed"
    argv = workloads.verify_job("todd", 8)
    result = run_command(cli_command(argv), argv, job_env())
    reference = REFERENCE["verify-battery"]
    assert failure(result, reference) == ""
    assert failure(replace(result, stdout=result.stdout.replace("PASS", "FAIL", 1)), reference)


def test_tail_percentile_leaves_ten_jobs_beyond():
    for count in range(21, 200):
        percentile = run.tail_percentile(count)
        values = list(range(count))
        beyond = count - 1 - values.index(run.nearest_rank(values, percentile))
        assert beyond >= run.TAIL_BEYOND
        assert run.tail_percentile(count + 1) >= percentile


def _counts(totals):
    return {name: value for name, value in totals.items() if name.endswith(".calls") or name.startswith("rings.")}


def test_traced_run_repeats_its_counts_keeps_outputs_and_covers_every_metric():
    env = job_env()
    first_results, _, first = run.trace_jobs(SMALL_JOBS, env)
    _, _, second = run.trace_jobs(SMALL_JOBS, env)
    assert _counts(first) == _counts(second)
    references = {key: value for table in REFERENCE.values() for key, value in table.items()}
    for result in first_results:
        assert failure(result, references) == "", result.argv
    for entry in SPEC["per_layer"]:
        assert entry["name"] in first, entry["name"]
