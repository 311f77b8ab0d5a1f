"""Every job of the benchmark's universe prints what the benchmark's
reference recorded.

``perfbench/workloads.py`` lists the finite universe of CLI jobs that
the benchmark can draw, and ``perfbench/reference.json`` holds the
digest of each job's output (``perfbench/jobrun.py`` ``digest``: the
output with ``verify``'s wall times dropped, hashed).  A change that
keeps every output byte for byte passes here.  The jobs run in process
through ``cli.main``; a few also run as the benchmark runs them, each
in a fresh process.  The perfbench files are read and never written.
Every job's command line is also read without argparse, into the
namespace argparse would give.
"""

import contextlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

from hilbfock import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())


def _load(name: str):
    """A perfbench module, under a name of its own."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


jobrun = _load("jobrun")
workloads = _load("workloads")


def test_the_universe_has_847_jobs_each_with_a_reference():
    sizes = {workload: len(workloads.universe(workload)) for workload in workloads.WORKLOADS}
    assert sizes == {"closedform-tables": 396, "fixedpoint-vectors": 360, "verify-battery": 91}
    for workload in workloads.WORKLOADS:
        keys = {jobrun.job_key(argv) for argv in workloads.universe(workload)}
        assert keys == set(REFERENCE[workload])


def test_every_universe_job_is_read_without_argparse():
    parser = cli.build_parser()
    differing = []
    for workload in workloads.WORKLOADS:
        for argv in workloads.universe(workload):
            plain = cli._plain_args(list(argv))
            if plain is None or vars(plain) != vars(parser.parse_args(list(argv))):
                differing.append(jobrun.job_key(argv))
    assert differing == []


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_universe_job_prints_its_reference_output(workload):
    reference = REFERENCE[workload]
    differing = []
    for argv in workloads.universe(workload):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(list(argv))
        key = jobrun.job_key(argv)
        if code != 0 or jobrun.digest(out.getvalue()) != reference[key]:
            differing.append((key, code))
    assert differing == []


@pytest.mark.parametrize(
    "workload, argv",
    [
        ("closedform-tables", workloads.TABLE_TAIL),
        ("closedform-tables", ("table", "--class", "l-genus", "--max-degree", "12", "--format", "csv")),
        ("closedform-tables", ("table", "--class", "todd", "--max-degree", "12", "--target", "tautological",
                               "--format", "json")),
        ("fixedpoint-vectors", workloads.EQUIVARIANT_TAIL),
        ("verify-battery", ("verify", "--class", "todd", "--order", "8")),
    ],
    ids=lambda value: value if isinstance(value, str) else jobrun.job_key(value),
)
def test_a_job_run_the_benchmarks_way_prints_its_reference_output(workload, argv):
    # The benchmark's own path: a fresh ``python -m hilbfock.cli`` process
    # in the benchmark's environment, judged by the benchmark's check.
    result = jobrun.run_command(jobrun.cli_command(argv), argv, jobrun.job_env())
    assert jobrun.failure(result, REFERENCE[workload]) == ""
